#!/usr/bin/env python3
"""Why does a workload scale the way it does — and how robust is its
prediction?

Run:  python examples/bounds_and_sensitivity.py [benchmark]  (default: dct)

Combines two companion tools around the scale-model predictor:

* the analytical bound model (`repro.analytical`) names the workload's
  bottleneck at each system size, explaining its scaling class;
* the sensitivity report (`repro.core.sensitivity`) shows how much
  measurement error in each predictor input (scale-model IPCs, f_mem)
  the prediction can tolerate.
"""

import sys

from repro.analytical import analyze, stats_from_result
from repro.analysis.runner import CachedRunner
from repro.analysis.tables import render_table
from repro.core import predict_strong_scaling
from repro.core.sensitivity import region_stability, sensitivity_report
from repro.gpu import GPUConfig
from repro.workloads import STRONG_SCALING


def main() -> None:
    abbr = sys.argv[1] if len(sys.argv) > 1 else "dct"
    spec = STRONG_SCALING[abbr]
    runner = CachedRunner()

    print(f"=== {spec.name} ({abbr})\n")
    print("Analytical bottleneck per system size:")
    rows = []
    for sms in (8, 16, 64, 128):
        result = runner.simulate(spec, sms)
        estimate = analyze(GPUConfig.paper_system(sms),
                           stats_from_result(result))
        rows.append([
            f"{sms} SMs",
            f"{result.ipc:.0f}",
            f"{estimate.ipc:.0f}",
            estimate.bottleneck,
        ])
    print(render_table(["system", "simulated IPC", "analytical IPC",
                        "bottleneck"], rows))

    # The measured inputs of the 128-SM prediction: (8, 16)-SM IPCs,
    # f_mem and the miss-rate curve, as the Figure-3 workflow profiles them.
    profile = predict_strong_scaling(
        spec, target_sizes=(128,), include_actuals=False, runner=runner
    ).profile
    report = sensitivity_report(profile, 128)
    print(f"\nPrediction sensitivity at the 128-SM target "
          f"(base prediction {report.base_ipc:.0f} IPC):")
    print(render_table(["input", "perturbation", "prediction change"],
                       report.as_rows()))

    print("\nCliff-structure stability under per-point MPKI noise:")
    for noise, stable in region_stability(profile.curve).items():
        print(f"  ±{noise:.0%}: {'stable' if stable else 'UNSTABLE'}")


if __name__ == "__main__":
    main()
