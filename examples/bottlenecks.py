#!/usr/bin/env python3
"""Why does a workload scale the way it does?

Run:  python examples/bottlenecks.py [benchmark]  (default: dct)

The analytical bound model (`repro.analytical`) names the workload's
bottleneck at each system size, next to the simulated IPC, explaining
its scaling class.
"""

import sys

from repro.analytical import analyze, stats_from_result
from repro.analysis.runner import CachedRunner
from repro.analysis.tables import render_table
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


if __name__ == "__main__":
    main()
