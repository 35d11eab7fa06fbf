#!/usr/bin/env python3
"""Strong-scaling study: reproduce one benchmark's row of Figures 1/2/5.

Run:  python examples/strong_scaling_study.py [benchmark ...]
      (defaults to one benchmark per scaling class: dct bfs pf)

For each benchmark this runs the Figure-3 workflow on the cached runner
(`predict_strong_scaling(spec, runner=...)`: every paper system size,
8-128 SMs, plus the miss-rate curve), classifies the scaling behaviour,
and shows how each prediction method tracks the real curve.
"""

import sys

from repro.analysis.ascii_plot import plot_series
from repro.analysis.classify import classify_scaling
from repro.analysis.runner import CachedRunner
from repro.core import predict_all, predict_strong_scaling
from repro.mrc import analyze_regions
from repro.workloads import STRONG_SCALING

SIZES = (8, 16, 32, 64, 128)


def report(abbr: str, runner: CachedRunner) -> None:
    spec = STRONG_SCALING[abbr]
    print(f"\n=== {spec.name} ({abbr}) — suite {spec.suite}, "
          f"footprint {spec.footprint_mb:g} MB")

    study = predict_strong_scaling(spec, runner=runner)
    real = {}
    for sms in SIZES:
        result = study.results[sms]
        real[sms] = result.ipc
        print(f"  {sms:3d} SMs: IPC {result.ipc:8.1f}   MPKI {result.mpki:5.2f}   "
              f"f_mem {result.memory_stall_fraction:.2f}")

    measured = classify_scaling([real[s] for s in SIZES], SIZES)
    print(f"  classification: measured {measured.value!r}, "
          f"paper says {spec.scaling.value!r}")

    curve = study.profile.curve
    analysis = analyze_regions(curve)
    print("  MRC:", "  ".join(f"{mb:g}MB={m:.2f}" for mb, m in curve.as_rows()))
    if analysis.has_cliff:
        low, high = analysis.cliff_capacities
        print(f"  cliff between {low / 2**20:.2f} MB and {high / 2**20:.2f} MB")
    else:
        print("  no miss-rate cliff (pre-cliff regime everywhere)")

    # The scale-model series starts at the two measured points; the
    # baselines are plain curves, so they are drawn at every size.
    scale_model = {**real, **study.predictions["scale-model"]}
    baselines, _ = predict_all(study.profile, SIZES, ("proportional", "power-law"))
    series = {
        "real": [real[s] for s in SIZES],
        "scale-model": [scale_model[s] for s in SIZES],
        **{name: list(ipcs.values()) for name, ipcs in baselines.items()},
    }
    print(plot_series([float(s) for s in SIZES], series,
                      title=f"{abbr}: real vs predicted IPC", x_label="#SMs"))

    for name in ("scale-model", *baselines):
        print(f"  {name:12s} @128 SMs: {study.predictions[name][128]:8.1f}  "
              f"error {100 * study.errors(name)[128]:5.1f}%")


def main() -> None:
    benchmarks = sys.argv[1:] or ["dct", "bfs", "pf"]
    runner = CachedRunner()
    for abbr in benchmarks:
        report(abbr, runner)


if __name__ == "__main__":
    main()
