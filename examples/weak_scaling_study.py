#!/usr/bin/env python3
"""Weak-scaling study (Figures 6 and 7): inputs grow with system size.

Run:  python examples/weak_scaling_study.py [benchmark ...]
      (defaults to va and bfs — one linear, one sub-linear)

Under weak scaling the workload's working set scales with the machine, so
no miss-rate cliff can occur and the predictor needs no miss-rate curve —
only the two scale-model IPCs.  Because the scale models also run *small
inputs*, prediction is much cheaper than simulating the target: the
simulation-time speedup is reported at the end (the paper's Figure 7).
"""

import sys

from repro.core import predict_weak_scaling
from repro.workloads import WEAK_SCALING

BASE = 8


def report(abbr: str) -> None:
    spec = WEAK_SCALING[abbr]
    print(f"\n=== {spec.name} ({abbr}) — weak scaling, expected "
          f"{spec.weak_scaling.value}")

    study = predict_weak_scaling(spec, base_size=BASE)
    for sms, r in study.results.items():
        print(f"  {sms:3d} SMs (input x{sms // BASE:2d}): IPC {r.ipc:8.1f}  "
              f"sim time {r.wall_time_s:5.2f}s")

    # No miss-rate curve was collected: study.profile.curve is None.
    print(f"  correction factor C = {study.profile.correction_factor():.3f}")
    print(f"  {'target':>8s} {'scale-model':>12s} {'proportional':>13s} "
          f"{'actual':>9s} {'sm error':>9s}")
    errors = study.errors("scale-model")
    for target in study.target_sizes:
        print(f"  {target:6d}SM {study.predictions['scale-model'][target]:12.1f} "
              f"{study.predictions['proportional'][target]:13.1f} "
              f"{study.actuals[target]:9.1f} {100 * errors[target]:8.1f}%")

    # Figure 7: simulation-time speedup of predicting instead of simulating.
    scale_cost = sum(study.results[n].wall_time_s for n in study.scale_sizes)
    print("  simulation speedup vs simulating the target directly:")
    for target in study.target_sizes:
        speedup = study.results[target].wall_time_s / scale_cost
        print(f"    {target:3d} SMs: {speedup:4.1f}x")


def main() -> None:
    for abbr in (sys.argv[1:] or ["va", "bfs"]):
        report(abbr)


if __name__ == "__main__":
    main()
