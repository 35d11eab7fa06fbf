#!/usr/bin/env python3
"""Quickstart: predict a 128-SM GPU's performance from 8- and 16-SM
scale models, without ever simulating the target... then simulate the
target anyway to check the prediction.

Run:  python examples/quickstart.py  [benchmark]   (default: dct)

`predict_strong_scaling` is the workflow of Figure 3 in the paper:
  1. simulate the two scale models (detailed timing),
  2. collect the miss-rate curve (functional, one cheap pass),
  3. feed both to the scale-model predictor (Eqs. 1-4) and to
     proportional scaling and the regression baselines,
  4. simulate the target and score every method against it.
"""

import sys

from repro import get_benchmark
from repro.core import predict_strong_scaling


def main() -> None:
    abbr = sys.argv[1] if len(sys.argv) > 1 else "dct"
    spec = get_benchmark(abbr)
    print(f"=== {spec.name} ({abbr}) — paper scaling class: {spec.scaling.value}")

    study = predict_strong_scaling(spec, target_sizes=(128,))

    # 1. What was measured on the scale models (8 and 16 SMs).
    for sms in study.scale_sizes:
        result = study.results[sms]
        print(f"  scale model {sms:2d} SMs: IPC = {result.ipc:7.1f}  "
              f"f_mem = {result.memory_stall_fraction:.2f}  "
              f"({result.wall_time_s:.1f}s)")

    # 2. The miss-rate curve (one functional pass, all capacities).
    points = ", ".join(
        f"{mb:g}MB:{m:.2f}" for mb, m in study.profile.curve.as_rows()
    )
    print(f"  miss-rate curve (MPKI): {points}")

    # 3. The 128-SM prediction, with the region and C it was made from.
    prediction = study.scale_model[128]
    print(f"  scale-model prediction for 128 SMs: IPC = {prediction.ipc:.1f} "
          f"({prediction.region.value} region, C = {prediction.correction_factor:.3f})")

    # 4. Ground truth plus the baselines the paper compares against.
    print(f"  actual 128-SM IPC: {study.actuals[128]:.1f}")
    print(f"\n  {'method':14s} {'predicted':>10s} {'error':>8s}")
    for method, per_target in study.predictions.items():
        err = study.errors(method)[128]
        print(f"  {method:14s} {per_target[128]:10.1f} {100 * err:7.1f}%")


if __name__ == "__main__":
    main()
