#!/usr/bin/env python3
"""Multi-chiplet GPU case study (Section VII-D, Figure 8).

Run:  python examples/mcm_chiplets.py [benchmark]   (default: va)

Predicts a 16-chiplet (1,024-SM) MCM GPU's performance from 4- and
8-chiplet scale models, using weak scaling (work proportional to chiplet
count).  The same Figure-3 flow (`repro.core.study`) handles chiplet
counts exactly as it handles SM counts: only the `simulate` callable
differs.
"""

import sys
import time

from repro.core import study
from repro.gpu import McmConfig, simulate_mcm
from repro.workloads import WEAK_SCALING, build_trace


def main() -> None:
    abbr = sys.argv[1] if len(sys.argv) > 1 else "va"
    spec = WEAK_SCALING[abbr]
    target = McmConfig.paper_target()
    print("Table V target system:")
    for key, value in target.describe().items():
        print(f"  {key:18s} {value}")

    def simulate(chiplets: int):
        config = target.scaled(chiplets)
        trace = build_trace(
            spec,
            work_scale=float(chiplets),
            capacity_scale=config.chiplet.capacity_scale,
        )
        start = time.perf_counter()
        r = simulate_mcm(config, trace)
        print(f"\n  {chiplets:2d} chiplets ({config.total_sms} SMs): "
              f"IPC {r.ipc:8.1f}  remote accesses "
              f"{100 * r.extra['remote_fraction']:.0f}%  "
              f"({time.perf_counter() - start:.1f}s)")
        return r

    result = study(abbr, "mcm-weak", simulate, (4, 8), (16,))
    print(f"\n  16-chiplet prediction vs actual IPC {result.actuals[16]:.1f}:")
    for method in ("scale-model", "proportional", "linear", "power-law",
                   "logarithmic"):
        print(f"    {method:14s} {result.predictions[method][16]:9.1f}  "
              f"error {100 * result.errors(method)[16]:5.1f}%")


if __name__ == "__main__":
    main()
