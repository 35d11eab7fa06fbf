"""Artifact-style command-line prediction tool.

Mirrors the paper artifact's ``scaleModel.py``::

    gpu-scale-model <IPC_small> <IPC_large> <mpki_1> ... <mpki_N>

The first two values are the IPCs of the smallest and largest scale model;
the remaining N values are the miss-rate curve (MPKI) sampled at the scale
models and every target system, smallest to largest, each system twice the
previous one.  The tool predicts performance for every system beyond the
largest scale model and prints the comparison against logarithmic, linear
and power-law regression and proportional scaling.

Like the artifact, the smallest scale model's size is requested (flag
``--small-sms`` or interactive prompt), and ``f_mem`` — the fraction of
time the largest scale model cannot issue due to memory stalls — is
requested only when a cliff is detected (flag ``--f-mem`` or prompt).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.baselines import METHOD_NAMES, make_predictor
from repro.core.model import ScaleModelPredictor
from repro.core.profile import ScaleModelProfile
from repro.exceptions import PredictionError, ReproError
from repro.mrc.cliff import analyze_regions
from repro.mrc.curve import MissRateCurve
from repro.units import MB


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpu-scale-model",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("ipc_small", type=float, help="IPC of the smallest scale model")
    parser.add_argument("ipc_large", type=float, help="IPC of the largest scale model")
    parser.add_argument(
        "mpki",
        type=float,
        nargs="+",
        help="miss-rate curve: MPKI per system, smallest to largest",
    )
    parser.add_argument(
        "--small-sms",
        type=int,
        default=None,
        help="SMs (or chiplets) of the smallest scale model (prompted if omitted)",
    )
    parser.add_argument(
        "--f-mem",
        type=float,
        default=None,
        help="memory-stall fraction of the largest scale model (prompted "
        "only when a cliff is detected)",
    )
    parser.add_argument(
        "--llc-mb-per-sm",
        type=float,
        default=34.0 / 128.0,
        help="LLC capacity per SM in MB (default: the paper's 34 MB / 128 SMs)",
    )
    parser.add_argument("--plot", action="store_true", help="ASCII plot of the methods")
    return parser


def _prompt_float(label: str) -> float:
    value = input(f"{label}: ").strip()
    return float(value)


def run(args: argparse.Namespace, out=None) -> int:
    out = sys.stdout if out is None else out  # whatever stdout is now
    if len(args.mpki) < 3:
        raise PredictionError(
            "need MPKI for at least the two scale models and one target"
        )
    if args.small_sms is None:
        args.small_sms = int(_prompt_float("Number of SMs of the smallest scale model"))
    if args.small_sms < 1:
        raise PredictionError("smallest scale model must have >= 1 SMs")

    sizes = [args.small_sms * (1 << i) for i in range(len(args.mpki))]
    capacities = [int(n * args.llc_mb_per_sm * MB) for n in sizes]
    curve = MissRateCurve(
        workload="cli",
        capacities_bytes=tuple(capacities),
        mpki=tuple(args.mpki),
    )
    analysis = analyze_regions(curve)
    f_mem: Optional[float] = args.f_mem
    if analysis.has_cliff and f_mem is None:
        f_mem = _prompt_float(
            "Cliff detected; fraction of time the largest scale model "
            "stalls on memory (f_mem)"
        )
    profile = ScaleModelProfile(
        workload="cli",
        sizes=(sizes[0], sizes[1]),
        ipcs=(args.ipc_small, args.ipc_large),
        f_mem=f_mem,
        curve=curve,
    )
    predictor = ScaleModelPredictor(profile)
    targets = sizes[2:]

    print(f"Measured IPC: {sizes[0]} SMs = {args.ipc_small:.1f}, "
          f"{sizes[1]} SMs = {args.ipc_large:.1f}", file=out)
    print(f"Correction factor C (Eq. 1): {profile.correction_factor():.3f}", file=out)
    if analysis.has_cliff:
        low, high = analysis.cliff_capacities
        print(
            f"Cliff detected between {low / MB:.2f} MB and {high / MB:.2f} MB",
            file=out,
        )
    else:
        print("No cliff detected (pre-cliff regime everywhere)", file=out)

    baselines = {
        name: make_predictor(name).fit(profile.sizes, profile.ipcs)
        for name in METHOD_NAMES
        if name != "scale-model"
    }
    header = f"{'#SMs':>6} {'scale-model':>12} " + " ".join(
        f"{name:>12}" for name in baselines
    )
    print(header, file=out)
    rows: List[List[float]] = []
    for target in targets:
        result = predictor.predict(target)
        row = [result.ipc] + [b.predict(target) for b in baselines.values()]
        rows.append(row)
        cells = " ".join(f"{v:12.1f}" for v in row)
        print(f"{target:>6} {cells}  [{result.region.value}]", file=out)

    if args.plot:
        from repro.analysis.ascii_plot import plot_series

        series = {"scale-model": [r[0] for r in rows]}
        for i, name in enumerate(baselines):
            series[name] = [r[i + 1] for r in rows]
        print(plot_series([float(t) for t in targets], series,
                          title="Predicted IPC vs system size",
                          x_label="#SMs"), file=out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
