#!/usr/bin/env python3
"""Prediction-accuracy calibration: per-benchmark, per-method errors for
the strong-scaling scenario (the Figure 4 experiment), using the cached
runner so repeated invocations only re-simulate what changed.

Usage: python scripts/accuracy.py [abbr ...] [--targets 64,128]
                                  [--scales 8,16] [execution flags]

The execution flags (``--jobs``, ``--keep-going``, ``--no-cache``, ...)
are the group every campaign entry point shares; see
``repro.analysis.cli.add_execution_flags`` or ``scripts/README.md``.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.cli import add_execution_flags, build_runner
from repro.analysis.parallel import RunRequest
from repro.core import METHOD_NAMES, ScaleModelPredictor, ScaleModelProfile
from repro.core.baselines import make_predictor
from repro.exceptions import ReproError, ShutdownRequested
from repro.resilience import EXIT_FAILURES, EXIT_INTERRUPTED, EXIT_OK
from repro.workloads import STRONG_SCALING


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmarks", nargs="*")
    parser.add_argument("--targets", default="64,128")
    parser.add_argument("--scales", default="8,16")
    add_execution_flags(parser)
    args = parser.parse_args(argv)
    obs, _, runner = build_runner(args)
    names = args.benchmarks or list(STRONG_SCALING)
    targets = [int(t) for t in args.targets.split(",")]
    scales = [int(s) for s in args.scales.split(",")]

    per_method = {m: [] for m in METHOD_NAMES}
    failed = []
    interrupted = None
    try:
        runner.prefetch(
            [
                RunRequest("sim", STRONG_SCALING[abbr], size=n)
                for abbr in names
                for n in scales + targets
            ]
            + [RunRequest("mrc", STRONG_SCALING[abbr]) for abbr in names]
        )
        for abbr in names:
            spec = STRONG_SCALING[abbr]
            try:
                sims = {n: runner.simulate(spec, n) for n in scales + targets}
                curve = runner.miss_rate_curve(spec)
            except ReproError as error:
                if not args.keep_going:
                    raise
                failed.append(abbr)
                print(f"{abbr:6s} [skipped: {error}]")
                continue
            profile = ScaleModelProfile(
                workload=abbr,
                sizes=tuple(scales),
                ipcs=tuple(sims[n].ipc for n in scales),
                f_mem=sims[max(scales)].memory_stall_fraction,
                curve=curve,
            )
            predictor = ScaleModelPredictor(profile)
            row = [f"{abbr:6s} [{spec.scaling.value:12s}]"]
            for t in targets:
                actual = sims[t].ipc
                errs = {}
                for m in METHOD_NAMES:
                    if m == "scale-model":
                        pred = predictor.predict(t).ipc
                    else:
                        pred = make_predictor(m).fit(profile.sizes, profile.ipcs).predict(t)
                    errs[m] = abs(pred - actual) / actual
                    per_method[m].append(errs[m])
                row.append(
                    f"T{t}: " + " ".join(f"{m[:4]}={100*errs[m]:5.1f}%" for m in METHOD_NAMES)
                )
            region = predictor._region_of(targets[-1]).value if curve else "?"
            print("  ".join(row) + f"  region@{targets[-1]}={region}")
    except (ShutdownRequested, KeyboardInterrupt) as stop:
        interrupted = stop
        print(
            f"interrupted: {stop} — completed results are saved; rerun "
            f"the same command to resume (exit code {EXIT_INTERRUPTED})",
            file=sys.stderr,
        )

    scored = len(names) - len(failed)
    print("\n--- averages over", scored, "benchmarks x", len(targets), "targets")
    for m in METHOD_NAMES:
        errs = per_method[m]
        if not errs:
            continue
        print(f"{m:12s} avg={100*sum(errs)/len(errs):6.1f}%  max={100*max(errs):6.1f}%")
    runner.flush()
    print(runner.execution_health())
    obs.finalize(extra_metrics={"runner": runner.metrics})
    if interrupted is not None:
        return EXIT_INTERRUPTED
    if failed:
        print(f"completed with failures: {', '.join(failed)}", file=sys.stderr)
        return EXIT_FAILURES
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
