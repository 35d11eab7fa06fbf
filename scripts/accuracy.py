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
from repro.analysis.experiments import RunnerStudy
from repro.core import METHOD_NAMES
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
    plans = [RunnerStudy(STRONG_SCALING[abbr], scales, targets) for abbr in names]
    try:
        runner.prefetch([run for plan in plans for run in plan.requests()])
        for plan in plans:
            spec = plan.spec
            try:
                study = plan.run(runner)
            except ReproError as error:
                if not args.keep_going:
                    raise
                failed.append(spec.abbr)
                print(f"{spec.abbr:6s} [skipped: {error}]")
                continue
            row = [f"{spec.abbr:6s} [{spec.scaling.value:12s}]"]
            for t in targets:
                errs = {m: study.errors(m)[t] for m in METHOD_NAMES}
                for m in METHOD_NAMES:
                    per_method[m].append(errs[m])
                row.append(
                    f"T{t}: " + " ".join(f"{m[:4]}={100*errs[m]:5.1f}%" for m in METHOD_NAMES)
                )
            region = study.scale_model[targets[-1]].region.value
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
