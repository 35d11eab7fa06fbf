#!/usr/bin/env python3
"""Bounded seeded fuzz sweep for CI: random workloads through the
verify oracles (paranoia run, determinism differential, checked-vs-plain
replay), with greedy shrinking of anything that fails.

  python scripts/fuzz_verify.py                  # default seed range
  python scripts/fuzz_verify.py --seeds 0:64
  python scripts/fuzz_verify.py --seeds 7,11,13 --time-budget 30

Everything is deterministic per seed, so a red case reproduces from the
one number printed in the report.  Exit 0 when every case survives,
1 otherwise (shrunk failing cases listed), 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import sys

from repro.resilience import apply_memory_limit, install_shutdown_handlers
from repro.verify.fuzz import run_fuzz

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_ERROR = 2

#: CI default: fixed, small, fast (~seconds per case on one core).
DEFAULT_SEEDS = "0:24"


def parse_seeds(text: str):
    """``a:b`` (half-open range) or ``s1,s2,...`` (explicit list)."""
    text = text.strip()
    if ":" in text:
        lo, _, hi = text.partition(":")
        start, stop = int(lo), int(hi)
        if stop <= start:
            raise ValueError(f"empty seed range {text!r}")
        return range(start, stop)
    return [int(part) for part in text.split(",") if part.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default=DEFAULT_SEEDS,
                        help="seed range 'a:b' or list 's1,s2,...' "
                             "(default: %(default)s)")
    parser.add_argument("--time-budget", type=float, default=120.0,
                        help="stop starting new cases after this many "
                             "seconds (default %(default)s; 0 = "
                             "unlimited)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report the raw failing case instead of "
                             "shrinking it (faster on red)")
    args = parser.parse_args(argv)

    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as error:
        print(f"error: bad --seeds: {error}", file=sys.stderr)
        return EXIT_ERROR

    install_shutdown_handlers().reset()
    apply_memory_limit()

    budget = args.time_budget if args.time_budget > 0 else None
    report = run_fuzz(
        seeds, time_budget_s=budget, shrink_failures=not args.no_shrink
    )
    skipped = len(seeds) - report.cases_run
    print(
        f"fuzz: {report.cases_run} case(s) in {report.elapsed_s:.1f}s, "
        f"{len(report.failures)} failure(s)"
        + (f", {skipped} seed(s) unrun (time budget)" if skipped else "")
    )
    if report.failures:
        for failure in report.failures:
            print(f"\nFAIL seed {failure.case.seed}: {failure.error}",
                  file=sys.stderr)
            print(f"  original: {failure.case.describe()}",
                  file=sys.stderr)
            print(f"  shrunk:   {failure.shrunk.describe()}",
                  file=sys.stderr)
        print(
            f"\nreproduce any case with its seed, e.g.:\n"
            f"  PYTHONPATH=src python -c \"from repro.verify.fuzz import "
            f"*; print(check_case(random_case("
            f"{report.failures[0].case.seed})))\"",
            file=sys.stderr,
        )
        return EXIT_FAILURES
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
