#!/usr/bin/env python3
"""Audit (or re-bless) the golden-result ledger for the quick tier.

Default mode recomputes every quick-tier run into a fresh temporary
cache and audits the payload digests against
``results/golden/ledger.json``:

  python scripts/verify_golden.py --check --jobs 4

Exit 0 when every digest matches; exit 1 listing each drifted or
absent entry otherwise.  Because the shipped ledger was blessed from a
serial run, a ``--jobs N`` audit doubles as the serial-vs-parallel
differential: scheduling-dependent nondeterminism shows up as drift.

Intentional model changes are re-blessed explicitly — never silently:

  python scripts/verify_golden.py --bless --reason "Eq.3 cliff fix"

Run either mode under ``REPRO_VERIFY=1`` (or with ``--verify``) and the
recomputation is also a full paranoia sweep of the tier.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile

from repro.analysis.faults import ExecutionPolicy
from repro.analysis.runner import CachedRunner
from repro.exceptions import ReproError
from repro.obs import bootstrap
from repro.resilience import apply_memory_limit, install_shutdown_handlers
from repro.verify.golden import (
    DEFAULT_LEDGER_PATH,
    audit_store,
    build_ledger,
    golden_tier,
    load_ledger,
    save_ledger,
)
from repro.verify.runtime import arm_from_flag

EXIT_OK = 0
EXIT_DRIFT = 1
EXIT_ERROR = 2


def _make_runner(cache_dir: str, jobs: int) -> CachedRunner:
    return CachedRunner(
        os.path.join(cache_dir, "simcache"),
        jobs=jobs,
        policy=ExecutionPolicy(),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="recompute the tier and audit against the "
                           "ledger (the default)")
    mode.add_argument("--bless", action="store_true",
                      help="recompute the tier and overwrite the ledger; "
                           "requires --reason")
    parser.add_argument("--reason", default=None,
                        help="why the ledger is being re-blessed "
                             "(recorded in the ledger; required with "
                             "--bless)")
    parser.add_argument("--ledger", default=DEFAULT_LEDGER_PATH,
                        help="ledger path (default: %(default)s)")
    parser.add_argument("--tier", choices=("quick", "full"),
                        default="quick",
                        help="golden tier to pin (default quick)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the recomputation "
                             "(default 1; --jobs 4 against a serially "
                             "blessed ledger is the serial-vs-parallel "
                             "differential)")
    parser.add_argument("--cache-dir", default=None,
                        help="recomputation cache (default: fresh temp "
                             "dir, removed afterwards — audits must not "
                             "be served from stale results)")
    parser.add_argument("--verify", action="store_true",
                        help="paranoia mode during the recomputation "
                             "(equivalent to REPRO_VERIFY=1)")
    args = parser.parse_args(argv)

    if args.bless and not args.reason:
        parser.error("--bless requires --reason (say why the results "
                     "are allowed to change)")

    bootstrap(None, None, None)
    install_shutdown_handlers().reset()
    apply_memory_limit()
    arm_from_flag(args.verify)

    tier = golden_tier(args.tier)
    cache_dir = args.cache_dir
    temp_cache = cache_dir is None
    if temp_cache:
        cache_dir = tempfile.mkdtemp(prefix="repro-golden-")
    try:
        runner = _make_runner(cache_dir, args.jobs)
        if args.bless:
            document = build_ledger(tier, runner, args.reason)
            runner.flush()
            save_ledger(document, args.ledger)
            print(
                f"blessed {args.ledger}: {len(document['entries'])} "
                f"entries ({tier.name} tier, seed {tier.seed}) — "
                f"reason: {args.reason}"
            )
            return EXIT_OK

        ledger = load_ledger(args.ledger)
        if ledger.get("tier") != tier.name:
            raise ReproError(
                f"ledger pins the {ledger.get('tier')!r} tier but "
                f"--tier {tier.name} was requested; re-bless or pick "
                "the matching tier"
            )
        # Recompute through build_ledger's own run loop so audit and
        # bless exercise identical execution paths, then diff digests.
        build_ledger(tier, runner, reason="(audit recomputation)")
        runner.flush()
        report = audit_store(ledger, runner.store)
        print(report.summary())
        if report.drifted:
            print("drifted entries (expected != recomputed):",
                  file=sys.stderr)
            for key, expected, actual in report.drifted:
                print(f"  - {key}: {expected} != {actual}",
                      file=sys.stderr)
        if report.absent:
            print("absent entries (in ledger, never recomputed):",
                  file=sys.stderr)
            for key in report.absent:
                print(f"  - {key}", file=sys.stderr)
        if not report.ok:
            print(
                "golden audit FAILED — if the change is intentional, "
                "re-bless with --bless --reason '...'", file=sys.stderr,
            )
            return EXIT_DRIFT
        print(f"golden audit ok vs {args.ledger} "
              f"(blessed {ledger.get('blessed_at')}: "
              f"{ledger.get('reason')})")
        return EXIT_OK
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if temp_cache:
            shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
