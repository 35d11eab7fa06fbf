#!/usr/bin/env python3
"""Chaos/soak harness: run small campaigns under seeded fault schedules.

Each trial builds a fresh result store, arms a randomized-but-seeded
``REPRO_FAULT_INJECT`` plan (run faults plus filesystem faults at the
store write seam), executes a small simulation matrix with
``keep_going``, clears the faults, drains whatever the failed flushes
kept pending, reruns the campaign to completion, and then asserts the
resilience invariants this repository promises:

1. **No completed result is lost** — every run the report counted ``ok``
   is present in a fresh load of the store, even when the flush that
   should have persisted it hit an injected ``ENOSPC``/partial write.
2. **Cache shards stay parseable** — the fresh load itself is the check:
   a torn append may cost one corrupt *line* (quarantined + salvaged),
   never a crash and never a neighbouring record.
3. **Every failure has a manifest entry** — each ``failed``/``timeout``/
   ``oom`` outcome appears in ``failures/<shard>.jsonl`` with its key.
4. **A resumed campaign converges** — after the faults clear, a rerun
   over the same store completes every run and the final payloads are
   bit-identical (``wall_time_s``, a host-time measurement, excluded)
   to a never-faulted reference campaign.
5. **Golden-ledger integrity** — the clean reference campaign is pinned
   into an ad-hoc golden ledger (``repro.verify.golden``) and the
   post-chaos store must pass the same digest audit CI's golden gate
   runs: fault schedules may cost retries, never silent corruption.

Seeded: ``--seed`` fixes the whole schedule, so a CI failure reproduces
locally with the same flags.  ``--quick`` (CI) runs 2 trials; the
default is 5.  Exits 0 when every invariant holds, 1 with diagnostics
otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tempfile

from repro.analysis.faults import (
    FAULT_INJECT_ENV,
    OK,
    ExecutionPolicy,
    reset_io_faults,
)
from repro.analysis.parallel import ParallelRunner, RunRequest
from repro.analysis.simcache import ResultStore
from repro.resilience import reset_disk_guard
from repro.verify.golden import audit_store, pin_store
from repro.workloads import STRONG_SCALING

# Two cheap multi-kernel workloads at a reduced work scale keep one
# trial under ~10 s while still crossing kernel boundaries.
ABBRS = ("va", "btree")
SIZE = 8
WORK_SCALE = 0.25
SEEDS = (0, 1)


def matrix() -> list:
    return [
        RunRequest("sim", STRONG_SCALING[abbr], size=SIZE,
                   work_scale=WORK_SCALE, seed=seed)
        for abbr in ABBRS
        for seed in SEEDS
    ]


def fault_plan(rng: random.Random) -> str:
    """One seeded schedule: 1-3 directives over runs and write seams.

    Manifest/trace/metrics seams are deliberately not broken here — the
    "every failure has a manifest entry" invariant needs the manifest
    writable (dedicated tests cover those seams degrading gracefully).
    """
    candidates = [
        f"fail:sim|{rng.choice(ABBRS)}:1",       # fails once, retry wins
        f"fail:sim|{rng.choice(ABBRS)}",         # terminal failure
        "enospc:store:1",                        # one flush hits ENOSPC
        "partial-write:store:1",                 # one flush tears a line
        "slow-io:store:0.01",                    # every flush is slow
    ]
    return ",".join(rng.sample(candidates, rng.randint(1, 3)))


def stripped(payload: dict) -> dict:
    record = dict(payload)
    record.pop("wall_time_s", None)
    return record


def run_campaign(root: str, jobs: int, plan: str = "") -> tuple:
    """One campaign over the matrix; returns (report, store stats)."""
    reset_io_faults()
    reset_disk_guard()
    if plan:
        os.environ[FAULT_INJECT_ENV] = plan
    else:
        os.environ.pop(FAULT_INJECT_ENV, None)
    store = ResultStore(os.path.join(root, "simcache"))
    runner = ParallelRunner(
        store, jobs=jobs,
        policy=ExecutionPolicy(max_retries=1, keep_going=True),
    )
    try:
        report = runner.run_batch_report(matrix())
    finally:
        os.environ.pop(FAULT_INJECT_ENV, None)
        reset_io_faults()
        # Drain what a faulted flush kept pending: the guard re-checks
        # (interval 0) and the disk is genuinely fine again.
        reset_disk_guard()
        store.flush()
    return report, store.stats()


def manifest_keys(root: str) -> set:
    keys = set()
    failures = os.path.join(root, "failures")
    if not os.path.isdir(failures):
        return keys
    for fname in sorted(os.listdir(failures)):
        if not fname.endswith(".jsonl"):
            continue
        with open(os.path.join(failures, fname)) as fh:
            for line in fh:
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn trailing line: tolerated by contract
                if isinstance(record, dict) and record.get("status") != OK:
                    keys.add(record.get("key"))
    return keys


def run_trial(
    trial: int, rng: random.Random, reference: dict, ledger: dict
) -> list:
    """One chaos trial; returns a list of invariant violations."""
    problems = []
    root = tempfile.mkdtemp(prefix=f"chaos-soak-{trial}-")
    plan = fault_plan(rng)
    jobs = rng.choice((1, 2))
    print(f"[trial {trial}] jobs={jobs} plan={plan}")
    try:
        report, _ = run_campaign(root, jobs, plan)
        # 1 + 2: fresh load (parse check) and no completed result lost.
        reloaded = ResultStore(os.path.join(root, "simcache"))
        for outcome in report.outcomes:
            if outcome.status == OK and not reloaded.contains(outcome.key):
                problems.append(
                    f"trial {trial}: completed result {outcome.key} "
                    "missing from the reloaded store"
                )
        # 3: every run that did not complete is in the manifest (a
        # skipped one through the records that tripped its breaker).
        recorded = manifest_keys(root)
        for outcome in report.failures:
            if outcome.key not in recorded:
                problems.append(
                    f"trial {trial}: {outcome.status} run {outcome.key} "
                    "has no failure-manifest entry"
                )
        # 4: the resumed campaign completes and converges.
        resumed, _ = run_campaign(root, jobs)
        bad = [o for o in resumed.outcomes if o.status != OK]
        if bad:
            problems.append(
                f"trial {trial}: resumed campaign left "
                f"{len(bad)} unfinished runs ({resumed.summary()})"
            )
        final = ResultStore(os.path.join(root, "simcache"))
        for request in matrix():
            payload = final._entries.get(request.key)
            if payload is None:
                problems.append(
                    f"trial {trial}: resumed store is missing {request.key}"
                )
            elif stripped(payload) != reference[request.key]:
                problems.append(
                    f"trial {trial}: resumed payload for {request.key} "
                    "diverges from the clean reference"
                )
        # 5: golden-ledger integrity — every converged payload must
        # digest identically to the clean reference's pin.  This is the
        # same audit the CI golden gate runs, aimed at a store that
        # lived through injected ENOSPC/torn writes/crashes.
        audit = audit_store(ledger, final)
        if not audit.ok:
            problems.append(
                f"trial {trial}: golden audit after faults failed "
                f"({audit.summary()})"
            )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1234,
                        help="fixes the whole fault schedule")
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: 2 trials")
    args = parser.parse_args(argv)
    trials = 2 if args.quick else args.trials
    # fsync durability is exercised by dedicated tests; here it only
    # slows the soak down.
    os.environ.setdefault("REPRO_NO_FSYNC", "1")
    # Interval 0: the disk guard re-checks on every call, so the forced
    # low state after an injected ENOSPC clears on the next flush.
    os.environ["REPRO_DISK_CHECK_INTERVAL"] = "0"

    ref_root = tempfile.mkdtemp(prefix="chaos-soak-ref-")
    try:
        reference_report, _ = run_campaign(ref_root, jobs=1)
        if reference_report.executed != len(matrix()):
            print("FAIL: clean reference campaign did not complete",
                  file=sys.stderr)
            return 1
        ref_store = ResultStore(os.path.join(ref_root, "simcache"))
        reference = {
            request.key: stripped(ref_store._entries[request.key])
            for request in matrix()
        }
        ledger = pin_store(
            ref_store,
            [request.key for request in matrix()],
            reason="chaos-soak clean reference campaign",
        )
    finally:
        shutil.rmtree(ref_root, ignore_errors=True)

    rng = random.Random(args.seed)
    problems = []
    for trial in range(trials):
        problems.extend(run_trial(trial, rng, reference, ledger))
    if problems:
        print(f"chaos soak: {len(problems)} invariant violation(s) over "
              f"{trials} trials (seed {args.seed})", file=sys.stderr)
        return 1
    print(f"chaos soak: all invariants held over {trials} trials "
          f"(seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
