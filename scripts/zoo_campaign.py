#!/usr/bin/env python3
"""Generative workload-zoo campaign: per-regime accuracy on generated specs.

Draws a seeded, stratified batch of grammar-generated workloads
(:mod:`repro.zoo`), sweeps each across system sizes through the cached
runner, classifies the measured scaling regime, scores the scale-model
prediction against the detailed engine at the target size, and writes a
schema-versioned campaign artifact with per-regime MAPE, the
intended-versus-measured regime-confusion matrix and coverage stats.
Re-running with the same seed reproduces the same spec digests bit for
bit.

The campaign is journaled (:mod:`repro.campaign`): every workload
outcome is sealed durably under ``--journal-dir`` as it lands, so a
crash, kill, SIGTERM drain, or ``--max-wall``/``--max-workloads``
budget stop never discards completed work — re-running the same plan
resumes where it died and converges to the uninterrupted artifact.

Usage:
  python scripts/zoo_campaign.py --quick --seed 9          # CI-sized run
  python scripts/zoo_campaign.py --n 24 --seed 3 --jobs 8
  python scripts/zoo_campaign.py --n 200 --max-wall 3600   # budgeted slice
  python scripts/zoo_campaign.py --validate-only ZOO_CAMPAIGN.json
  python scripts/zoo_campaign.py --report-only ZOO_CAMPAIGN.json

Exit codes: 0 ok, 1 campaign unusable (no surviving workloads),
2 schema-invalid artifact or operator error, 75 interrupted/budget-
stopped but resumable (rerun the same command to continue), 128+signum
on a second, forcing signal.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

from repro.analysis.faults import ExecutionPolicy
from repro.analysis.runner import CachedRunner, default_jobs
from repro.campaign import CampaignBudget, CampaignJournal
from repro.exceptions import (
    CampaignError,
    CampaignIncomplete,
    ReproError,
    ShutdownRequested,
)
from repro.fsio import atomic_write_text
from repro.resilience import (
    EXIT_INTERRUPTED,
    apply_memory_limit,
    install_shutdown_handlers,
)
from repro.zoo import (
    CampaignPlan,
    plan_payload,
    render_campaign,
    run_campaign,
    validate_campaign_artifact,
)
from repro.zoo.campaign import ZOO_ARTIFACT_KIND

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2

#: The --quick preset: a CI-sized stratified mini-campaign.
_QUICK_N = 12

#: Default home for campaign progress journals.
_JOURNAL_DIR = os.path.join("results", "campaigns")


def _load_artifact(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _validate(path: str, document: dict) -> bool:
    problems = validate_campaign_artifact(document)
    if problems:
        print(f"{path}: artifact is not schema-valid:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return False
    return True


def _write_artifact(path: str, document: dict) -> None:
    out_dir = os.path.dirname(path)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    atomic_write_text(
        path, json.dumps(document, indent=2, sort_keys=True) + "\n"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=24,
                        help="generated workloads to draw, dealt round-robin "
                             "across the regimes (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed; fixes every spec digest and "
                             "simulation (default: %(default)s)")
    parser.add_argument("--quick", action="store_true",
                        help=f"CI preset: {_QUICK_N} workloads on the small "
                             "size sweep")
    parser.add_argument("--scales", type=int, nargs="+", default=[8, 16],
                        help="profile sizes the scale model fits at "
                             "(default: %(default)s)")
    parser.add_argument("--target", type=int, default=32,
                        help="size the model predicts and the engine "
                             "verifies (default: %(default)s)")
    parser.add_argument("--work-scale", type=float, default=1.0,
                        help="workload miniaturization factor "
                             "(default: %(default)s)")
    parser.add_argument("--sample-scale", type=float, default=1.0,
                        help="CTA-count cost knob for the sampler "
                             "(default: %(default)s)")
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker processes for the sweep (default 0 = "
                             "one per available core)")
    parser.add_argument("--out", default="ZOO_CAMPAIGN.json",
                        help="artifact path (default: %(default)s)")
    parser.add_argument("--cache-dir", default=None,
                        help="simulation cache directory (default: a fresh "
                             "temp dir, removed afterwards)")
    parser.add_argument("--journal-dir", default=_JOURNAL_DIR,
                        help="campaign journal root; completed workloads are "
                             "sealed here and reused on resume "
                             "(default: %(default)s)")
    parser.add_argument("--no-journal", action="store_true",
                        help="run without a progress journal (no resume; "
                             "a crash discards the whole campaign)")
    parser.add_argument("--no-resume", action="store_true",
                        help="discard any existing journal for this plan "
                             "and start the campaign from scratch")
    parser.add_argument("--max-wall", type=float, default=None, metavar="S",
                        help="wall-clock budget in seconds for this "
                             "invocation; on expiry the campaign stops at a "
                             "workload boundary with a resumable partial "
                             "artifact (exit 75)")
    parser.add_argument("--max-workloads", type=int, default=None, metavar="K",
                        help="cap on total completed workloads (journal-"
                             "reused ones included); exceeding it stops with "
                             "a resumable partial artifact (exit 75)")
    parser.add_argument("--validate-only", metavar="ARTIFACT", default=None,
                        help="schema-validate an existing artifact and exit "
                             "(no simulations run)")
    parser.add_argument("--report-only", metavar="ARTIFACT", default=None,
                        help="render an existing artifact's report and exit "
                             "(no simulations run)")
    args = parser.parse_args(argv)

    if args.validate_only:
        document = _load_artifact(args.validate_only)
        if not _validate(args.validate_only, document):
            return EXIT_INVALID
        accuracy = document["accuracy"]
        partial = document.get("partial")
        note = (
            f", PARTIAL: {partial['reason']}, "
            f"{partial['remaining']} workloads remaining" if partial else ""
        )
        print(
            f"{args.validate_only}: schema-valid "
            f"({accuracy['count']} workloads, "
            f"MAPE {accuracy['mape_pct']:.2f}%{note})"
        )
        return EXIT_OK

    if args.report_only:
        document = _load_artifact(args.report_only)
        if not _validate(args.report_only, document):
            return EXIT_INVALID
        print(render_campaign(document), end="")
        return EXIT_OK

    install_shutdown_handlers().reset()
    apply_memory_limit()

    plan = CampaignPlan(
        n=_QUICK_N if args.quick else args.n,
        seed=args.seed,
        scales=tuple(args.scales),
        target=args.target,
        work_scale=args.work_scale,
        sample_scale=args.sample_scale,
    )
    budget = CampaignBudget(
        max_wall_s=args.max_wall, max_workloads=args.max_workloads
    )
    journal = None
    if not args.no_journal:
        if args.no_resume:
            if CampaignJournal.discard(
                args.journal_dir, ZOO_ARTIFACT_KIND, plan_payload(plan)
            ):
                print("discarded existing journal for this plan")
        try:
            journal = CampaignJournal.open(
                args.journal_dir,
                ZOO_ARTIFACT_KIND,
                plan_payload(plan),
                created_unix=time.time(),
            )
        except CampaignError as error:
            print(f"journal error: {error}", file=sys.stderr)
            return EXIT_INVALID
        if journal.completed:
            counts = journal.statuses()
            print(
                f"journal {journal.digest}: {len(journal.completed)} "
                f"workload(s) already sealed ({counts['ok']} ok, "
                f"{counts['failed']} failed)"
            )

    jobs = args.jobs if args.jobs > 0 else default_jobs()
    cache_dir = args.cache_dir
    temp_cache = cache_dir is None
    if temp_cache:
        cache_dir = tempfile.mkdtemp(prefix="repro-zoo-")
    try:
        # keep_going: one pathological generated workload is a recorded
        # casualty (failure record + breaker), never the whole campaign.
        runner = CachedRunner(
            os.path.join(cache_dir, "simcache"),
            jobs=jobs,
            policy=ExecutionPolicy(keep_going=True),
        )
        try:
            document = run_campaign(
                plan, runner, log=print, journal=journal, budget=budget
            )
        except CampaignIncomplete as error:
            print(f"campaign interrupted: {error}", file=sys.stderr)
            return EXIT_INTERRUPTED
        except ShutdownRequested as error:
            print(f"campaign drained: {error}", file=sys.stderr)
            return EXIT_INTERRUPTED
        except ReproError as error:
            print(f"campaign failed: {error}", file=sys.stderr)
            return EXIT_FAILED
    finally:
        if temp_cache:
            shutil.rmtree(cache_dir, ignore_errors=True)

    if not _validate(args.out, document):
        return EXIT_INVALID
    _write_artifact(args.out, document)
    print(f"wrote {args.out}")
    print()
    print(render_campaign(document), end="")
    partial = document.get("partial")
    if partial:
        print(
            f"PARTIAL artifact ({partial['reason']}): "
            f"{partial['completed']} of {partial['planned']} workloads "
            f"completed; rerun the same command to resume"
        )
        return EXIT_INTERRUPTED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
