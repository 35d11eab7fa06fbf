"""The zoo campaign driver: generated workloads through the cached runner.

A campaign draws a stratified batch of generated specs and runs every
one as a :class:`~repro.analysis.experiments.RunnerStudy` — the
Figure-3 flow the paper's figures use, with the plan's ``work_scale``
and ``seed`` — through a :class:`~repro.analysis.runner.CachedRunner`
(parallel prefetch, retries and breakers come for free),
then asks two questions per workload:

* what scaling regime did the detailed simulation *measure*
  (:func:`~repro.analysis.classify.classify_scaling` over the IPC/size
  profile), versus the regime the grammar template *intended*; and
* how close did the scale-model prediction land — an IPC profile at the
  small ``scales`` predicting the ``target`` size, scored against the
  detailed simulation at that size.

The answers are distilled into a schema-versioned artifact: per-measured-
regime MAPE, an intended-versus-measured confusion matrix, coverage
stats over regimes and generator families, and enough payload per
workload to re-realize it bit for bit.  Per-spec failures are recorded
as casualties, not fatal — a generated corpus is allowed to contain a
workload the engine rejects, and the artifact says so.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.classify import classify_scaling
from repro.analysis.experiments import RunnerStudy
from repro.analysis.runner import CachedRunner
from repro.campaign import CampaignBudget, CampaignJournal, run_units
from repro.core.accuracy import prediction_error_pct
from repro.exceptions import (
    CampaignIncomplete,
    ReproError,
    ShutdownRequested,
    WorkloadError,
)
from repro.workloads.generators import TRACE_CONTRACT
from repro.zoo.grammar import GeneratedSpec
from repro.zoo.sample import REGIMES, sample_batch

__all__ = [
    "ZOO_ARTIFACT_KIND",
    "ZOO_SCHEMA_VERSION",
    "CampaignPlan",
    "plan_payload",
    "run_campaign",
    "validate_campaign_artifact",
]

ZOO_SCHEMA_VERSION = 1
ZOO_ARTIFACT_KIND = "repro-zoo-campaign"


@dataclass(frozen=True)
class CampaignPlan:
    """What to generate and where to sweep it.

    ``scales`` are the sizes the scale model profiles at; ``target`` is
    the size it predicts (and the detailed engine verifies).  The
    measured regime is classified over the full ``sizes`` profile.
    """

    n: int = 12
    seed: int = 0
    scales: Tuple[int, ...] = (8, 16)
    target: int = 32
    work_scale: float = 1.0
    sample_scale: float = 1.0
    regimes: Tuple[str, ...] = REGIMES

    def __post_init__(self) -> None:
        if self.n < 1:
            raise WorkloadError(f"plan.n: must be >= 1, got {self.n}")
        if len(self.scales) < 2:
            raise WorkloadError(
                f"plan.scales: need >= 2 profile sizes, got {list(self.scales)}"
            )
        if any(s < 1 for s in self.scales) or self.target < 1:
            raise WorkloadError("plan sizes must be positive SM counts")
        if self.target in self.scales:
            raise WorkloadError(
                f"plan.target: {self.target} already in scales "
                f"{list(self.scales)} — nothing to predict"
            )
        if self.work_scale <= 0:
            raise WorkloadError(
                f"plan.work_scale: must be positive, got {self.work_scale}"
            )

    @property
    def sizes(self) -> Tuple[int, ...]:
        """All sizes swept, ascending."""
        return tuple(sorted((*self.scales, self.target)))


def plan_payload(plan: CampaignPlan) -> dict:
    """The plan as JSON — both the artifact ``plan`` block and the
    payload the campaign journal's sealed header binds its digest to.
    ``trace_contract`` names the generators the results come from, so a
    journal sealed under another contract is never resumed."""
    return {
        "trace_contract": TRACE_CONTRACT,
        "n": plan.n,
        "seed": plan.seed,
        "scales": list(plan.scales),
        "target": plan.target,
        "work_scale": plan.work_scale,
        "sample_scale": plan.sample_scale,
        "regimes": list(plan.regimes),
    }


def _study(plan: CampaignPlan, spec: GeneratedSpec) -> RunnerStudy:
    """One workload of the plan as a Figure-3 study.  The record reports
    the scale-model method alone, so the baselines are not fitted."""
    return RunnerStudy(
        spec,
        plan.scales,
        (plan.target,),
        work_scale=plan.work_scale,
        seed=plan.seed,
        methods=("scale-model",),
    )


def _measure(
    plan: CampaignPlan, runner: CachedRunner, spec: GeneratedSpec
) -> dict:
    """Sweep, classify and score one generated workload."""
    study = _study(plan, spec).run(runner)
    ipcs = {size: study.results[size].ipc for size in plan.sizes}
    predicted = study.predictions["scale-model"][plan.target]
    actual = study.actuals[plan.target]
    return {
        "abbr": spec.abbr,
        "digest": spec.digest,
        "intent": spec.intent,
        "measured": classify_scaling(list(ipcs.values()), plan.sizes).value,
        "families": sorted({phase.family for phase in spec.phases}),
        "phases": len(spec.phases),
        "ipcs": {str(size): ipc for size, ipc in ipcs.items()},
        "predicted_ipc": predicted,
        "actual_ipc": actual,
        "ape_pct": prediction_error_pct(predicted, actual),
        "payload": spec.payload(),
    }


def _regime_stats(records: Sequence[dict]) -> Dict[str, dict]:
    apes: Dict[str, List[float]] = {}
    for record in records:
        apes.setdefault(record["measured"], []).append(record["ape_pct"])
    return {
        regime: {
            "mape_pct": sum(values) / len(values),
            "max_ape_pct": max(values),
            "count": len(values),
        }
        for regime, values in sorted(apes.items())
    }


def _confusion(records: Sequence[dict]) -> Dict[str, Dict[str, int]]:
    """Intended-versus-measured counts, every regime key present."""
    matrix = {
        intended: {measured: 0 for measured in REGIMES} for intended in REGIMES
    }
    for record in records:
        matrix[record["intent"]][record["measured"]] += 1
    return matrix


def _coverage(
    specs: Sequence[GeneratedSpec], records: Sequence[dict]
) -> dict:
    intended: Dict[str, int] = {regime: 0 for regime in REGIMES}
    measured: Dict[str, int] = {regime: 0 for regime in REGIMES}
    families: Dict[str, int] = {}
    for spec in specs:
        intended[spec.intent] += 1
        for phase in spec.phases:
            families[phase.family] = families.get(phase.family, 0) + 1
    for record in records:
        measured[record["measured"]] += 1
    return {
        "intended": intended,
        "measured": measured,
        "families": dict(sorted(families.items())),
        "multi_phase": sum(1 for spec in specs if len(spec.phases) > 1),
    }


def run_campaign(
    plan: CampaignPlan,
    runner: CachedRunner,
    log: Optional[Callable[[str], None]] = None,
    journal: Optional[CampaignJournal] = None,
    budget: Optional[CampaignBudget] = None,
) -> dict:
    """Execute ``plan`` through ``runner``; return the campaign artifact.

    Per-workload failures are recorded in the artifact's ``failures``
    list and excluded from the accuracy statistics — a generated corpus
    is allowed to contain workloads the engine rejects.

    With a ``journal``, every workload outcome is sealed durably as it
    lands and already-sealed workloads are reused instead of
    re-simulated, so a crashed or budget-stopped campaign resumes where
    it died and converges to the uninterrupted artifact (modulo the
    scrubbed wall-time fields).  A drain (SIGINT/SIGTERM) or ``budget``
    stop yields the same artifact shape plus a ``partial`` block; the
    statistics then cover exactly the completed prefix.

    Raises :class:`~repro.exceptions.CampaignIncomplete` when a stop
    left *zero* usable workloads (nothing to write — resume instead),
    and :class:`~repro.exceptions.ReproError` when a full sweep produced
    only failures.
    """
    say = log or (lambda message: None)
    specs = sample_batch(
        plan.n, plan.seed, regimes=plan.regimes, scale=plan.sample_scale
    )
    by_unit = {spec.digest: spec for spec in specs}
    units = [spec.digest for spec in specs]
    say(
        f"zoo campaign: {len(specs)} generated workloads x sizes "
        f"{list(plan.sizes)} (seed {plan.seed})"
    )
    start = time.perf_counter()
    # Prefetch only what this invocation may actually execute: workloads
    # the journal has not sealed, within the workload cap.
    allowed = units
    if budget is not None and budget.max_workloads is not None:
        allowed = units[: budget.max_workloads]
    sealed = journal.completed if journal is not None else {}
    pending = [by_unit[unit] for unit in allowed if unit not in sealed]
    try:
        runner.prefetch(
            [run for spec in pending for run in _study(plan, spec).requests()]
        )
    except ShutdownRequested:
        # Drain arrived mid-prefetch.  Completed runs are already merged
        # into the cache store (the parallel layer guarantees that), and
        # the coordinator stays tripped, so the unit loop below stops at
        # the first unsealed workload and we finalize a partial artifact.
        pass

    def execute(unit: str) -> Tuple[str, dict]:
        spec = by_unit[unit]
        try:
            record = _measure(plan, runner, spec)
        except ReproError as error:
            say(f"  {spec.abbr} [{spec.intent}] FAILED: {error}")
            return "failed", {
                "abbr": spec.abbr,
                "intent": spec.intent,
                "error": str(error),
            }
        say(
            f"  {record['abbr']} intent={record['intent']} "
            f"measured={record['measured']} ape={record['ape_pct']:.2f}%"
        )
        return "ok", record

    summary = run_units(
        units, execute, journal=journal, budget=budget, log=say
    )
    runner.flush()
    wall = time.perf_counter() - start
    records = [o.record for o in summary.outcomes if o.status == "ok"]
    failures = [o.record for o in summary.outcomes if o.status == "failed"]
    specs_done = [by_unit[o.unit] for o in summary.outcomes]
    if not records:
        if summary.partial:
            raise CampaignIncomplete(
                f"zoo campaign stopped ({summary.stopped}) before any "
                "workload completed; rerun the same plan to resume",
                reason=summary.stopped or "interrupted",
            )
        raise ReproError(
            f"zoo campaign produced no usable workloads "
            f"({len(failures)} failures)"
        )
    matches = sum(1 for r in records if r["intent"] == r["measured"])
    apes = [r["ape_pct"] for r in records]
    artifact = {
        "schema_version": ZOO_SCHEMA_VERSION,
        "kind": ZOO_ARTIFACT_KIND,
        "created_unix": time.time(),
        "plan": plan_payload(plan),
        "workloads": records,
        "failures": failures,
        "regimes": _regime_stats(records),
        "confusion": _confusion(records),
        "coverage": _coverage(specs_done, records),
        "accuracy": {
            "mape_pct": sum(apes) / len(apes),
            "max_ape_pct": max(apes),
            "regime_match_rate": matches / len(records),
            "count": len(records),
        },
        "campaign": {
            "wall_s": wall,
            "runs": sum(
                len(_study(plan, spec).requests()) for spec in specs_done
            ),
            "workloads": len(specs_done),
            "failed": len(failures),
            "workloads_per_sec": len(records) / wall if wall > 0 else 0.0,
        },
    }
    if summary.partial:
        # Only partial artifacts carry this block: a resumed run that
        # finishes the plan is indistinguishable from an uninterrupted
        # one (resume telemetry goes to the log and journal instead).
        artifact["partial"] = {
            "reason": summary.stopped,
            "signum": summary.signum,
            "completed": summary.completed,
            "planned": len(units),
            "remaining": len(summary.remaining),
        }
    return artifact


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_numbers(
    problems: List[str], where: str, block: Mapping, required: Sequence[str]
) -> None:
    for key in required:
        if key not in block:
            problems.append(f"{where}: missing {key!r}")
        elif not _is_number(block[key]):
            problems.append(f"{where}.{key}: expected a number")


_RECORD_NUMBERS = ("predicted_ipc", "actual_ipc", "ape_pct")
_RECORD_STRINGS = ("abbr", "digest", "intent", "measured")


def validate_campaign_artifact(document: object) -> List[str]:
    """Structural validation; returns a list of problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["artifact: expected a JSON object"]
    if document.get("kind") != ZOO_ARTIFACT_KIND:
        problems.append(
            f"kind: expected {ZOO_ARTIFACT_KIND!r}, got {document.get('kind')!r}"
        )
    if document.get("schema_version") != ZOO_SCHEMA_VERSION:
        problems.append(
            f"schema_version: expected {ZOO_SCHEMA_VERSION}, "
            f"got {document.get('schema_version')!r}"
        )
    plan = document.get("plan")
    if not isinstance(plan, dict):
        problems.append("plan: missing or not an object")
    else:
        _check_numbers(problems, "plan", plan, ("n", "seed", "target"))
        if not isinstance(plan.get("scales"), list) or not plan.get("scales"):
            problems.append("plan.scales: expected a non-empty list")

    workloads = document.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        problems.append("workloads: expected a non-empty list")
        workloads = []
    for i, record in enumerate(workloads):
        where = f"workloads[{i}]"
        if not isinstance(record, dict):
            problems.append(f"{where}: expected an object")
            continue
        for key in _RECORD_STRINGS:
            if not isinstance(record.get(key), str) or not record.get(key):
                problems.append(f"{where}.{key}: expected a non-empty string")
        _check_numbers(problems, where, record, _RECORD_NUMBERS)
        if record.get("intent") not in REGIMES:
            problems.append(f"{where}.intent: unknown regime")
        if record.get("measured") not in REGIMES:
            problems.append(f"{where}.measured: unknown regime")
        if not isinstance(record.get("payload"), dict):
            problems.append(f"{where}.payload: expected an object")

    regimes = document.get("regimes")
    if not isinstance(regimes, dict) or not regimes:
        problems.append("regimes: expected a non-empty object")
    else:
        for regime, block in regimes.items():
            if regime not in REGIMES:
                problems.append(f"regimes.{regime}: unknown regime")
            if not isinstance(block, dict):
                problems.append(f"regimes.{regime}: expected an object")
                continue
            _check_numbers(
                problems,
                f"regimes.{regime}",
                block,
                ("mape_pct", "max_ape_pct", "count"),
            )

    confusion = document.get("confusion")
    if not isinstance(confusion, dict):
        problems.append("confusion: missing or not an object")
    else:
        total = 0
        for intended in REGIMES:
            row = confusion.get(intended)
            if not isinstance(row, dict):
                problems.append(f"confusion.{intended}: missing row")
                continue
            for measured in REGIMES:
                cell = row.get(measured)
                if not isinstance(cell, int) or isinstance(cell, bool):
                    problems.append(
                        f"confusion.{intended}.{measured}: expected an int"
                    )
                else:
                    total += cell
        if workloads and not problems and total != len(workloads):
            problems.append(
                f"confusion: counts sum to {total}, "
                f"expected {len(workloads)} workloads"
            )

    for name, keys in (
        (
            "accuracy",
            ("mape_pct", "max_ape_pct", "regime_match_rate", "count"),
        ),
        ("campaign", ("wall_s", "runs", "workloads", "workloads_per_sec")),
    ):
        block = document.get(name)
        if not isinstance(block, dict):
            problems.append(f"{name}: missing or not an object")
        else:
            _check_numbers(problems, name, block, keys)

    coverage = document.get("coverage")
    if not isinstance(coverage, dict):
        problems.append("coverage: missing or not an object")
    else:
        for key in ("intended", "measured", "families"):
            if not isinstance(coverage.get(key), dict):
                problems.append(f"coverage.{key}: expected an object")

    if "partial" in document:
        partial = document["partial"]
        if not isinstance(partial, dict):
            problems.append("partial: expected an object")
        else:
            if not isinstance(partial.get("reason"), str) or not partial.get(
                "reason"
            ):
                problems.append("partial.reason: expected a non-empty string")
            _check_numbers(
                problems,
                "partial",
                partial,
                ("completed", "planned", "remaining"),
            )
    return problems
