"""Resumable unit-by-unit campaign execution with budgets.

:func:`run_units` is the one loop every campaign driver (today the
zoo sweep) executes through.  It walks the plan's units **in plan
order**, and for each one either

* reuses the sealed outcome from the :class:`~repro.campaign.journal.
  CampaignJournal` (zero recomputation — the record in the journal *is*
  the measurement), or
* calls the driver's ``execute`` callback, then durably journals the
  outcome before moving on.

Because reuse preserves plan order and journaled records are fully
deterministic, a resumed campaign assembles the *same* outcome sequence
an uninterrupted run would — which is what makes artifacts converge
bit-identically once volatile wall-time fields are scrubbed
(:func:`scrub_artifact`).

The loop also owns the two graceful-stop paths:

* **drain** — ``ShutdownCoordinator.check()`` is polled at every unit
  boundary; a SIGINT/SIGTERM stops the sweep with everything sealed so
  far intact (the CLI then writes a partial artifact and exits 75);
* **budgets** — :class:`CampaignBudget` caps this invocation's wall
  clock (``--max-wall``) and the campaign's total completed unit count
  (``--max-workloads``).  ``max_workloads`` counts reused units too, so
  a budgeted run and its resumed continuation stop at the same place.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import ShutdownRequested
from repro.campaign.journal import CampaignJournal

__all__ = [
    "VOLATILE_ARTIFACT_FIELDS",
    "CampaignBudget",
    "UnitOutcome",
    "RuntimeSummary",
    "run_units",
    "scrub_artifact",
]

#: Artifact fields that legitimately differ between two runs of the same
#: plan (timestamps, wall-clock throughput, RSS).  Everything else must
#: converge bit-identically between an uninterrupted campaign and a
#: crashed-and-resumed one — that is the contract ``scripts/chaos.py
#: --target campaign`` enforces.
VOLATILE_ARTIFACT_FIELDS = frozenset(
    {
        "created_unix",
        "recorded_unix",
        "wall_s",
        "wall_time_s",
        "collection_seconds",
        "workloads_per_sec",
        "runs_per_sec",
        "cold_wall_s",
        "warm_wall_s",
        "peak_rss_mb",
        "baseline_rss_mb",
    }
)


def scrub_artifact(value, volatile=VOLATILE_ARTIFACT_FIELDS):
    """Recursively drop volatile fields, leaving the comparable core."""
    if isinstance(value, dict):
        return {
            key: scrub_artifact(item, volatile)
            for key, item in value.items()
            if key not in volatile
        }
    if isinstance(value, list):
        return [scrub_artifact(item, volatile) for item in value]
    return value


@dataclass(frozen=True)
class CampaignBudget:
    """Graceful stop-early limits for one campaign invocation.

    ``max_wall_s`` bounds *this process's* elapsed wall clock (a resumed
    invocation gets a fresh allowance — reused units are nearly free, so
    successive budgeted invocations ratchet the sweep forward).
    ``max_workloads`` bounds the campaign's **total** completed units,
    reused included, so the stopping point is a function of the plan,
    not of crash history.
    """

    max_wall_s: Optional[float] = None
    max_workloads: Optional[int] = None

    def exceeded(self, completed: int, elapsed_s: float) -> Optional[str]:
        """Return the stop reason, or None while within budget."""
        if self.max_workloads is not None and completed >= self.max_workloads:
            return "workload-budget"
        if self.max_wall_s is not None and elapsed_s >= self.max_wall_s:
            return "wall-budget"
        return None


@dataclass
class UnitOutcome:
    """One unit's sealed result, in plan order."""

    unit: str
    status: str  # "ok" | "failed"
    record: dict
    reused: bool


@dataclass
class RuntimeSummary:
    """What one :func:`run_units` invocation did, and why it stopped."""

    outcomes: List[UnitOutcome] = field(default_factory=list)
    reused: int = 0
    executed: int = 0
    #: None when the plan ran to completion, else "drain" /
    #: "wall-budget" / "workload-budget".
    stopped: Optional[str] = None
    #: Signal number when ``stopped == "drain"``, else 0.
    signum: int = 0
    #: Unit ids the stop left unexecuted, plan order.
    remaining: List[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.outcomes)

    @property
    def partial(self) -> bool:
        return self.stopped is not None


def run_units(
    units: List[str],
    execute: Callable[[str], Tuple[str, dict]],
    journal: Optional[CampaignJournal] = None,
    budget: Optional[CampaignBudget] = None,
    log: Optional[Callable[[str], None]] = None,
    clock: Callable[[], float] = time.monotonic,
    now: Callable[[], float] = time.time,
) -> RuntimeSummary:
    """Execute-or-reuse every unit in plan order (see module docstring).

    ``execute(unit)`` returns ``(status, record)`` with status ``"ok"``
    or ``"failed"`` — per-unit casualties are *data*, handled by the
    driver's fault domain, never exceptions here.  Exceptions that do
    escape ``execute`` are campaign-fatal and propagate, except
    :class:`~repro.exceptions.ShutdownRequested`, which becomes a clean
    ``stopped="drain"``.

    ``journal=None`` runs the same loop without persistence (drain and
    budgets still apply; nothing is reused, nothing recorded).
    """
    budget = budget or CampaignBudget()
    summary = RuntimeSummary()
    started = clock()
    say = log or (lambda message: None)
    for index, unit in enumerate(units):
        sealed = journal.completed.get(unit) if journal else None
        stop = budget.exceeded(summary.completed, clock() - started)
        if stop is not None and (sealed is None or stop == "workload-budget"):
            # Wall budget never drops already-sealed units: reusing them
            # is free and keeps resumed runs converging on the full
            # artifact.  The workload cap applies to sealed units too,
            # so budgeted runs stop at a plan-determined point.
            summary.stopped = stop
            summary.remaining = units[index:]
            break
        if sealed is not None:
            summary.outcomes.append(
                UnitOutcome(unit, sealed["status"], sealed["record"], True)
            )
            summary.reused += 1
            continue
        try:
            from repro.resilience import get_coordinator

            get_coordinator().check()
            status, record = execute(unit)
        except ShutdownRequested as exc:
            summary.stopped = "drain"
            summary.signum = exc.signum
            summary.remaining = units[index:]
            break
        if journal is not None:
            journal.record(unit, status, record, recorded_unix=now())
        summary.outcomes.append(UnitOutcome(unit, status, record, False))
        summary.executed += 1
    else:
        if journal is not None:
            journal.mark_complete(summary.completed, recorded_unix=now())
    if summary.reused and journal is not None:
        say(
            f"resume: reused {summary.reused} of {len(units)} workload(s) "
            f"from journal {journal.digest}"
        )
    if summary.stopped:
        say(
            f"campaign stopped early ({summary.stopped}): "
            f"{summary.completed} completed, "
            f"{len(summary.remaining)} remaining"
        )
    return summary
