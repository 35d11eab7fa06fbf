"""The golden-result ledger: content-addressed Tier-1 result digests.

``results/golden/ledger.json`` pins a sha256 digest of every quick-tier
run's payload (volatile host-time fields excluded, so the digests are
machine-independent).  ``scripts/verify_golden.py`` recomputes the tier
and audits against the ledger:

* a **drift** (same key, different digest) means the engine's output
  changed — either a bug, or an intentional model change that must be
  re-blessed explicitly (``--bless --reason "..."``), never silently;
* an **absence** means the tier definition and the ledger disagree —
  the ledger must be re-blessed after a tier change.

The tier itself is defined here (:class:`GoldenTier`): every audit runs
the *same* workloads at the same sizes with the same seed, so every
deterministic payload field is bit-stable across runs and machines.

* **quick** — one fast representative per scaling class (the classes of
  Table II), small target; about a minute serially, the tier the
  checked-in ledger and CI pin;
* **full** — every Table II benchmark, two targets; the release-gate
  tier (tens of minutes).

Because serial and parallel execution produce identical payloads for
every deterministic field, a ledger blessed from a serial run audited
against a ``--jobs N`` recomputation *is* the serial-vs-parallel
differential: any scheduling-dependent nondeterminism shows up as drift.

The store and service drills of ``scripts/chaos.py`` use the same audit
to assert that a fault schedule corrupted nothing: results computed
under injected crashes/ENOSPC must digest identically to a clean run's.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.fsio import atomic_write_text
from repro.verify.digest import payload_digest
from repro.workloads import STRONG_SCALING
from repro.workloads.spec import BenchmarkSpec

__all__ = [
    "AuditReport",
    "DEFAULT_LEDGER_PATH",
    "GoldenCase",
    "GoldenTier",
    "LEDGER_VERSION",
    "audit_store",
    "build_ledger",
    "full_tier",
    "golden_tier",
    "ledger_requests",
    "load_ledger",
    "pin_store",
    "quick_tier",
    "save_ledger",
]

DEFAULT_LEDGER_PATH = os.path.join("results", "golden", "ledger.json")
LEDGER_VERSION = 1


@dataclass(frozen=True)
class GoldenCase:
    """One benchmark's slot in a tier."""

    abbr: str
    scales: Tuple[int, ...] = (8, 16)
    targets: Tuple[int, ...] = (32,)

    def __post_init__(self) -> None:
        if self.abbr not in STRONG_SCALING:
            raise ReproError(f"unknown benchmark {self.abbr!r} in golden tier")
        if len(self.scales) < 2:
            raise ReproError(
                f"{self.abbr}: scale-model prediction needs >= 2 scale points"
            )
        if not self.targets:
            raise ReproError(f"{self.abbr}: at least one target size required")
        largest = max(self.scales)
        if any(t < largest for t in self.targets):
            raise ReproError(
                f"{self.abbr}: targets {self.targets} must not be smaller "
                f"than the largest scale model ({largest})"
            )

    @property
    def spec(self) -> BenchmarkSpec:
        return STRONG_SCALING[self.abbr]

    @property
    def sizes(self) -> Tuple[int, ...]:
        """All system sizes this case simulates (scales then targets)."""
        return tuple(self.scales) + tuple(self.targets)


@dataclass(frozen=True)
class GoldenTier:
    """A deterministic set of cases plus the seed they all run under."""

    name: str
    cases: Tuple[GoldenCase, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.cases:
            raise ReproError(f"{self.name}: empty golden tier")
        abbrs = [case.abbr for case in self.cases]
        if len(set(abbrs)) != len(abbrs):
            raise ReproError(f"{self.name}: duplicate benchmarks in tier: {abbrs}")


def quick_tier() -> GoldenTier:
    """One fast representative per scaling class.

    Representatives were picked by measured serial runtime: ``va``,
    ``btree`` and ``bs`` are the cheapest members of their classes at
    a few seconds per simulation.
    """
    return GoldenTier(
        name="quick",
        cases=(
            GoldenCase("va"),      # super-linear (miss-rate cliff)
            GoldenCase("btree"),   # sub-linear (CTA tails / imbalance)
            GoldenCase("bs"),      # linear (balanced, compute-bound)
        ),
    )


def full_tier() -> GoldenTier:
    """Every Table II benchmark, two prediction targets."""
    return GoldenTier(
        name="full",
        cases=tuple(
            GoldenCase(abbr, targets=(32, 64)) for abbr in STRONG_SCALING
        ),
    )


def golden_tier(name: str) -> GoldenTier:
    if name == "quick":
        return quick_tier()
    if name == "full":
        return full_tier()
    raise ReproError(f"unknown golden tier {name!r}; expected quick or full")


def ledger_requests(tier: GoldenTier) -> List:
    """The runs a tier pins: one sim per size plus one MRC per case."""
    from repro.analysis.parallel import RunRequest

    requests = [
        RunRequest("sim", case.spec, size=size, seed=tier.seed)
        for case in tier.cases
        for size in case.sizes
    ]
    requests.extend(
        RunRequest("mrc", case.spec, seed=tier.seed) for case in tier.cases
    )
    return requests


def _entry_for(request, digest: str) -> Dict[str, object]:
    return {
        "kind": request.kind,
        "workload": request.spec.abbr,
        "size": request.size,
        "work_scale": request.work_scale,
        "seed": request.seed,
        "method": request.method,
        "digest": digest,
    }


def build_ledger(
    tier: GoldenTier,
    runner,
    reason: str,
    blessed_at: Optional[str] = None,
) -> dict:
    """Compute (or reuse cached) tier runs and pin their digests.

    ``runner`` is a :class:`repro.analysis.runner.CachedRunner`; misses
    execute through its normal guarded paths, so a ledger build under
    ``REPRO_VERIFY=1`` is also a full paranoia sweep of the tier.
    """
    entries: Dict[str, Dict[str, object]] = {}
    for request in ledger_requests(tier):
        if request.kind == "sim":
            runner.simulate(
                request.spec, request.size, request.work_scale, request.seed
            )
        else:
            runner.miss_rate_curve(
                request.spec, request.work_scale, request.method, request.seed
            )
        payload = runner.store.get(request.key)
        if payload is None:
            raise ReproError(
                f"golden ledger: run {request.key} left no payload in the "
                "store (memory-only store evicted, or key drift)"
            )
        entries[request.key] = _entry_for(request, payload_digest(payload))
    if blessed_at is None:
        blessed_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return {
        "version": LEDGER_VERSION,
        "tier": tier.name,
        "seed": tier.seed,
        "blessed_at": blessed_at,
        "reason": reason,
        "entries": entries,
    }


def pin_store(store, keys, reason: str, tier: str = "adhoc") -> dict:
    """Build an ad-hoc ledger from payloads already sitting in a store.

    The chaos harnesses pin their clean reference campaign this way and
    then :func:`audit_store` the post-fault stores against it: any
    payload a fault schedule corrupted digests differently.
    """
    entries: Dict[str, Dict[str, object]] = {}
    for key in keys:
        payload = store.get(key)
        if payload is None:
            raise ReproError(
                f"golden ledger: reference store has no payload for {key}"
            )
        entries[key] = {"digest": payload_digest(payload)}
    return {
        "version": LEDGER_VERSION,
        "tier": tier,
        "seed": None,
        "blessed_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "reason": reason,
        "entries": entries,
    }


def save_ledger(document: dict, path: str = DEFAULT_LEDGER_PATH) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    atomic_write_text(
        path, json.dumps(document, indent=2, sort_keys=True) + "\n"
    )


def load_ledger(path: str = DEFAULT_LEDGER_PATH) -> dict:
    try:
        with open(path) as handle:
            document = json.load(handle)
    except FileNotFoundError:
        raise ReproError(
            f"golden ledger not found at {path}; bless one first "
            "(scripts/verify_golden.py --bless --reason '...')"
        )
    except (OSError, json.JSONDecodeError) as error:
        raise ReproError(f"golden ledger at {path} is unreadable: {error}")
    version = document.get("version")
    if version != LEDGER_VERSION:
        raise ReproError(
            f"golden ledger at {path} has version {version!r}, expected "
            f"{LEDGER_VERSION}"
        )
    if not isinstance(document.get("entries"), dict):
        raise ReproError(f"golden ledger at {path} has no entries mapping")
    return document


@dataclass(frozen=True)
class AuditReport:
    """Outcome of auditing a result store against a ledger."""

    matched: Tuple[str, ...]
    #: ``(key, expected_digest, actual_digest)`` per drifted entry.
    drifted: Tuple[Tuple[str, str, str], ...]
    #: Ledger keys the store has no payload for.
    absent: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.drifted and not self.absent

    def summary(self) -> str:
        text = (
            f"golden audit: {len(self.matched)} matched, "
            f"{len(self.drifted)} drifted, {len(self.absent)} absent"
        )
        return text


def audit_store(
    ledger: dict, store, require_all: bool = True
) -> AuditReport:
    """Compare a result store's payload digests against a ledger.

    With ``require_all=False``, ledger entries the store never computed
    are skipped instead of reported absent — the chaos harnesses audit
    partial campaigns where some runs were legitimately interrupted.
    """
    matched: List[str] = []
    drifted: List[Tuple[str, str, str]] = []
    absent: List[str] = []
    for key in sorted(ledger["entries"]):
        entry = ledger["entries"][key]
        payload = store.get(key)
        if payload is None:
            if require_all:
                absent.append(key)
            continue
        actual = payload_digest(payload)
        expected = entry["digest"]
        if actual == expected:
            matched.append(key)
        else:
            drifted.append((key, expected, actual))
    return AuditReport(tuple(matched), tuple(drifted), tuple(absent))
