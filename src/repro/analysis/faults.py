"""Fault-tolerant execution primitives shared by every execution path.

Large simulation campaigns treat worker faults as expected events, not
fatal ones: a single raising run, a hung run or a dead worker process
must cost exactly that run, never the batch.  This module holds what
the lazy path (:class:`repro.analysis.runner.CachedRunner`), the batch
path (:class:`repro.analysis.parallel.ParallelRunner`) and the service
(:mod:`repro.service`) all use to deliver that contract:

* :class:`ExecutionPolicy` — the retry/timeout/degradation knobs
  (``--max-retries``, ``--run-timeout``, ``--keep-going`` on the CLIs).
* :class:`RunOutcome` — the per-run execution record: ok, failed or
  timed out, with the attempt count and the captured traceback;
  :meth:`RunOutcome.of` is the one constructor from a request and
  :func:`failure_status` the one ``failed``-vs-``oom`` classifier.
* :class:`BatchReport` — the per-batch aggregate: outcomes in key order,
  pool-death count, whether execution degraded to serial;
  :func:`health_sentence` is the one summary line.
* :class:`FailureManifest` — append-only ``results/failures/<shard>.jsonl``
  records with enough context (kind, benchmark, size, scale, seed,
  method, traceback) to re-run every casualty.
* :class:`FailureLedger` — the manifest plus the live per-config
  failure streaks and the circuit-breaker gate over them: the one
  recording rule (:meth:`FailureLedger.record`) and the one answer to
  "is this config tripped?" (:meth:`FailureLedger.tripped`).
* **Deterministic fault injection** — the ``REPRO_FAULT_INJECT``
  environment variable arms :func:`maybe_inject`, which the worker entry
  point calls before every attempt.  Tests (and CI) use it to exercise
  every failure path without patching simulator internals.

Fault-injection grammar (comma-separated directives)::

    fail:<prefix>[:<n>]        raise on attempts 1..n (always, if n omitted)
    hang:<prefix>[:<s>]        sleep s seconds (default 3600) — trips timeouts
    die:<prefix>               kill the worker process (BrokenProcessPool)
    enospc:<op>[:<n>]          raise OSError(ENOSPC) on the first n writes
                               of that seam (default 1)
    partial-write:<op>[:<n>]   persist a truncated prefix, then raise —
                               a disk that filled mid-write (default 1)
    slow-io:<op>[:<s>]         sleep s seconds before the write
                               (default 0.05; fires on every write)
    drop-miss:<prefix>[:<n>]   silently swallow the first n L1-miss
                               increments (default 1) of a matching
                               simulation — a seeded *model* corruption
                               that produces a plausible but wrong
                               result, invisible to crash handling and
                               caught only by repro.verify's invariants

A run directive matches a run when ``<prefix>`` is a prefix of either
the cache key (``sim|<digest>|<digest>``) or the human-readable
pseudo-id ``<kind>|<benchmark abbr>`` (e.g. ``sim|va``).  Prefixes
therefore never contain ``:`` or ``,``.

The filesystem directives (``enospc``/``partial-write``/``slow-io``)
target *write seams*, not runs: ``<op>`` prefix-matches one of
:data:`IO_OPS` (``store``, ``trace``, ``metrics``, ``manifest``,
``journal``), the labels :mod:`repro.fsio` writers are called with; an
``<op>`` that matches none is refused at parse time, so a mistyped
chaos schedule cannot pass green while injecting nothing.
They are consumed through :func:`next_io_fault`; the fired-count
bookkeeping is per process (pool workers count their own), and
:func:`reset_io_faults` rewinds it between chaos phases.

``drop-miss`` is an *engine* directive: it corrupts simulator counters
rather than execution or I/O.  :class:`repro.gpu.gpu.GPUSimulator` arms
it at run start via :func:`engine_fault_budget`, matching the directive
prefix against the workload trace name (e.g. ``drop-miss:va``).  Each
run attempt gets the full budget — the corruption is deterministic per
run, so a retried run misbehaves identically.
"""

from __future__ import annotations

import functools
import json
import os
import re
import threading
import time
import warnings
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro import fsio
from repro.exceptions import ReproError
from repro.resilience import breaker_threshold, env_float

__all__ = [
    "ExecutionPolicy",
    "RunOutcome",
    "BatchReport",
    "FailureManifest",
    "FailureLedger",
    "InjectedFaultError",
    "FAULT_INJECT_ENV",
    "IO_OPS",
    "MANIFEST_MAX_MB_ENV",
    "STREAK",
    "OK",
    "FAILED",
    "TIMEOUT",
    "OOM",
    "INTERRUPTED",
    "SKIPPED",
    "parse_fault_plan",
    "maybe_inject",
    "engine_fault_budget",
    "next_io_fault",
    "reset_io_faults",
    "retryable",
    "failure_status",
    "health_sentence",
]

FAULT_INJECT_ENV = "REPRO_FAULT_INJECT"

# RunOutcome.status values.
OK = "ok"
FAILED = "failed"
TIMEOUT = "timeout"
#: MemoryError under the REPRO_MAX_RSS ceiling: never retried (the same
#: allocation pattern would just OOM again, or worse, take the host).
OOM = "oom"
#: A graceful shutdown drained the run before/while it executed; the
#: config is fine — a rerun picks it up from the cache as a miss.
INTERRUPTED = "interrupted"
#: The per-config circuit breaker skipped the run (see
#: :class:`FailureLedger`); zero attempts were made.
SKIPPED = "skipped"

#: Terminal failures: the statuses that count toward a config's streak.
_STREAK_STATUSES = frozenset((FAILED, TIMEOUT, OOM))

#: Write-seam labels the filesystem directives can target.
IO_OPS = ("store", "trace", "metrics", "manifest", "journal")

#: Size ceiling (MiB) for one failure-manifest shard before it is
#: compacted; 0 disables rotation.  Multi-hundred-workload campaigns
#: append a record per casualty per attempt, so shards are rotated into
#: synthetic per-key ``streak`` records that preserve the circuit
#: breaker's consecutive-failure counts while dropping the bulk.
MANIFEST_MAX_MB_ENV = "REPRO_MANIFEST_MAX_MB"
_DEFAULT_MANIFEST_MAX_MB = 16.0

#: Status of the synthetic records a rotation leaves behind: one per run
#: key, carrying that key's consecutive-failure count at rotation time.
STREAK = "streak"

_IO_ACTIONS = ("enospc", "partial-write", "slow-io")
_RUN_ACTIONS = ("fail", "hang", "die")
_ENGINE_ACTIONS = ("drop-miss",)

_SHARD_SANITIZER = re.compile(r"[^A-Za-z0-9._-]+")

_DEFAULT_HANG_SECONDS = 3600.0


def failure_status(error: BaseException) -> str:
    """The terminal status an attempt that raised ``error`` ends in."""
    return OOM if isinstance(error, MemoryError) else FAILED


def retryable(error: BaseException) -> bool:
    """Whether the execution layer may re-run after this exception.

    An ``oom`` is terminal: under the ``REPRO_MAX_RSS`` ceiling the
    retry would make the same allocations and die the same death, and
    without the ceiling a retry invites the OOM killer.
    """
    return failure_status(error) != OOM


class InjectedFaultError(ReproError):
    """A deliberate failure raised by the ``REPRO_FAULT_INJECT`` hook."""


@dataclass(frozen=True)
class ExecutionPolicy:
    """Retry, timeout and degradation knobs for one batch execution.

    ``max_retries`` bounds *re*-executions after the first attempt, so a
    run is tried at most ``max_retries + 1`` times.  ``run_timeout``
    (seconds, ``None`` = unlimited) arms the per-run watchdog — pool
    execution only; a serial run cannot be interrupted from within.
    ``keep_going`` turns end-of-batch failures into a report instead of
    an :class:`repro.exceptions.ExecutionError`.  After
    ``max_pool_deaths`` ``BrokenProcessPool`` events the batch degrades
    to serial in-process execution for the remaining runs.

    ``breaker_threshold`` (``None`` = ``REPRO_BREAKER_THRESHOLD`` or 3,
    ``0`` disables) arms the per-config circuit breaker on
    ``keep_going`` batches: configs with that many consecutive terminal
    failures in the manifest are skipped, not re-attempted, until
    ``retry_quarantined`` (``--retry-quarantined``) forces a re-run.
    """

    max_retries: int = 2
    run_timeout: Optional[float] = None
    keep_going: bool = False
    backoff_base: float = 0.05
    max_pool_deaths: int = 2
    retry_quarantined: bool = False
    breaker_threshold: Optional[int] = None

    def backoff(self, attempt: int) -> float:
        """Exponential backoff before re-running a failed ``attempt``."""
        return self.backoff_base * (2.0 ** (attempt - 1))


@dataclass(frozen=True)
class RunOutcome:
    """How one run ended: status, attempt count, captured traceback.

    ``size``/``work_scale``/``seed``/``method`` mirror the originating
    :class:`repro.analysis.parallel.RunRequest` so a manifest entry can
    be turned back into a run without consulting anything else.
    """

    key: str
    kind: str
    shard: str
    status: str
    attempts: int = 1
    error: Optional[str] = None
    size: int = 0
    work_scale: float = 1.0
    seed: int = 0
    method: str = "stack"

    @classmethod
    def of(
        cls,
        request,
        status: str,
        attempts: int,
        error: Optional[str] = None,
    ) -> "RunOutcome":
        """How ``request`` (a :class:`repro.analysis.parallel.RunRequest`)
        ended."""
        return cls(
            key=request.key,
            kind=request.kind,
            shard=request.spec.abbr,
            status=status,
            attempts=attempts,
            error=error,
            size=request.size,
            work_scale=request.work_scale,
            seed=request.seed,
            method=request.method,
        )

    @property
    def ok(self) -> bool:
        return self.status == OK

    @property
    def retried(self) -> bool:
        return self.attempts > 1


@dataclass(frozen=True)
class BatchReport:
    """Aggregate outcome of one ``run_batch`` call, in key order."""

    outcomes: Tuple[RunOutcome, ...] = ()
    pool_deaths: int = 0
    degraded_to_serial: bool = False

    @property
    def executed(self) -> int:
        """Number of runs that completed successfully."""
        return sum(1 for outcome in self.outcomes if outcome.ok)

    @property
    def failures(self) -> Tuple[RunOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.ok)

    @property
    def retries(self) -> int:
        # Zero-attempt outcomes (skipped, interrupted before they
        # started) made no retry, not minus one.
        return sum(max(0, o.attempts - 1) for o in self.outcomes)

    def counts(self) -> Dict[str, int]:
        by_status = Counter(o.status for o in self.outcomes)
        return {
            "ok": by_status[OK],
            "failed": by_status[FAILED],
            "timeout": by_status[TIMEOUT],
            "oom": by_status[OOM],
            "interrupted": by_status[INTERRUPTED],
            "skipped": by_status[SKIPPED],
            "retries": self.retries,
            "pool_deaths": self.pool_deaths,
        }

    def summary(self) -> str:
        return health_sentence(self.counts(), self.degraded_to_serial)


def health_sentence(counts: Dict[str, int], degraded: bool) -> str:
    """The one-line execution summary, from :meth:`BatchReport.counts`
    keys.  Scripts and tests grep it, so the wording is fixed."""
    text = (
        "execution: {ok} ok, {failed} failed, {timeout} timed out, "
        "{retries} retries, {pool_deaths} pool deaths".format(**counts)
    )
    # Resilience statuses only appear when present, so the wording stays
    # byte-identical on healthy runs.
    if counts["oom"]:
        text += f", {counts['oom']} out of memory"
    if counts["interrupted"]:
        text += f", {counts['interrupted']} interrupted"
    if counts["skipped"]:
        text += f", {counts['skipped']} skipped (circuit breaker)"
    if degraded:
        text += " (degraded to serial)"
    return text


class FailureManifest:
    """Append-only JSONL record of failed runs, one shard per benchmark.

    Lives beside the result store (``results/failures/<shard>.jsonl``).
    Append-only like the store itself: a crash can at worst truncate the
    final line, and re-runs simply append fresh records.  ``root=None``
    disables persistence (memory-only stores).

    Shards are bounded: past ``REPRO_MANIFEST_MAX_MB`` (default 16 MiB,
    0 disables) a shard is *compacted* — its history collapses to one
    synthetic ``streak`` record per run key carrying that key's
    consecutive-failure count, so the circuit breaker sees exactly the
    streaks it would have counted from the raw records.  The raw shard
    is kept once as ``<shard>.jsonl.old`` (overwritten by the next
    rotation, so disk stays bounded at ~2x the ceiling per shard).
    """

    def __init__(self, root: Optional[str]) -> None:
        self.root = root

    def path_for(self, shard: str) -> Optional[str]:
        if not self.root:
            return None
        name = _SHARD_SANITIZER.sub("_", shard) or "misc"
        return os.path.join(self.root, f"{name}.jsonl")

    def append(self, outcomes: Iterable[RunOutcome]) -> int:
        """Append one record per outcome; returns the number written.

        Outcomes are recorded with their status as-is; which outcomes
        get here is :meth:`FailureLedger.record`'s decision.  Manifest
        I/O must never mask the failure it is recording, so filesystem
        errors degrade to a warning.
        """
        if not self.root:
            return 0
        by_shard: Dict[str, List[str]] = {}
        # Deliberately wall-clock: ``recorded_at`` is a report timestamp
        # humans correlate with logs, not a duration measurement (those
        # use time.monotonic() elsewhere in this package).
        stamp = time.time()
        for outcome in outcomes:
            record = dict(asdict(outcome), recorded_at=stamp)
            by_shard.setdefault(outcome.shard, []).append(json.dumps(record))
        if not by_shard:
            return 0
        written = 0
        try:
            os.makedirs(self.root, exist_ok=True)
            for shard, lines in sorted(by_shard.items()):
                path = self.path_for(shard)
                fsio.append_text(
                    path,
                    "".join(line + "\n" for line in lines),
                    op="manifest",
                )
                written += len(lines)
                self._rotate_if_oversized(shard, path, stamp)
        except OSError as error:
            warnings.warn(
                f"failure manifest: cannot write under {self.root}: {error}"
            )
        return written

    def _rotate_if_oversized(
        self, shard: str, path: str, stamp: float
    ) -> None:
        """Compact ``path`` to per-key streak records past the ceiling.

        Rotation must never mask the run failures being recorded, so any
        I/O error here degrades to a warning, like :meth:`append`.
        """
        limit = manifest_max_bytes()
        if limit <= 0:
            return
        try:
            if os.path.getsize(path) <= limit:
                return
            with open(path) as fh:
                raw_lines = fh.readlines()
        except OSError:
            return
        streaks = _streaks_from_lines(raw_lines)
        compact = [
            json.dumps(
                {
                    "key": key,
                    "status": STREAK,
                    "count": count,
                    "shard": shard,
                    "recorded_at": stamp,
                }
            )
            for key, count in sorted(streaks.items())
            if count > 0
        ]
        try:
            # Raw history survives one rotation for post-mortems; the
            # ``.old`` suffix keeps it off the breaker's ``*.jsonl`` scan
            # (it would double-count against the streak records).
            os.replace(path, path + ".old")
            fsio.atomic_write_text(
                path,
                "".join(line + "\n" for line in compact),
                op="manifest",
            )
        except OSError as error:
            warnings.warn(
                f"failure manifest: cannot rotate {path}: {error}"
            )
            return
        warnings.warn(
            f"failure manifest: rotated {path} "
            f"({len(raw_lines)} records -> {len(compact)} streak records)"
        )


def manifest_max_bytes() -> int:
    """The per-shard rotation ceiling in bytes (0 = rotation disabled)."""
    megabytes = env_float(MANIFEST_MAX_MB_ENV, _DEFAULT_MANIFEST_MAX_MB)
    return int(megabytes * 1024 * 1024)


def _streaks_from_lines(
    lines: Iterable[str], streaks: Optional[Dict[str, int]] = None
) -> Dict[str, int]:
    """Fold manifest lines into per-key consecutive-failure counts.

    The one reading of the manifest format: ``ok`` resets, terminal
    failures increment, ``streak`` records (left by a rotation) seed the
    count, anything else (``interrupted``, foreign or torn lines) is
    ignored.  ``streaks`` carries counts in from earlier shards.
    """
    if streaks is None:
        streaks = {}
    for line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # truncated trailing line: append-only contract
        if not isinstance(record, dict):
            continue
        key = record.get("key")
        status = record.get("status")
        if not isinstance(key, str):
            continue
        if status == OK:
            streaks[key] = 0
        elif status == STREAK:
            count = record.get("count")
            if isinstance(count, int) and not isinstance(count, bool):
                streaks[key] = max(0, count)
        elif status in _STREAK_STATUSES:
            streaks[key] = streaks.get(key, 0) + 1
    return streaks


class FailureLedger:
    """Failure accounting for one results directory: the manifest, the
    live per-config streaks and the circuit-breaker gate over them.

    Every execution path — lazy in-process runs, serial and pooled
    batches, service jobs — reports its outcomes to :meth:`record` and
    asks :meth:`tripped` before starting a run, so "what counts toward a
    streak, when a streak gates a run and what is written to the
    manifest" has one answer.  A :class:`CachedRunner` and the
    :class:`ParallelRunner` it drives share one ledger, as does a whole
    service process.

    Streaks are seeded once, lazily, from the manifest shards on disk
    (``*.jsonl``; a rotation's ``.old`` copy would double-count) and
    kept live afterwards, so a config that fails in this process gates
    in this process.  ``threshold`` (``None`` =
    ``REPRO_BREAKER_THRESHOLD`` or 3) is the streak that trips a config;
    ``0`` disables the gate.  ``root=None`` switches persistence off,
    not the gate: a memory-only service still trips and recovers.

    Streak mutation is lock-guarded: service outcomes normally arrive on
    the event loop, but nothing forbids racing recorders, and a lost
    increment would be a config that fails forever without tripping.
    """

    def __init__(
        self, root: Optional[str], threshold: Optional[int] = None
    ) -> None:
        self.manifest = FailureManifest(root)
        self.threshold = (
            threshold if threshold is not None else breaker_threshold()
        )
        #: Times any config's streak reached the threshold.
        self.trips = 0
        self._streaks: Optional[Dict[str, int]] = None
        self._lock = threading.Lock()

    @property
    def root(self) -> Optional[str]:
        return self.manifest.root

    @property
    def enabled(self) -> bool:
        return self.threshold > 0

    def _live(self) -> Dict[str, int]:
        if self._streaks is None:
            with self._lock:
                if self._streaks is None:
                    self._streaks = self._seed()
        return self._streaks

    def _seed(self) -> Dict[str, int]:
        streaks: Dict[str, int] = {}
        root = self.root
        if not (self.enabled and root and os.path.isdir(root)):
            return streaks
        for fname in sorted(os.listdir(root)):
            if not fname.endswith(".jsonl"):
                continue
            path = os.path.join(root, fname)
            try:
                with open(path) as fh:
                    _streaks_from_lines(fh, streaks)
            except OSError as error:
                warnings.warn(f"circuit breaker: cannot read {path}: {error}")
        return streaks

    def streak(self, key: str) -> int:
        """Terminal failures recorded for ``key`` since its last success."""
        return self._live().get(key, 0)

    def tripped(self, key: str) -> bool:
        """True when ``key``'s streak has reached the threshold."""
        return self.enabled and self.streak(key) >= self.threshold

    def refusal(self, request, policy: ExecutionPolicy) -> Optional[str]:
        """Why ``request`` must not start under ``policy``, or ``None``.

        Only ``keep_going`` campaigns skip: a fail-fast run is the
        operator asking for the error itself, and ``retry_quarantined``
        forces every config through.
        """
        if (
            not policy.keep_going
            or policy.retry_quarantined
            or not self.tripped(request.key)
        ):
            return None
        where = f" in {self.root}" if self.root else ""
        return (
            f"circuit breaker open for {request.kind}|{request.spec.abbr}: "
            f"{self.streak(request.key)} consecutive terminal failures"
            f"{where}; rerun with --retry-quarantined to retry this config"
        )

    def record(self, outcomes: Iterable[RunOutcome]) -> None:
        """Apply the recording rule to finished runs.

        A terminal ``failed``/``timeout``/``oom`` counts toward its
        key's streak and is appended to the manifest; an ``ok`` resets
        the streak and is appended only when it closed one (healthy
        configs never reach the manifest); ``interrupted`` is appended
        without counting — being drained says nothing about the config;
        ``skipped`` is neither (the records that tripped it are there).
        """
        streaks = self._live()
        appended: List[RunOutcome] = []
        with self._lock:
            for outcome in outcomes:
                if outcome.status in _STREAK_STATUSES:
                    count = streaks.get(outcome.key, 0) + 1
                    streaks[outcome.key] = count
                    if count == self.threshold:
                        self.trips += 1
                elif outcome.status == OK:
                    if not streaks.get(outcome.key):
                        continue
                    streaks[outcome.key] = 0
                elif outcome.status != INTERRUPTED:
                    continue
                appended.append(outcome)
        self.manifest.append(appended)

    def snapshot(self) -> dict:
        """The ``/statsz`` breaker block."""
        streaks = self._live()
        with self._lock:
            open_configs = sum(
                1 for streak in streaks.values()
                if self.enabled and streak >= self.threshold
            )
        return {
            "enabled": self.enabled,
            "threshold": self.threshold,
            "open_configs": open_configs,
            "trips": self.trips,
        }


# --- deterministic fault injection ---------------------------------------------

@dataclass(frozen=True)
class _FaultDirective:
    action: str  # fail | hang | die | enospc | partial-write | slow-io | drop-miss
    prefix: str
    arg: Optional[float]  # fail: attempt bound; hang/slow-io: seconds; io: fire count


@functools.lru_cache(maxsize=4)
def parse_fault_plan(plan: str) -> Tuple[_FaultDirective, ...]:
    """Parse a ``REPRO_FAULT_INJECT`` value (see module docstring)."""
    directives = []
    for part in plan.split(","):
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        if len(bits) == 2:
            action, prefix, arg = bits[0], bits[1], None
        elif len(bits) == 3:
            action, prefix = bits[0], bits[1]
            try:
                arg = float(bits[2])
            except ValueError:
                raise ReproError(
                    f"fault injection: non-numeric argument in {part!r}"
                )
        else:
            raise ReproError(
                f"fault injection: malformed directive {part!r} "
                "(expected action:prefix[:arg])"
            )
        if action not in _RUN_ACTIONS + _IO_ACTIONS + _ENGINE_ACTIONS:
            raise ReproError(
                f"fault injection: unknown action {action!r} in {part!r}"
            )
        if not prefix:
            raise ReproError(f"fault injection: empty prefix in {part!r}")
        if action in _IO_ACTIONS and not any(
            op.startswith(prefix) for op in IO_OPS
        ):
            raise ReproError(
                f"fault injection: {part!r} names no write seam "
                f"(expected a prefix of one of {', '.join(IO_OPS)})"
            )
        directives.append(_FaultDirective(action, prefix, arg))
    return tuple(directives)


def active_plan() -> Tuple[_FaultDirective, ...]:
    """The armed ``REPRO_FAULT_INJECT`` directives; empty when unset.

    The one reader of the variable.  Parsing is memoised on the raw
    string, so the seams that ask per call (every ``fsio`` write while a
    plan is armed) pay one environment lookup.
    """
    return parse_fault_plan(os.environ.get(FAULT_INJECT_ENV, ""))


def maybe_inject(
    key: str,
    kind: str,
    shard: str,
    attempt: int,
    allow_exit: bool = True,
) -> None:
    """Apply the ``REPRO_FAULT_INJECT`` plan to one run attempt.

    No-op unless the environment variable is set and a directive's
    prefix matches the run (see module docstring for the grammar).
    ``allow_exit=False`` (serial, in-process execution) converts a
    ``die`` directive into a raised :class:`InjectedFaultError` so the
    host process survives.
    """
    targets = (key, f"{kind}|{shard}")
    for directive in active_plan():
        if directive.action in _IO_ACTIONS:
            # Filesystem seams, consumed through next_io_fault.
            continue
        if directive.action in _ENGINE_ACTIONS:
            # Engine-corruption seams, consumed through engine_fault_budget.
            continue
        if not any(t.startswith(directive.prefix) for t in targets):
            continue
        if directive.action == "fail":
            bound = directive.arg if directive.arg is not None else float("inf")
            if attempt <= bound:
                raise InjectedFaultError(
                    f"injected failure for {key} (attempt {attempt})"
                )
        elif directive.action == "hang":
            seconds = (
                directive.arg if directive.arg is not None
                else _DEFAULT_HANG_SECONDS
            )
            time.sleep(seconds)
            raise InjectedFaultError(
                f"injected hang for {key} expired after {seconds}s"
            )
        else:  # die
            if allow_exit:
                os._exit(3)
            raise InjectedFaultError(
                f"injected worker death for {key} (serial mode: raising)"
            )


def engine_fault_budget(action: str, *targets: str) -> int:
    """Total corruption budget for an engine directive matching ``targets``.

    Engine directives (:data:`_ENGINE_ACTIONS`) corrupt simulator
    *counters* rather than execution: the simulator arms them at run
    start by asking for the budget and spending it internally (e.g.
    ``drop-miss`` swallows that many L1-miss increments).  A directive
    matches when its prefix is a prefix of any of ``targets`` (the
    workload trace name, at minimum).  Budgets of several matching
    directives add up; the default per directive is 1.
    """
    total = 0
    for directive in active_plan():
        if directive.action != action or directive.action not in _ENGINE_ACTIONS:
            continue
        if not any(t.startswith(directive.prefix) for t in targets):
            continue
        total += int(directive.arg) if directive.arg is not None else 1
    return total


# --- filesystem fault directives -------------------------------------------------
#
# Fired-count bookkeeping for enospc/partial-write: per process, keyed
# by (action, prefix).  Pool workers inherit the *plan* through the
# environment but count independently — each seam's budget is spent in
# the process whose writer owns it (store and manifest writes happen in
# the coordinator).

_IO_FIRED: Dict[Tuple[str, str], int] = {}

_DEFAULT_SLOW_IO_SECONDS = 0.05


def reset_io_faults() -> None:
    """Rewind the fired-count bookkeeping (chaos phases, tests)."""
    _IO_FIRED.clear()


def next_io_fault(op: str) -> Optional[Tuple[str, Optional[float]]]:
    """The io directive to apply to one write on seam ``op``, or ``None``.

    Called by the :mod:`repro.fsio` writers with their seam label.
    ``slow-io`` matches always (arg = sleep seconds); ``enospc`` and
    ``partial-write`` consume one firing from their budget (arg = how
    many writes to break, default 1) and go quiet afterwards — so a
    retried flush models a disk that recovered.  First matching
    directive wins.
    """
    for directive in active_plan():
        if directive.action not in _IO_ACTIONS:
            continue
        if not op.startswith(directive.prefix):
            continue
        if directive.action == "slow-io":
            return (
                "slow-io",
                directive.arg if directive.arg is not None
                else _DEFAULT_SLOW_IO_SECONDS,
            )
        budget = int(directive.arg) if directive.arg is not None else 1
        fired_key = (directive.action, directive.prefix)
        if _IO_FIRED.get(fired_key, 0) >= budget:
            continue
        _IO_FIRED[fired_key] = _IO_FIRED.get(fired_key, 0) + 1
        return (directive.action, directive.arg)
    return None
