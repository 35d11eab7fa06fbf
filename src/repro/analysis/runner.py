"""Cached simulation running for the experiment harness.

Every table/figure of the paper reuses the same underlying runs (scale
models, targets, miss-rate curves).  :class:`CachedRunner` memoizes them
on disk keyed by a digest of the benchmark spec, the scenario and the
system configuration; editing a generator parameter in the catalog —
including a kernel's ``work_share`` — automatically invalidates the
affected entries.

Persistence goes through :class:`repro.analysis.simcache.ResultStore`:
one append-only JSONL shard per benchmark under ``results/simcache/``,
tolerant of corruption and crash-safe (see that module's docstring).

A miss is one :class:`repro.analysis.parallel.RunRequest` run through
:func:`repro.analysis.parallel.execute_attempt` — in this process, once,
with the original exception propagating, when a ``simulate`` /
``simulate_mcm`` / ``miss_rate_curve`` call finds nothing cached; or
fanned out across processes with retries and a watchdog when the run
list is built up front and handed to :meth:`CachedRunner.prefetch`.
Both produce identical results for every deterministic field — each run
is a pure function of (spec, scale, seed); only ``wall_time_s``, a
host-time measurement, varies between executions — and both report
their outcomes to the runner's one
:class:`repro.analysis.faults.FailureLedger`, so a config that keeps
failing is counted, gated and recorded the same way whichever path ran
it (``docs/ARCHITECTURE.md`` § "A run, end to end").

Completed results always reach the store, and
:meth:`CachedRunner.execution_health` summarizes the casualties.  Cached
payloads whose schema drifted (e.g. after a field was added to
:class:`SimulationResult`) degrade to a miss plus a
``schema_mismatches`` stat, never a ``TypeError``.
"""

from __future__ import annotations

import hashlib
import os
import traceback
from dataclasses import MISSING, fields
from functools import lru_cache
from typing import Dict, Iterable, Optional

# ``parallel`` imports this module for the keys and compute functions
# below; each side only touches the other at call time.
from repro.analysis import parallel as _parallel
from repro.analysis.faults import (
    OK,
    BatchReport,
    ExecutionPolicy,
    FailureLedger,
    RunOutcome,
    failure_status,
    health_sentence,
)
from repro.analysis.simcache import ResultStore
from repro.checkpoint import CheckpointPolicy
from repro.exceptions import ExecutionError, ReproError
from repro.resilience import get_coordinator
from repro.gpu import GPUConfig, McmConfig, simulate, simulate_mcm
from repro.gpu.results import SimulationResult
from repro.mrc import MissRateCurve, collect_miss_rate_curve
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import get_tracer
from repro.workloads import build_trace
from repro.workloads.generators import TRACE_CONTRACT
from repro.workloads.spec import BenchmarkSpec, KernelShape

DEFAULT_CACHE = os.path.join("results", "simcache")


def default_jobs() -> int:
    """Worker count when ``--jobs`` is not given: ``cpu_count() - 1``."""
    return max(1, (os.cpu_count() or 2) - 1)


# --- cache keys ----------------------------------------------------------------

#: Largest SM / chiplet count a request may name (the wire API's ``size``
#: limit); also what bounds the config-digest memo below.
MAX_SYSTEM_SIZE = 4096

#: Every KernelShape field participates, so editing any grid property
#: (num_ctas, threads_per_cta, work_share, ...) invalidates the cached runs.
_KERNEL_FIELDS = tuple(sorted(f.name for f in fields(KernelShape)))


def _spec_digest(spec: BenchmarkSpec, extra: str = "") -> str:
    # Derived from the spec's *contents* on every call — ``params`` is a
    # mutable mapping, so nothing here may be memoized on spec identity.
    # ``TRACE_CONTRACT`` covers how a spec becomes a trace: results of an
    # earlier generator are never served under today's keys.
    payload = repr(
        (
            TRACE_CONTRACT,
            spec.abbr,
            spec.family,
            sorted(spec.params.items()),
            [
                tuple((name, getattr(k, name)) for name in _KERNEL_FIELDS)
                for k in spec.kernels
            ],
            spec.footprint_mb,
            extra,
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _config_digest(config) -> str:
    return hashlib.sha256(repr(config).encode()).hexdigest()[:16]


# The system half of a key is a pure function of one integer, so it is
# derived once per size.  ``typed``: ``scaled(8.0)`` names its config
# differently from ``scaled(8)`` and must not share the entry.
@lru_cache(maxsize=MAX_SYSTEM_SIZE, typed=True)
def _gpu_digest(num_sms: Optional[int] = None) -> str:
    """Digest of the paper baseline, scaled to ``num_sms`` when given."""
    config = GPUConfig.paper_baseline()
    return _config_digest(config if num_sms is None else config.scaled(num_sms))


@lru_cache(maxsize=MAX_SYSTEM_SIZE, typed=True)
def _mcm_digest(num_chiplets: int) -> str:
    return _config_digest(McmConfig.paper_target().scaled(num_chiplets))


def sim_key(spec: BenchmarkSpec, num_sms: int, work_scale: float, seed: int) -> str:
    return "|".join(
        (
            "sim",
            _spec_digest(spec, f"w={work_scale},seed={seed}"),
            _gpu_digest(num_sms),
        )
    )


def mcm_key(
    spec: BenchmarkSpec, num_chiplets: int, work_scale: float, seed: int
) -> str:
    return "|".join(
        (
            "mcm",
            _spec_digest(spec, f"w={work_scale},seed={seed}"),
            _mcm_digest(num_chiplets),
        )
    )


def mrc_key(spec: BenchmarkSpec, work_scale: float, method: str, seed: int) -> str:
    return "|".join(
        (
            "mrc",
            _spec_digest(spec, f"w={work_scale},m={method},seed={seed}"),
            _gpu_digest(),
        )
    )


# --- pure compute functions (shared by the lazy path and pool workers) ---------

def compute_sim(
    spec: BenchmarkSpec, num_sms: int, work_scale: float, seed: int
) -> SimulationResult:
    config = GPUConfig.paper_baseline().scaled(num_sms)
    trace = build_trace(
        spec,
        work_scale=work_scale,
        capacity_scale=config.capacity_scale,
        seed=seed,
    )
    return simulate(config, trace)


def compute_mcm(
    spec: BenchmarkSpec, num_chiplets: int, work_scale: float, seed: int
) -> SimulationResult:
    config = McmConfig.paper_target().scaled(num_chiplets)
    trace = build_trace(
        spec,
        work_scale=work_scale,
        capacity_scale=config.chiplet.capacity_scale,
        seed=seed,
    )
    return simulate_mcm(config, trace)


def compute_mrc(
    spec: BenchmarkSpec, work_scale: float, method: str, seed: int
) -> MissRateCurve:
    config = GPUConfig.paper_baseline()
    trace = build_trace(
        spec,
        work_scale=work_scale,
        capacity_scale=config.capacity_scale,
        seed=seed,
    )
    return collect_miss_rate_curve(trace, config=config, method=method)


def curve_payload(curve: MissRateCurve) -> dict:
    return {
        "workload": curve.workload,
        "capacities_bytes": list(curve.capacities_bytes),
        "mpki": list(curve.mpki),
        "miss_ratio": list(curve.miss_ratio),
        "metadata": curve.metadata,
    }


def curve_from_payload(payload: dict) -> MissRateCurve:
    return MissRateCurve(
        workload=payload["workload"],
        capacities_bytes=tuple(payload["capacities_bytes"]),
        mpki=tuple(payload["mpki"]),
        miss_ratio=tuple(payload["miss_ratio"]),
        metadata=payload["metadata"],
    )


# --- cached-payload validation (schema drift tolerance) ------------------------
#
# A cached payload written by an older (or newer) version of the code may
# be missing fields the current record type requires, or carry fields it
# no longer knows.  Rehydrating such a payload must degrade to a cache
# miss — recompute and overwrite — never to a ``TypeError`` that kills
# the run.

_RESULT_FIELD_NAMES = frozenset(f.name for f in fields(SimulationResult))
_RESULT_REQUIRED = frozenset(
    f.name
    for f in fields(SimulationResult)
    if f.default is MISSING and f.default_factory is MISSING
)


def result_from_payload(payload: object) -> Optional[SimulationResult]:
    """Rehydrate a cached :class:`SimulationResult`, or ``None`` on drift.

    ``None`` means the payload does not match the current schema (missing
    required fields, unknown extra fields, or values the record rejects)
    and the entry should be treated as a miss.
    """
    if not isinstance(payload, dict):
        return None
    names = set(payload)
    if not _RESULT_REQUIRED <= names or not names <= _RESULT_FIELD_NAMES:
        return None
    try:
        return SimulationResult(**payload)
    except (TypeError, ValueError, ReproError):
        return None


def safe_curve_from_payload(payload: object) -> Optional[MissRateCurve]:
    """Rehydrate a cached :class:`MissRateCurve`, or ``None`` on drift."""
    if not isinstance(payload, dict):
        return None
    try:
        return curve_from_payload(payload)
    except (KeyError, TypeError, ValueError, ReproError):
        return None


#: The ``exec.<name>`` counters behind :meth:`CachedRunner.stats` and
#: :meth:`CachedRunner.execution_health`.
_EXEC_COUNTERS = (
    "ok", "failed", "timeout", "retries", "pool_deaths",
    "oom", "interrupted", "skipped",
)


class CachedRunner:
    """Runs (and memoizes) timing simulations and MRC collections.

    ``jobs`` sets the worker-pool size used by :meth:`prefetch`; the
    individual ``simulate``/``miss_rate_curve`` calls always execute
    in-process so their results are bit-identical regardless of ``jobs``.

    ``checkpoint`` is accepted and ignored: the run is the only recovery
    unit.  It survives only for ``benchmarks/perf/workloads.py``, which
    passes ``CheckpointPolicy(root=None)``; the benchmark change that
    drops that argument deletes this parameter and
    :mod:`repro.checkpoint`.
    """

    def __init__(
        self,
        cache_path: Optional[str] = DEFAULT_CACHE,
        jobs: Optional[int] = None,
        policy: Optional[ExecutionPolicy] = None,
        checkpoint: Optional[CheckpointPolicy] = None,
    ) -> None:
        self.store = ResultStore(cache_path)
        self.jobs = jobs if jobs is not None else 1
        self.policy = policy or ExecutionPolicy()
        self.last_report: Optional[BatchReport] = None
        # One ledger for the lazy in-process runs and every batch this
        # runner prefetches: serial and parallel runs feed, and are
        # gated by, the same per-config failure accounting.
        self.ledger = FailureLedger(self.store, self.policy.breaker_threshold)
        # Per-instance registry: tests build several runners per process,
        # so hit/miss/execution telemetry must not conflate through the
        # process-wide registry.  Exporters merge it in with a ``runner.``
        # prefix (see ``repro.obs.export.write_metrics``).
        self.metrics = MetricsRegistry()

    @property
    def hits(self) -> int:
        """Cache hits served by this runner (view over the registry)."""
        return self.metrics.counter("runner.hits").value

    @property
    def misses(self) -> int:
        """Cache misses this runner had to compute (registry view)."""
        return self.metrics.counter("runner.misses").value

    # --- batched execution -----------------------------------------------------
    def prefetch(self, requests: Iterable) -> int:
        """Execute the cache misses among ``requests`` across the pool.

        Returns the number of runs executed.  With ``jobs <= 1`` this is
        a no-op — the lazy in-process path computes the same values on
        demand, so serial and parallel invocations stay interchangeable.
        Execution outcomes (failures, timeouts, retries, pool deaths)
        accumulate into :meth:`stats` / :meth:`execution_health` even
        when the batch raises.
        """
        if self.jobs <= 1:
            return 0
        runner = _parallel.ParallelRunner(
            self.store, jobs=self.jobs, policy=self.policy, ledger=self.ledger
        )
        try:
            return runner.run_batch(requests)
        finally:
            self.last_report = runner.last_report
            self._absorb_report(runner.last_report)

    def _absorb_report(self, report: BatchReport) -> None:
        """Count a report's outcomes into the ``exec.*`` telemetry."""
        for status, count in report.counts().items():
            self.metrics.inc(f"exec.{status}", count)

    # --- lookups ---------------------------------------------------------------
    def _lookup(self, key: str, kind: str, rehydrate):
        """The hit path: key -> store -> rehydrate -> count.

        Returns ``None`` on a miss — nothing stored, or a stored payload
        whose schema drifted — after counting it as one.  No request is
        built here; only a miss pays for that.
        """
        cached = self.store.get(key)
        value = None
        if cached is not None:
            value = rehydrate(cached)
            if value is None:
                self.store.record_schema_mismatch(key)
        hit = value is not None
        self.metrics.inc("runner.hits" if hit else "runner.misses")
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "run.hit" if hit else "run.miss", cat="run",
                args={"kind": kind},
            )
        return value

    def _absorb_result(self, result: SimulationResult) -> None:
        """Mirror a computed result's event counts into the registry."""
        for name, value in result.counters().items():
            self.metrics.inc(f"sim.{name}", value)

    # --- lazy in-process execution ---------------------------------------------
    def _execute(self, request: "_parallel.RunRequest") -> dict:
        """Run one miss here and now; returns the stored payload.

        The lazy path is the batch path's contract at one attempt: a
        tripped config on a ``keep_going`` policy is refused before it
        computes (the CLI's keep-going handler skips it), the attempt
        body is :func:`repro.analysis.parallel.execute_attempt` — fault
        injection and paranoia mode included — and the outcome reaches
        the ledger and the ``exec.*`` telemetry before a failure's
        original exception propagates.
        """
        # Serial campaigns drain at run granularity: a requested
        # shutdown stops before the next compute starts (everything
        # completed so far is already flushed, flush_every=1).
        get_coordinator().check()
        refusal = self.ledger.refusal(request, self.policy)
        if refusal is not None:
            raise ExecutionError(refusal)
        try:
            key, shard, payload = _parallel.execute_attempt(
                request, 1, allow_exit=False
            )
        except Exception as error:
            self._settle(
                RunOutcome.of(
                    request, failure_status(error), 1, traceback.format_exc()
                )
            )
            raise
        self._settle(RunOutcome.of(request, OK, 1))
        self.store.put(key, payload, shard=shard)
        return payload

    def _settle(self, outcome: RunOutcome) -> None:
        report = BatchReport(outcomes=(outcome,))
        self.ledger.record(report.outcomes)
        self._absorb_report(report)

    # --- timing runs ------------------------------------------------------------
    # A miss returns the rehydrated stored payload: what the next hit will.
    def simulate(
        self,
        spec: BenchmarkSpec,
        num_sms: int,
        work_scale: float = 1.0,
        seed: int = 0,
    ) -> SimulationResult:
        key = sim_key(spec, num_sms, work_scale, seed)
        result = self._lookup(key, "sim", result_from_payload)
        if result is None:
            request = _parallel.RunRequest(
                "sim", spec, num_sms, work_scale, seed
            )
            result = result_from_payload(self._execute(request))
            self._absorb_result(result)
        return result

    def simulate_mcm(
        self,
        spec: BenchmarkSpec,
        num_chiplets: int,
        work_scale: float,
        seed: int = 0,
    ) -> SimulationResult:
        key = mcm_key(spec, num_chiplets, work_scale, seed)
        result = self._lookup(key, "mcm", result_from_payload)
        if result is None:
            request = _parallel.RunRequest(
                "mcm", spec, num_chiplets, work_scale, seed
            )
            result = result_from_payload(self._execute(request))
            self._absorb_result(result)
        return result

    # --- miss-rate curves ------------------------------------------------------
    def miss_rate_curve(
        self,
        spec: BenchmarkSpec,
        work_scale: float = 1.0,
        method: str = "stack",
        seed: int = 0,
    ) -> MissRateCurve:
        key = mrc_key(spec, work_scale, method, seed)
        curve = self._lookup(key, "mrc", safe_curve_from_payload)
        if curve is None:
            request = _parallel.RunRequest(
                "mrc", spec, work_scale=work_scale, seed=seed, method=method
            )
            curve = curve_from_payload(self._execute(request))
        return curve

    # --- housekeeping ----------------------------------------------------------
    def _exec_counts(self) -> Dict[str, int]:
        return {
            name: self.metrics.counter(f"exec.{name}").value
            for name in _EXEC_COUNTERS
        }

    def stats(self) -> Dict[str, int]:
        """This run's runner + store + execution counters (hits, misses,
        flushes, quarantines, failed/timed-out/retried runs, pool
        deaths), read without loading a shard the run did not touch."""
        merged = self.store.counters()
        merged["runner_hits"] = self.hits
        merged["runner_misses"] = self.misses
        merged["jobs"] = self.jobs
        for name, value in self._exec_counts().items():
            merged[f"exec_{name}"] = value
        return merged

    def execution_health(self) -> str:
        """One-line end-of-run execution summary for CLI/script output:
        :func:`repro.analysis.faults.health_sentence` over every run
        this runner executed, lazy or prefetched."""
        return health_sentence(self._exec_counts())

    def flush(self) -> None:
        self.store.flush()

    def clear(self) -> None:
        self.store.clear()
