"""Cached simulation running for the experiment harness.

Every table/figure of the paper reuses the same underlying runs (scale
models, targets, miss-rate curves).  :class:`CachedRunner` memoizes them
on disk keyed by a digest of the benchmark spec, the scenario and the
system configuration; editing a generator parameter in the catalog —
including a kernel's ``work_share`` — automatically invalidates the
affected entries.

Persistence goes through :class:`repro.analysis.simcache.ResultStore`:
one append-only JSONL shard per benchmark under ``results/simcache/``,
tolerant of corruption and crash-safe (see that module's docstring).  A
legacy single-file ``results/simcache.json`` is imported transparently.

Cache misses can be fanned out across processes: build the run list up
front, wrap each run in a :class:`repro.analysis.parallel.RunRequest`
and call :meth:`CachedRunner.prefetch`.  Parallel and serial execution
produce identical results for every deterministic field — each run is a
pure function of (spec, scale, seed); only ``wall_time_s``, a host-time
measurement, varies between executions.

Execution is fault-tolerant (see :mod:`repro.analysis.faults` and
``docs/ARCHITECTURE.md`` § "Fault tolerance"): worker failures are
isolated per run, retried, timed out and recorded; completed results
always reach the store, and :meth:`CachedRunner.execution_health`
summarizes the casualties.  Cached payloads whose schema drifted (e.g.
after a field was added to :class:`SimulationResult`) degrade to a miss
plus a ``schema_mismatches`` stat, never a ``TypeError``.
"""

from __future__ import annotations

import hashlib
import os
import traceback
import warnings
from dataclasses import MISSING, asdict, fields
from functools import lru_cache
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.analysis.faults import (
    FAILED,
    OK,
    OOM,
    BatchReport,
    ExecutionPolicy,
    FailureManifest,
    RunOutcome,
    kernel_kill_hook,
    maybe_inject,
)
from repro.analysis.simcache import ResultStore
from repro.checkpoint import CheckpointPolicy, default_checkpoint_interval
from repro.exceptions import ExecutionError, ReproError
from repro.resilience import CircuitBreaker, get_coordinator, tolerant_env
from repro.verify.runtime import ensure_paranoia
from repro.gpu import GPUConfig, McmConfig, simulate, simulate_mcm
from repro.gpu.results import SimulationResult
from repro.mrc import MissRateCurve, collect_miss_rate_curve
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import get_tracer
from repro.workloads import build_trace
from repro.workloads.spec import BenchmarkSpec, KernelShape

DEFAULT_CACHE = os.path.join("results", "simcache")


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else ``cpu_count() - 1``."""
    jobs = tolerant_env("REPRO_JOBS", None, int, expected="an integer")
    if jobs is not None:
        return max(1, jobs)
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
    payload = repr(
        (
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
    spec: BenchmarkSpec,
    num_sms: int,
    work_scale: float,
    seed: int,
    checkpointer=None,
) -> SimulationResult:
    config = GPUConfig.paper_baseline().scaled(num_sms)
    trace = build_trace(
        spec,
        work_scale=work_scale,
        capacity_scale=config.capacity_scale,
        seed=seed,
    )
    return simulate(config, trace, checkpointer=checkpointer)


def compute_mcm(
    spec: BenchmarkSpec,
    num_chiplets: int,
    work_scale: float,
    seed: int,
    checkpointer=None,
) -> SimulationResult:
    config = McmConfig.paper_target().scaled(num_chiplets)
    trace = build_trace(
        spec,
        work_scale=work_scale,
        capacity_scale=config.chiplet.capacity_scale,
        seed=seed,
    )
    return simulate_mcm(config, trace, checkpointer=checkpointer)


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


def default_checkpoint_policy(
    cache_path: Optional[str],
    interval: Optional[int] = None,
    resume: bool = True,
    root: Optional[str] = None,
) -> Optional[CheckpointPolicy]:
    """The checkpoint policy matching a cache location.

    Checkpoints live beside the result store and the failure manifest
    (``<cache parent>/checkpoints/``) unless ``root`` overrides the
    location.  A memory-only cache (``cache_path=None``) without an
    explicit ``root`` disables checkpointing — there is no durable
    result for the snapshots to protect.  ``interval=None`` defers to
    ``REPRO_CHECKPOINT_INTERVAL`` (default: every kernel boundary).
    """
    if root is None:
        store_root, _ = _resolve_cache_path(cache_path)
        if not store_root:
            return None
        root = os.path.join(os.path.dirname(store_root) or ".", "checkpoints")
    return CheckpointPolicy(
        root=root,
        interval=(
            interval if interval is not None else default_checkpoint_interval()
        ),
        resume=resume,
    )


def _resolve_cache_path(
    cache_path: Optional[str],
) -> Tuple[Optional[str], Optional[str]]:
    """Map a user-facing cache path to ``(store_root, legacy_json_path)``.

    A ``.json`` path (the pre-sharding cache location) selects the
    sibling directory as the store root and imports the file itself;
    anything else is the store root directly, with ``<root>.json``
    imported when present.
    """
    if cache_path is None:
        return None, None
    if cache_path.endswith(".json"):
        return cache_path[: -len(".json")], cache_path
    return cache_path, cache_path + ".json"


class CachedRunner:
    """Runs (and memoizes) timing simulations and MRC collections.

    ``jobs`` sets the worker-pool size used by :meth:`prefetch`; the
    individual ``simulate``/``miss_rate_curve`` calls always execute
    in-process so their results are bit-identical regardless of ``jobs``.
    """

    def __init__(
        self,
        cache_path: Optional[str] = DEFAULT_CACHE,
        jobs: Optional[int] = None,
        policy: Optional[ExecutionPolicy] = None,
        checkpoint: Optional[CheckpointPolicy] = None,
    ) -> None:
        self.cache_path = cache_path
        root, legacy = _resolve_cache_path(cache_path)
        self.store = ResultStore(root, legacy_path=legacy)
        self.jobs = jobs if jobs is not None else 1
        self.policy = policy
        if checkpoint is None:
            checkpoint = default_checkpoint_policy(cache_path)
        self.checkpoint = checkpoint
        self.last_report: Optional[BatchReport] = None
        # The lazy in-process paths share the pool path's failure
        # manifest (and therefore its circuit breaker): serial runs must
        # feed the same per-config failure accounting as parallel ones.
        manifest_root = (
            os.path.join(os.path.dirname(self.store.root) or ".", "failures")
            if self.store.root
            else None
        )
        self.manifest = FailureManifest(manifest_root)
        self._breaker: Optional[CircuitBreaker] = None
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
        from repro.analysis.parallel import ParallelRunner

        runner = ParallelRunner(
            self.store, jobs=self.jobs, policy=self.policy,
            checkpoint=self.checkpoint,
        )
        try:
            return runner.run_batch(requests)
        finally:
            self._absorb_report(runner.last_report)

    def _absorb_report(self, report: Optional[BatchReport]) -> None:
        if report is None:
            return
        self.last_report = report
        for status, count in report.counts().items():
            self.metrics.inc(f"exec.{status}", count)

    def _checkpointer_for(self, key: str, kind: str, shard: str):
        """Per-run checkpointer for the lazy in-process path, or None.

        ``allow_exit=False``: an injected ``die-at-kernel`` crash raises
        instead of killing the host process, mirroring serial execution
        everywhere else.
        """
        if self.checkpoint is None:
            return None
        return self.checkpoint.checkpointer_for(
            key,
            on_checkpoint=kernel_kill_hook(key, kind, shard, allow_exit=False),
        )

    # --- cache telemetry -------------------------------------------------------
    def _record_hit(self, kind: str) -> None:
        self.metrics.inc("runner.hits")
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant("run.hit", cat="run", args={"kind": kind})

    def _record_miss(self, kind: str) -> None:
        self.metrics.inc("runner.misses")
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant("run.miss", cat="run", args={"kind": kind})

    def _absorb_result(self, result: SimulationResult) -> None:
        """Mirror a computed result's event counts into the registry."""
        for name, value in result.counters().items():
            self.metrics.inc(f"sim.{name}", value)

    # --- resilience (lazy in-process paths) ------------------------------------
    def _lazy_breaker(self) -> CircuitBreaker:
        if self._breaker is None:
            policy = self.policy or ExecutionPolicy()
            self._breaker = CircuitBreaker(
                self.manifest.root, policy.breaker_threshold
            )
        return self._breaker

    def _run_guarded(
        self,
        key: str,
        kind: str,
        shard: str,
        compute: Callable[[], object],
        size: int = 0,
        work_scale: float = 1.0,
        seed: int = 0,
        method: str = "stack",
    ):
        """Breaker gate + manifest accounting around one lazy run.

        Mirrors the pool path's contract for serial execution: a tripped
        config on a ``keep_going`` policy raises immediately (the CLI's
        keep-going handler skips it without burning a compute attempt),
        a failed compute lands in the failure manifest before the
        exception propagates, and a success after recorded failures
        appends the ``ok`` record that closes the breaker streak.
        """
        # Serial campaigns drain at run granularity: a requested
        # shutdown stops before the next compute starts (everything
        # completed so far is already flushed, flush_every=1).
        get_coordinator().check()
        # Self-arm paranoia mode for the lazy in-process paths — MRC
        # collections in particular never pass through a simulator's own
        # self-arm, and the curve check hooks this module's compute_mrc.
        ensure_paranoia()
        policy = self.policy or ExecutionPolicy()
        breaker = self._lazy_breaker()
        if (
            policy.keep_going
            and not policy.retry_quarantined
            and breaker.tripped(key)
        ):
            raise ExecutionError(
                f"circuit breaker open for {kind}|{shard}: "
                f"{breaker.consecutive_failures(key)} consecutive terminal "
                f"failures in {self.manifest.root}; rerun with "
                "--retry-quarantined to retry this config"
            )

        def outcome(status: str, error: Optional[str] = None) -> RunOutcome:
            return RunOutcome(
                key=key, kind=kind, shard=shard, status=status,
                attempts=1, error=error, size=size,
                work_scale=work_scale, seed=seed, method=method,
            )

        try:
            result = compute()
        except Exception as error:
            status = OOM if isinstance(error, MemoryError) else FAILED
            self.manifest.append([outcome(status, traceback.format_exc())])
            raise
        if breaker.enabled and breaker.consecutive_failures(key) > 0:
            self.manifest.append([outcome(OK)])
        return result

    # --- timing runs ------------------------------------------------------------
    def simulate(
        self,
        spec: BenchmarkSpec,
        num_sms: int,
        work_scale: float = 1.0,
        seed: int = 0,
    ) -> SimulationResult:
        key = sim_key(spec, num_sms, work_scale, seed)
        cached = self.store.get(key)
        if cached is not None:
            result = result_from_payload(cached)
            if result is not None:
                self._record_hit("sim")
                return result
            self.store.record_schema_mismatch(key)
        self._record_miss("sim")

        def compute() -> SimulationResult:
            # The lazy path is one in-process attempt; the fault-injection
            # hook arms here too so REPRO_FAULT_INJECT exercises the CLIs'
            # keep-going handling end to end, not just the pool workers.
            maybe_inject(key, "sim", spec.abbr, attempt=1, allow_exit=False)
            ckpt = self._checkpointer_for(key, "sim", spec.abbr)
            with get_tracer().span(
                f"run.sim:{spec.abbr}", cat="run", sms=num_sms
            ):
                result = compute_sim(
                    spec, num_sms, work_scale, seed, checkpointer=ckpt
                )
            if ckpt is not None and ckpt.resumed_from is not None:
                self.store.record_resume(ckpt.cycles_saved)
            return result

        result = self._run_guarded(
            key, "sim", spec.abbr, compute,
            size=num_sms, work_scale=work_scale, seed=seed,
        )
        self._absorb_result(result)
        self.store.put(key, asdict(result), shard=spec.abbr)
        return result

    def simulate_mcm(
        self,
        spec: BenchmarkSpec,
        num_chiplets: int,
        work_scale: float,
        seed: int = 0,
    ) -> SimulationResult:
        key = mcm_key(spec, num_chiplets, work_scale, seed)
        cached = self.store.get(key)
        if cached is not None:
            result = result_from_payload(cached)
            if result is not None:
                self._record_hit("mcm")
                return result
            self.store.record_schema_mismatch(key)
        self._record_miss("mcm")

        def compute() -> SimulationResult:
            maybe_inject(key, "mcm", spec.abbr, attempt=1, allow_exit=False)
            ckpt = self._checkpointer_for(key, "mcm", spec.abbr)
            with get_tracer().span(
                f"run.mcm:{spec.abbr}", cat="run", chiplets=num_chiplets
            ):
                result = compute_mcm(
                    spec, num_chiplets, work_scale, seed, checkpointer=ckpt
                )
            if ckpt is not None and ckpt.resumed_from is not None:
                self.store.record_resume(ckpt.cycles_saved)
            return result

        result = self._run_guarded(
            key, "mcm", spec.abbr, compute,
            size=num_chiplets, work_scale=work_scale, seed=seed,
        )
        self._absorb_result(result)
        self.store.put(key, asdict(result), shard=spec.abbr)
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
        cached = self.store.get(key)
        if cached is not None:
            curve = safe_curve_from_payload(cached)
            if curve is not None:
                self._record_hit("mrc")
                return curve
            self.store.record_schema_mismatch(key)
        self._record_miss("mrc")

        def compute() -> MissRateCurve:
            maybe_inject(key, "mrc", spec.abbr, attempt=1, allow_exit=False)
            with get_tracer().span(
                f"run.mrc:{spec.abbr}", cat="run", method=method
            ):
                return compute_mrc(spec, work_scale, method, seed)

        curve = self._run_guarded(
            key, "mrc", spec.abbr, compute,
            work_scale=work_scale, seed=seed, method=method,
        )
        self.store.put(key, curve_payload(curve), shard=spec.abbr)
        return curve

    # --- housekeeping ----------------------------------------------------------
    def _exec_counts(self) -> Dict[str, int]:
        """Execution-outcome counters in their historical ``exec_*`` keys."""
        return {
            f"exec_{status}": self.metrics.counter(f"exec.{status}").value
            for status in (
                "ok", "failed", "timeout", "retries", "pool_deaths",
                "oom", "interrupted", "skipped",
            )
        }

    def stats(self) -> Dict[str, int]:
        """Runner + store + execution telemetry (hits, misses, flushes,
        quarantines, failed/timed-out/retried runs, pool deaths)."""
        merged = self.store.stats()
        merged["runner_hits"] = self.hits
        merged["runner_misses"] = self.misses
        merged["jobs"] = self.jobs
        merged.update(self._exec_counts())
        return merged

    def execution_health(self) -> str:
        """One-line end-of-run execution summary for CLI/script output.

        A formatted view over the runner's metrics registry; the wording
        predates the registry and is kept stable for scripts and tests
        that grep it.
        """
        counts = self._exec_counts()
        text = (
            "execution: {exec_ok} ok, {exec_failed} failed, "
            "{exec_timeout} timed out, {exec_retries} retries, "
            "{exec_pool_deaths} pool deaths".format(**counts)
        )
        # Resilience statuses only appear when present, keeping the
        # baseline wording byte-identical on healthy runs.
        if counts["exec_oom"]:
            text += f", {counts['exec_oom']} out of memory"
        if counts["exec_interrupted"]:
            text += f", {counts['exec_interrupted']} interrupted"
        if counts["exec_skipped"]:
            text += f", {counts['exec_skipped']} skipped (circuit breaker)"
        store = self.store.stats()
        resumed = store.get("checkpoints_resumed", 0)
        if resumed:
            text += (
                f", {resumed} resumed from checkpoints "
                f"({store.get('cycles_saved', 0.0):.0f} cycles saved)"
            )
        if self.last_report is not None and self.last_report.degraded_to_serial:
            text += " (degraded to serial)"
        return text

    def flush(self) -> None:
        self.store.flush()

    def clear(self) -> None:
        self.store.clear()
