"""Parallel, fault-tolerant execution of simulation batches.

The experiment harness is embarrassingly parallel: every figure/table is
a set of independent (benchmark, size) runs, each a pure function of its
spec, scale and seed.  :class:`ParallelRunner` takes a batch of
:class:`RunRequest` descriptors, drops the ones the result store already
has, executes the misses across a ``ProcessPoolExecutor`` and merges the
results back into the store in deterministic (key-sorted) order.

Faults are isolated per run, never per batch:

* Runs are submitted individually, so one raising worker costs one run.
* Failed attempts are retried with exponential backoff, up to
  ``ExecutionPolicy.max_retries`` times.
* A per-run timeout watchdog (``ExecutionPolicy.run_timeout``) abandons
  hung runs and recycles the pool so their workers stop occupying slots.
* ``BrokenProcessPool`` (worker OOM/segfault) respawns the pool and
  resumes the remaining runs; after ``max_pool_deaths`` deaths the batch
  degrades to serial in-process execution.
* Completed results always merge into the store — even when the batch
  ultimately raises :class:`repro.exceptions.ExecutionError` — and every
  casualty lands in the append-only failure manifest
  (``results/failures/<shard>.jsonl``) with enough context to re-run.
* A graceful shutdown (SIGINT/SIGTERM through
  :mod:`repro.resilience`, or a bare ``KeyboardInterrupt``) *drains*:
  nothing new starts, in-flight runs finish and merge, undone runs are
  recorded ``interrupted``, and only then does the batch re-raise so
  the CLI can exit resumable.
* ``MemoryError`` under the ``REPRO_MAX_RSS`` ceiling is terminal for
  that run (status ``oom``, never retried); the pool initializer
  applies the ceiling per worker and ignores SIGINT so the coordinator
  owns the drain.
* On ``keep_going`` batches the per-config circuit breaker
  (:class:`repro.analysis.faults.FailureLedger`) skips configs with a
  streak of terminal failures (``--retry-quarantined`` re-arms them; a
  success closes the streak).

:func:`execute_attempt` is the one body of a run attempt: this module's
serial and pool paths, the lazy misses of
:class:`repro.analysis.runner.CachedRunner` and the service's worker
slots all execute through it.

Serial execution of the same batch produces identical payloads for every
deterministic field; only ``wall_time_s`` (a host-time measurement)
differs between executions.
"""

from __future__ import annotations

import heapq
import itertools
import signal
import time
import traceback
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.analysis import runner as _runner
from repro.analysis.faults import (
    INTERRUPTED,
    OK,
    SKIPPED,
    TIMEOUT,
    BatchReport,
    ExecutionPolicy,
    FailureLedger,
    RunOutcome,
    failure_status,
    maybe_inject,
    retryable,
)
from repro.analysis.simcache import ResultStore, sibling_dir
from repro.exceptions import ExecutionError, ReproError, ShutdownRequested
from repro.obs.metrics import get_registry
from repro.obs.profile_hooks import ensure_worker
from repro.obs.tracing import get_tracer
from repro.resilience import apply_memory_limit, get_coordinator
from repro.verify.runtime import ensure_paranoia
from repro.workloads.spec import BenchmarkSpec

__all__ = [
    "RunRequest",
    "ParallelRunner",
    "execute_request",
    "execute_attempt",
    "worker_init",
    "shutdown_pool",
]

KINDS = ("sim", "mcm", "mrc")


@dataclass(frozen=True)
class RunRequest:
    """One pending run: a timing sim, an MCM sim or an MRC collection.

    ``size`` is the SM count for ``sim``, the chiplet count for ``mcm``
    and unused for ``mrc``; ``method`` only applies to ``mrc``.
    """

    kind: str
    spec: BenchmarkSpec
    size: int = 0
    work_scale: float = 1.0
    seed: int = 0
    method: str = "stack"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ReproError(f"unknown run kind {self.kind!r}")

    @cached_property
    def key(self) -> str:
        """The run's cache key, derived on first use and kept for the
        request's life: it is asked for at every hand-off (lookup,
        journal, manifest, merge).  A request is a frozen value — to
        change the run, ``dataclasses.replace`` it (a new request, a new
        key) rather than mutating the spec's ``params`` underneath it."""
        if self.kind == "sim":
            return _runner.sim_key(self.spec, self.size, self.work_scale, self.seed)
        if self.kind == "mcm":
            return _runner.mcm_key(self.spec, self.size, self.work_scale, self.seed)
        return _runner.mrc_key(self.spec, self.work_scale, self.method, self.seed)


def execute_request(request: RunRequest) -> Tuple[str, str, dict]:
    """Run one request to completion; returns ``(key, shard, payload)``.

    Module-level and pure so it pickles into pool workers; also the
    serial fallback, so both paths share one implementation.
    """
    if request.kind == "sim":
        result = _runner.compute_sim(
            request.spec, request.size, request.work_scale, request.seed
        )
        payload = asdict(result)
    elif request.kind == "mcm":
        result = _runner.compute_mcm(
            request.spec, request.size, request.work_scale, request.seed
        )
        payload = asdict(result)
    else:
        curve = _runner.compute_mrc(
            request.spec, request.work_scale, request.method, request.seed
        )
        payload = _runner.curve_payload(curve)
    return request.key, request.spec.abbr, payload


def execute_attempt(
    request: RunRequest, attempt: int = 1, allow_exit: bool = True
) -> Tuple[str, str, dict]:
    """One guarded attempt: fault injection first, then the real run.

    The attempt number travels with the call so ``fail:<prefix>:<n>``
    directives behave deterministically even though worker processes
    share no state.  Returns ``(key, shard, payload)``, like
    :func:`execute_request`.

    This is also the pool workers' observability entry point:
    :func:`repro.obs.profile_hooks.ensure_worker` turns recording on when
    ``REPRO_OBS`` is set (one env lookup otherwise) and the attempt's
    spans spill to ``REPRO_OBS_SPILL`` before the worker moves on, so
    the parent's exporter sees them even if the worker dies later.
    """
    ensure_worker()
    # Same self-arm for paranoia mode: pool workers inherit REPRO_VERIFY
    # through the environment, so a --verify campaign checks every run
    # regardless of which process executes it.  MRC collections in
    # particular never pass through a simulator's own self-arm.
    ensure_paranoia()
    tracer = get_tracer()
    try:
        with tracer.span(
            f"attempt:{request.spec.abbr}", cat="run",
            kind=request.kind, attempt=attempt,
        ):
            maybe_inject(
                request.key, request.kind, request.spec.abbr, attempt,
                allow_exit=allow_exit,
            )
            return execute_request(request)
    finally:
        if tracer.enabled and tracer.spill_dir:
            tracer.flush_spill()


def worker_init() -> None:
    """Pool-worker bootstrap, run once per worker process.

    Workers share the foreground process group, so an operator Ctrl-C
    delivers SIGINT to every worker too — ignored here, because the
    *coordinator* owns the drain: in-flight runs must finish and have
    their results collected, not die mid-computation.  SIGTERM is reset
    to its *default* — forked workers inherit the coordinator's drain
    handler from the parent, which would otherwise swallow the SIGTERM
    that :func:`shutdown_pool` uses to put down hung workers.  The
    optional ``REPRO_MAX_RSS`` ceiling is applied per worker for the
    same reason: one pathological run should raise :class:`MemoryError`
    in its own process, not invite the OOM killer.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):
        pass
    apply_memory_limit()


def shutdown_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on hung or dead workers.

    ``shutdown(wait=True)`` would block forever behind a hung run, so
    workers are terminated outright; every task we still care about has
    already been retrieved or will be resubmitted to a fresh pool.
    """
    workers = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for worker in workers:
        try:
            worker.terminate()
        except Exception:
            pass


class _BatchState:
    """Mutable pool-health bookkeeping threaded through one batch."""

    def __init__(self) -> None:
        self.pool_deaths = 0
        self.degraded = False


def _park(
    outcomes: Dict[str, RunOutcome],
    request: RunRequest,
    attempts: int,
    what: str = "run",
) -> None:
    """Mark a run a graceful shutdown kept from (re)starting."""
    outcomes[request.key] = RunOutcome.of(
        request, INTERRUPTED, attempts,
        f"graceful shutdown: {what} was never started",
    )


class ParallelRunner:
    """Executes the cache misses of a request batch across processes.

    ``policy`` governs retries, timeouts and degradation (see
    :class:`repro.analysis.faults.ExecutionPolicy`).  ``ledger`` is the
    failure accounting the batch gates on and records to; a
    :class:`repro.analysis.runner.CachedRunner` passes its own so lazy
    and batch runs share one, and a standalone runner opens the ledger
    of ``<store parent>/failures/`` (memory-only for a memory-only
    store).
    """

    def __init__(
        self,
        store: ResultStore,
        jobs: int = 0,
        policy: Optional[ExecutionPolicy] = None,
        ledger: Optional[FailureLedger] = None,
    ) -> None:
        self.store = store
        self.jobs = jobs if jobs >= 1 else _runner.default_jobs()
        self.policy = policy or ExecutionPolicy()
        self.ledger = ledger or FailureLedger(
            sibling_dir(store.root, "failures"), self.policy.breaker_threshold
        )
        self.last_report = BatchReport()

    def run_batch(self, requests: Iterable[RunRequest]) -> int:
        """Compute every miss in ``requests``; returns the executed count.

        Thin wrapper over :meth:`run_batch_report` for callers that only
        need the count.
        """
        return self.run_batch_report(requests).executed

    def run_batch_report(self, requests: Iterable[RunRequest]) -> BatchReport:
        """Compute every miss in ``requests``; returns the full report.

        Duplicate descriptors are collapsed; results merge into the
        store sorted by key, so the shard contents do not depend on
        worker scheduling.  Completed results are merged *before* any
        failure propagates; every outcome is reported to the ledger and
        — unless ``policy.keep_going`` — failures are raised as one
        :class:`repro.exceptions.ExecutionError` at the end.

        A graceful shutdown (:class:`repro.exceptions.ShutdownRequested`
        from the coordinator, or a bare :class:`KeyboardInterrupt`)
        honours the same contract: completed results merge, unfinished
        runs land in the manifest as ``interrupted``, and the exception
        re-raises only afterwards — so the CLI boundary can exit with
        the resumable code without losing anything.
        """
        unique: Dict[str, RunRequest] = {}
        for request in requests:
            unique.setdefault(request.key, request)
        pending = [
            request
            for key, request in unique.items()
            if not self.store.contains(key)
        ]
        tracer = get_tracer()
        start_us = 0.0
        if tracer.enabled:
            start_us = tracer.now_us()
            tracer.instant(
                "batch.submit", cat="run",
                args={"requested": len(unique), "pending": len(pending)},
            )
        if not pending:
            self.last_report = BatchReport()
            return self.last_report
        outcomes: Dict[str, RunOutcome] = {}
        executed: List[Tuple[str, str, dict]] = []
        state = _BatchState()
        pending = self._skip_tripped(pending, outcomes)
        shutdown: Optional[BaseException] = None
        try:
            if pending:
                if self.jobs <= 1 or len(pending) == 1:
                    self._run_serial(
                        [(request, 1) for request in pending],
                        outcomes, executed,
                    )
                else:
                    self._run_pool(pending, outcomes, executed, state)
        except (ShutdownRequested, KeyboardInterrupt) as exc:
            # Partial-progress contract for interrupts too: fall through
            # to the merge/manifest below, then re-raise.
            shutdown = exc
        finally:
            # Whatever completed must reach the store even if the
            # coordination loop itself blew up.
            self._merge(executed)
        if shutdown is not None:
            for request in pending:
                if request.key not in outcomes:
                    _park(outcomes, request, 0)
        report = BatchReport(
            outcomes=tuple(outcomes[key] for key in sorted(outcomes)),
            pool_deaths=state.pool_deaths,
            degraded_to_serial=state.degraded,
        )
        self.last_report = report
        self.ledger.record(report.outcomes)
        if tracer.enabled:
            # Before any failure propagates: a batch that raises counts too.
            wall_us = tracer.now_us() - start_us
            tracer.complete("batch", "run", start_us, wall_us)
            registry = get_registry()
            registry.observe("batch.wall_us", wall_us)
            for status, count in report.counts().items():
                registry.inc(f"batch.{status}", count)
        if shutdown is not None:
            raise shutdown
        failures = report.failures
        if failures and not self.policy.keep_going:
            where = (
                f"; failure manifest: {self.ledger.root}"
                if self.ledger.root
                else ""
            )
            raise ExecutionError(
                f"{len(failures)} of {len(pending)} runs failed "
                f"({report.summary()}); {report.executed} completed "
                f"results were saved{where}"
            )
        return report

    def _skip_tripped(
        self,
        pending: List[RunRequest],
        outcomes: Dict[str, RunOutcome],
    ) -> List[RunRequest]:
        """Drop the configs the ledger refuses under this policy.

        Refused runs get a ``skipped`` outcome: zero attempts, not
        re-recorded in the manifest.
        """
        kept: List[RunRequest] = []
        for request in pending:
            refusal = self.ledger.refusal(request, self.policy)
            if refusal is None:
                kept.append(request)
            else:
                outcomes[request.key] = RunOutcome.of(
                    request, SKIPPED, 0, refusal
                )
        skipped = len(pending) - len(kept)
        if skipped:
            warnings.warn(
                f"circuit breaker: skipping {skipped} config(s) with "
                f">= {self.ledger.threshold} consecutive terminal failures "
                "on record; rerun with --retry-quarantined to retry them"
            )
        return kept

    # --- execution paths -------------------------------------------------------
    def _conclude(
        self,
        request: RunRequest,
        attempt: int,
        result: Callable[[], Tuple[str, str, dict]],
        outcomes: Dict[str, RunOutcome],
        executed: List[Tuple[str, str, dict]],
        draining: bool = False,
    ) -> bool:
        """Fold one finished attempt into the batch; True means retry.

        ``result`` returns what :func:`execute_attempt` returned or
        raises what it raised (``future.result`` on the pool paths).
        A success is staged for the merge.  A failure with retry budget
        left returns True — the caller re-queues the run at
        ``attempt + 1`` after ``policy.backoff(attempt)`` — and any
        other failure is terminal.  ``BrokenProcessPool`` is the pool's
        failure, not the run's, and propagates.  While ``draining``
        nothing is retried and a casualty says nothing about the config,
        so it is recorded ``interrupted``.
        """
        try:
            key, shard, payload = result()
        except Exception as error:
            if draining:
                outcomes[request.key] = RunOutcome.of(
                    request, INTERRUPTED, attempt,
                    "graceful shutdown: attempt failed while draining:\n"
                    + traceback.format_exc(),
                )
                return False
            if isinstance(error, BrokenProcessPool):
                raise
            if retryable(error) and attempt <= self.policy.max_retries:
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.instant(
                        "run.retry", cat="run",
                        args={"key": request.key, "attempt": attempt},
                    )
                return True
            outcomes[request.key] = RunOutcome.of(
                request, failure_status(error), attempt,
                traceback.format_exc(),
            )
            return False
        executed.append((key, shard, payload))
        outcomes[request.key] = RunOutcome.of(request, OK, attempt)
        return False

    def _run_serial(
        self,
        items: List[Tuple[RunRequest, int]],
        outcomes: Dict[str, RunOutcome],
        executed: List[Tuple[str, str, dict]],
    ) -> None:
        """In-process execution with retries; also the degradation path.

        Per-run timeouts cannot be enforced from within the executing
        process, so ``run_timeout`` only applies to pool execution.
        Between runs the shutdown coordinator is consulted: a requested
        drain marks the not-yet-started remainder ``interrupted`` and
        raises, leaving completed results for the caller to merge.
        """
        coordinator = get_coordinator()
        for index, (request, attempt) in enumerate(items):
            if coordinator.requested:
                for late_request, late_attempt in items[index:]:
                    _park(outcomes, late_request, late_attempt - 1)
                coordinator.check()
            while self._conclude(
                request, attempt,
                lambda: execute_attempt(request, attempt, allow_exit=False),
                outcomes, executed,
            ):
                time.sleep(self.policy.backoff(attempt))
                attempt += 1

    def _run_pool(
        self,
        pending: List[RunRequest],
        outcomes: Dict[str, RunOutcome],
        executed: List[Tuple[str, str, dict]],
        state: _BatchState,
    ) -> None:
        policy = self.policy
        coordinator = get_coordinator()
        workers = min(self.jobs, len(pending))
        queue = deque((request, 1) for request in pending)
        # Min-heap of (ready_time, seq, request, attempt); seq breaks
        # ties because RunRequest does not order.
        retries: List[Tuple[float, int, RunRequest, int]] = []
        seq = itertools.count()
        inflight: Dict = {}  # future -> (request, attempt, deadline)

        def spawn() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=workers, initializer=worker_init
            )

        pool = spawn()
        try:
            while queue or retries or inflight:
                if coordinator.requested:
                    self._drain(inflight, queue, retries, outcomes, executed)
                    coordinator.check()  # raises ShutdownRequested
                now = time.monotonic()
                while retries and retries[0][0] <= now:
                    _, _, request, attempt = heapq.heappop(retries)
                    queue.append((request, attempt))
                broken = False
                # Keep at most ``workers`` runs in flight so each run's
                # timeout clock starts when it actually starts running.
                while queue and len(inflight) < workers:
                    request, attempt = queue.popleft()
                    deadline = (
                        now + policy.run_timeout
                        if policy.run_timeout
                        else float("inf")
                    )
                    try:
                        future = pool.submit(
                            execute_attempt, request, attempt, True
                        )
                    except (BrokenProcessPool, RuntimeError):
                        queue.appendleft((request, attempt))
                        broken = True
                        break
                    inflight[future] = (request, attempt, deadline)
                if not broken and not inflight:
                    if retries:
                        time.sleep(
                            max(0.0, retries[0][0] - time.monotonic())
                        )
                        continue
                    break
                if not broken:
                    next_deadline = min(d for _, _, d in inflight.values())
                    next_retry = retries[0][0] if retries else float("inf")
                    horizon = min(next_deadline, next_retry)
                    timeout = (
                        None
                        if horizon == float("inf")
                        else max(0.01, horizon - time.monotonic())
                    )
                    done, _ = wait(
                        set(inflight), timeout=timeout,
                        return_when=FIRST_COMPLETED,
                    )
                    for future in done:
                        request, attempt, _ = inflight.pop(future)
                        try:
                            retry = self._conclude(
                                request, attempt, future.result,
                                outcomes, executed,
                            )
                        except BrokenProcessPool:
                            # The casualty is unknown (any worker may have
                            # died); resubmit at the same attempt number.
                            queue.append((request, attempt))
                            broken = True
                            continue
                        if retry:
                            heapq.heappush(
                                retries,
                                (
                                    time.monotonic() + policy.backoff(attempt),
                                    next(seq),
                                    request,
                                    attempt + 1,
                                ),
                            )
                if broken:
                    for future, (request, attempt, _) in inflight.items():
                        queue.append((request, attempt))
                    inflight.clear()
                    state.pool_deaths += 1
                    tracer = get_tracer()
                    if tracer.enabled:
                        tracer.instant(
                            "pool.death", cat="run",
                            args={"deaths": state.pool_deaths},
                        )
                    shutdown_pool(pool)
                    if state.pool_deaths >= policy.max_pool_deaths:
                        state.degraded = True
                        if tracer.enabled:
                            tracer.instant(
                                "pool.degrade", cat="run",
                                args={
                                    "remaining": len(queue) + len(retries),
                                },
                            )
                        warnings.warn(
                            f"parallel runner: worker pool died "
                            f"{state.pool_deaths} times; degrading to "
                            f"serial execution for the remaining "
                            f"{len(queue) + len(retries)} runs"
                        )
                        remaining = list(queue) + [
                            (request, attempt)
                            for _, _, request, attempt in sorted(retries)
                        ]
                        queue.clear()
                        retries.clear()
                        self._run_serial(remaining, outcomes, executed)
                        return
                    pool = spawn()
                    continue
                # Per-run timeout sweep: abandon expired runs, recycle the
                # pool (a hung worker keeps its slot forever otherwise)
                # and resubmit the innocent in-flight runs.
                now = time.monotonic()
                expired = [
                    future
                    for future, (_, _, deadline) in inflight.items()
                    if deadline <= now
                ]
                if expired:
                    tracer = get_tracer()
                    for future in expired:
                        request, attempt, _ = inflight.pop(future)
                        future.cancel()
                        if tracer.enabled:
                            tracer.instant(
                                "run.timeout", cat="run",
                                args={"key": request.key, "attempt": attempt},
                            )
                        outcomes[request.key] = RunOutcome.of(
                            request, TIMEOUT, attempt,
                            f"run exceeded the per-run timeout of "
                            f"{policy.run_timeout}s",
                        )
                    for future, (request, attempt, _) in inflight.items():
                        future.cancel()
                        queue.append((request, attempt))
                    inflight.clear()
                    shutdown_pool(pool)
                    pool = spawn()
        finally:
            shutdown_pool(pool)

    def _drain(
        self,
        inflight: Dict,
        queue,
        retries: List,
        outcomes: Dict[str, RunOutcome],
        executed: List[Tuple[str, str, dict]],
    ) -> None:
        """First-signal drain: collect in-flight runs, park the rest.

        Nothing new is submitted.  Runs already executing are waited for
        (bounded by their own timeout deadlines, unbounded otherwise — a
        second signal force-quits) and their results collected; runs
        still queued or awaiting a retry slot are marked ``interrupted``
        with zero new attempts, so the manifest lists exactly what a
        rerun needs to pick up.
        """
        for request, attempt in queue:
            _park(outcomes, request, attempt - 1)
        for _, _, request, attempt in retries:
            _park(outcomes, request, attempt - 1, what="retry")
        queue.clear()
        retries.clear()
        if not inflight:
            return
        deadline = max(d for _, _, d in inflight.values())
        timeout = (
            None
            if deadline == float("inf")
            else max(0.01, deadline - time.monotonic())
        )
        done, not_done = wait(set(inflight), timeout=timeout)
        for future in done:
            request, attempt, _ = inflight.pop(future)
            self._conclude(
                request, attempt, future.result, outcomes, executed,
                draining=True,
            )
        for future in not_done:
            request, attempt, _ = inflight.pop(future)
            future.cancel()
            outcomes[request.key] = RunOutcome.of(
                request, INTERRUPTED, attempt,
                "graceful shutdown: run abandoned at its timeout deadline",
            )
        inflight.clear()

    # --- merging ---------------------------------------------------------------
    def _merge(self, executed: List[Tuple[str, str, dict]]) -> None:
        """Merge completed results as one batched, key-sorted flush."""
        if not executed:
            return
        previous = self.store.flush_every
        self.store.flush_every = len(executed) + 1
        try:
            for key, shard, payload in sorted(executed, key=lambda item: item[0]):
                self.store.put(key, payload, shard=shard)
        finally:
            # Restore the batching window and flush whatever was staged
            # even if a put raised mid-merge — the store must never be
            # left holding unflushed records with an inflated window.
            self.store.flush_every = previous
            self.store.flush()
