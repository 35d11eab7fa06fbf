"""Supervised worker pool: process workers with a watchdog per run.

Each :class:`WorkerSlot` owns a single-process
``ProcessPoolExecutor`` — one slot, one OS process — because the unit
of recycling *is* the process: a hung or dead worker is put down with
:func:`repro.analysis.parallel.shutdown_pool` (terminate, never wait)
and the slot respawns a fresh pool, exactly the watchdog contract the
batch runner established.  Runs execute through the same
:func:`repro.analysis.parallel.execute_attempt` entry point, so fault
injection, memory ceilings and observability hooks behave identically
in batch and service mode.

Every dispatch races three futures:

* the worker result,
* the job's **abort** event (the last interested client gave up — the
  worker is killed, not left burning),
* the job's **deadline** (the run timeout; a hang cannot outlive it).

The :class:`Supervisor` also runs the autoscaler: queue depth above
zero grows the fleet toward ``workers_max``; a slot that has polled an
empty queue ``scale_down_idle_polls`` times retires itself down to
``workers_min``.  Scaling decisions are taken by the slots themselves
against a shared target — there is no central scaling actor to hang.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional

from repro.analysis.faults import (
    FAILED as RUN_FAILED,
    INTERRUPTED as RUN_INTERRUPTED,
    OK as RUN_OK,
    TIMEOUT as RUN_TIMEOUT,
    RunOutcome,
    failure_status,
    retryable,
)
from repro.analysis.parallel import (
    execute_attempt,
    shutdown_pool,
    worker_init,
)
from repro.obs.metrics import get_registry
from repro.service.config import ServiceConfig
from repro.service.jobs import COMPLETED, FAILED, RUNNING, SHED, Job
from repro.service.queue import AdmissionQueue

__all__ = ["Supervisor", "WorkerSlot"]


def _swallow_result(future: asyncio.Future) -> None:
    """Consume an abandoned worker future so its exception (the
    BrokenProcessPool a recycle provokes) never logs as unretrieved."""
    if not future.cancelled():
        future.exception()


class WorkerSlot:
    """One supervised worker process and its dispatch loop."""

    def __init__(self, supervisor: "Supervisor", index: int) -> None:
        self.supervisor = supervisor
        self.index = index
        self.pool: Optional[ProcessPoolExecutor] = None
        self.task: Optional[asyncio.Task] = None
        self.busy = False
        self.recycles = 0
        self._idle_polls = 0

    def start(self) -> None:
        self.task = asyncio.get_running_loop().create_task(
            self._run(), name=f"worker-slot-{self.index}"
        )

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self.pool is None:
            # Spawn, not fork: a forked worker inherits every open fd,
            # including accepted client sockets — it would hold those
            # connections open (no FIN to the client) for as long as the
            # worker lives.  Spawned workers start clean; the ~1s spawn
            # cost is paid only at scale-up and recycle, never per run.
            self.pool = ProcessPoolExecutor(
                max_workers=1,
                initializer=worker_init,
                mp_context=multiprocessing.get_context("spawn"),
            )
        return self.pool

    def _recycle(self) -> None:
        """Put the worker process down; the next run gets a fresh one."""
        if self.pool is not None:
            shutdown_pool(self.pool)
            self.pool = None
        self.recycles += 1
        get_registry().inc("service.worker_recycles")

    async def _run(self) -> None:
        supervisor = self.supervisor
        try:
            while not supervisor.stopping:
                job = await supervisor.queue.get(
                    timeout=supervisor.config.scale_interval_s
                )
                if job is None:
                    self._idle_polls += 1
                    if supervisor.should_retire(self):
                        break
                    continue
                self._idle_polls = 0
                self.busy = True
                try:
                    await self._execute(job)
                finally:
                    self.busy = False
        finally:
            if self.pool is not None:
                self.pool.shutdown(wait=False, cancel_futures=True)
                self.pool = None
            supervisor.slot_exited(self)

    async def _execute(self, job: Job) -> None:
        """Run one job to a terminal state, retrying within its deadline."""
        loop = asyncio.get_running_loop()
        supervisor = self.supervisor
        job.state = RUNNING
        if job.abort.is_set() or job.waiters == 0:
            # Every waiter left while the job sat queued but before the
            # queue skipped it; don't burn a worker on an answer nobody
            # will read.
            job.finish(SHED, error="no waiters remained at dispatch")
            supervisor.job_finished(job, RUN_INTERRUPTED)
            return
        policy_retries = supervisor.config.max_retries
        while True:
            remaining = job.deadline - loop.time()
            if remaining <= 0:
                job.finish(SHED, error="deadline expired before the run started")
                supervisor.job_finished(job, RUN_TIMEOUT, "deadline expired")
                return
            job.attempts += 1
            pool = self._ensure_pool()
            try:
                worker_future = asyncio.wrap_future(
                    pool.submit(execute_attempt, job.request, job.attempts),
                    loop=loop,
                )
            except (BrokenProcessPool, RuntimeError) as error:
                self._recycle()
                if job.attempts <= policy_retries:
                    continue
                self._fail(job, f"worker pool unavailable: {error}")
                return
            abort_task = loop.create_task(job.abort.wait())
            try:
                done, _ = await asyncio.wait(
                    {worker_future, abort_task},
                    timeout=remaining,
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                abort_task.cancel()
            if worker_future in done:
                try:
                    key, shard, payload = worker_future.result()
                except BrokenProcessPool:
                    # The worker died (segfault, injected `die`).  The
                    # pool is useless now either way; retry only if the
                    # budget and the deadline both allow.
                    self._recycle()
                    if job.attempts <= policy_retries:
                        continue
                    self._fail(job, "worker process died repeatedly")
                    return
                except Exception as error:  # noqa: BLE001 - worker verdicts
                    if retryable(error) and job.attempts <= policy_retries:
                        continue
                    self._fail(
                        job, traceback.format_exc(),
                        status=failure_status(error),
                    )
                    return
                else:
                    job.finish(COMPLETED, payload=payload)
                    supervisor.store_result(key, shard, payload)
                    supervisor.job_finished(job, RUN_OK)
                    return
            # Abort or timeout won the race: the worker is still running
            # something nobody wants — kill it, don't abandon it.
            worker_future.add_done_callback(_swallow_result)
            worker_future.cancel()
            self._recycle()
            if job.abort.is_set():
                job.finish(SHED, error="every waiter gave up mid-run")
                supervisor.job_finished(job, RUN_INTERRUPTED)
            else:
                job.finish(
                    SHED,
                    error=f"run exceeded its deadline after {job.attempts} "
                    "attempt(s); worker recycled",
                )
                supervisor.job_finished(
                    job, RUN_TIMEOUT, "run exceeded its deadline"
                )
            return

    def _fail(self, job: Job, error: str, status: str = RUN_FAILED) -> None:
        job.finish(FAILED, error=error)
        self.supervisor.job_finished(job, status, error)


class Supervisor:
    """Owns the worker slots, the autoscaler policy and job accounting."""

    def __init__(
        self,
        queue: AdmissionQueue,
        config: ServiceConfig,
        on_result: Callable[[str, str, dict], None],
        on_outcome: Callable[[Job, RunOutcome], None],
    ) -> None:
        self.queue = queue
        self.config = config
        self.stopping = False
        self._on_result = on_result
        self._on_outcome = on_outcome
        self._slots: List[WorkerSlot] = []
        self._next_index = 0
        self._retired_recycles = 0
        self._scaler_task: Optional[asyncio.Task] = None
        self._all_exited = asyncio.Event()
        self._all_exited.set()

    # --- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        self._all_exited.clear()
        for _ in range(self.config.workers_min):
            self._add_slot()
        self._scaler_task = asyncio.get_running_loop().create_task(
            self._autoscale(), name="worker-autoscaler"
        )

    async def stop(self, drain_timeout: Optional[float] = None) -> None:
        """Stop dispatching and wait for busy slots to finish.

        Slots notice ``stopping`` at their next queue poll; a busy slot
        finishes its current run first (the run's own deadline bounds
        that wait).  ``drain_timeout`` is a belt over those suspenders.
        """
        self.stopping = True
        if self._scaler_task is not None:
            self._scaler_task.cancel()
            self._scaler_task = None
        if self._slots:
            try:
                await asyncio.wait_for(
                    self._all_exited.wait(), timeout=drain_timeout
                )
            except asyncio.TimeoutError:
                for slot in list(self._slots):
                    if slot.pool is not None:
                        shutdown_pool(slot.pool)
                        slot.pool = None
                    if slot.task is not None:
                        slot.task.cancel()

    # --- scaling -----------------------------------------------------------
    @property
    def worker_count(self) -> int:
        return len(self._slots)

    @property
    def busy_count(self) -> int:
        return sum(1 for slot in self._slots if slot.busy)

    @property
    def recycles(self) -> int:
        return sum(slot.recycles for slot in self._slots) + self._retired_recycles

    def _add_slot(self) -> None:
        slot = WorkerSlot(self, self._next_index)
        self._next_index += 1
        self._slots.append(slot)
        slot.start()
        get_registry().set_gauge("service.workers", float(len(self._slots)))

    def slot_exited(self, slot: WorkerSlot) -> None:
        if slot in self._slots:
            self._slots.remove(slot)
        self._retired_recycles += slot.recycles
        get_registry().set_gauge("service.workers", float(len(self._slots)))
        if not self._slots:
            self._all_exited.set()

    def should_retire(self, slot: WorkerSlot) -> bool:
        """A persistently idle slot above the floor retires itself."""
        return (
            not self.stopping
            and len(self._slots) > self.config.workers_min
            and slot._idle_polls >= self.config.scale_down_idle_polls
        )

    async def _autoscale(self) -> None:
        """Grow toward ``workers_max`` while demand outruns the fleet."""
        interval = self.config.scale_interval_s
        while not self.stopping:
            await asyncio.sleep(interval)
            backlog = self.queue.depth
            if (
                backlog > 0
                and self.worker_count < self.config.workers_max
                and self.busy_count >= self.worker_count
            ):
                self._add_slot()
                get_registry().inc("service.scale_ups")

    # --- job accounting ----------------------------------------------------
    def store_result(self, key: str, shard: str, payload: dict) -> None:
        self._on_result(key, shard, payload)

    def job_finished(
        self, job: Job, status: str, error: Optional[str] = None
    ) -> None:
        self._on_outcome(
            job, RunOutcome.of(job.request, status, job.attempts, error)
        )
