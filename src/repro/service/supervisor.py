"""Supervised worker pool: process workers with a watchdog per run.

Each :class:`WorkerSlot` is a :class:`repro.analysis.parallel.ProcessSlot`
— one slot, one OS process, the same slot the batch runner runs on —
because the unit of recycling *is* the process: a hung or dead worker
is terminated (never waited on) and the next attempt starts a fresh
one.  Runs execute through the same
:func:`repro.analysis.parallel.execute_attempt` entry point, and a
failed attempt gets the same verdict as in a batch (a worker death
recycles the slot; ``retryable``/``failure_status`` decide the rest),
so fault injection, memory ceilings and observability hooks behave
identically in batch and service mode.

Every dispatch races three futures:

* the worker result,
* the job's **abort** event (the last interested client gave up — the
  worker is killed, not left burning),
* the job's **deadline** (the run timeout; a hang cannot outlive it).

The :class:`Supervisor` also runs the autoscaler: queue depth above
zero grows the fleet toward ``workers_max``; a slot that has polled an
empty queue :data:`SCALE_DOWN_IDLE_POLLS` times retires itself down to
``workers_min``.  Scaling decisions are taken by the slots themselves
against a shared target — there is no central scaling actor to hang.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import traceback
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional

from repro.analysis.faults import (
    INTERRUPTED as RUN_INTERRUPTED,
    OK as RUN_OK,
    TIMEOUT as RUN_TIMEOUT,
    RunOutcome,
    failure_status,
    retryable,
)
from repro.analysis.parallel import ProcessSlot
from repro.obs.metrics import get_registry
from repro.service.config import ServiceConfig
from repro.service.jobs import COMPLETED, FAILED, RUNNING, SHED, Job
from repro.service.queue import AdmissionQueue

__all__ = ["Supervisor", "WorkerSlot"]

#: Re-executions after a retryable worker failure (within the deadline).
MAX_RETRIES = 1
#: Autoscaler poll interval; also the dispatch loops' idle poll.
SCALE_INTERVAL_S = 0.2
#: Idle polls before a surplus worker slot is retired.
SCALE_DOWN_IDLE_POLLS = 25


class WorkerSlot(ProcessSlot):
    """One supervised worker process and its dispatch loop."""

    def __init__(self, supervisor: "Supervisor", index: int) -> None:
        # Spawn, not fork: a forked worker inherits every open fd,
        # including accepted client sockets — it would hold those
        # connections open (no FIN to the client) for as long as the
        # worker lives.  Spawned workers start clean; the ~0.4 s spawn
        # cost is paid only at scale-up and recycle, never per run.
        super().__init__(multiprocessing.get_context("spawn"))
        self.supervisor = supervisor
        self.index = index
        self.task: Optional[asyncio.Task] = None
        self.busy = False
        self._idle_polls = 0

    def start(self) -> None:
        self.task = asyncio.get_running_loop().create_task(
            self._run(), name=f"worker-slot-{self.index}"
        )

    def recycle(self) -> None:
        super().recycle()
        get_registry().inc("service.worker_recycles")

    async def _run(self) -> None:
        supervisor = self.supervisor
        try:
            while not supervisor.stopping:
                job = await supervisor.queue.get(timeout=SCALE_INTERVAL_S)
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
            self.close()
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
        while True:
            remaining = job.deadline - loop.time()
            if remaining <= 0:
                job.finish(SHED, error="deadline expired before the run started")
                # A job that never started says nothing about its
                # config, just as a drained one does: only a deadline
                # that ran out on a retry counts toward the breaker.
                supervisor.job_finished(
                    job,
                    RUN_TIMEOUT if job.attempts else RUN_INTERRUPTED,
                    "deadline expired",
                )
                return
            job.attempts += 1
            worker_future = asyncio.wrap_future(
                self.submit(job.request, job.attempts), loop=loop
            )
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
                except Exception as error:  # noqa: BLE001 - worker verdicts
                    if isinstance(error, BrokenProcessPool):
                        # The worker died (segfault, injected `die`): a
                        # failed attempt of this job, on a dead process.
                        self.recycle()
                    if retryable(error) and job.attempts <= MAX_RETRIES:
                        continue
                    failure = traceback.format_exc()
                    job.finish(FAILED, error=failure)
                    supervisor.job_finished(job, failure_status(error), failure)
                    return
                else:
                    job.finish(COMPLETED, payload=payload)
                    supervisor.store_result(key, shard, payload)
                    supervisor.job_finished(job, RUN_OK)
                    return
            # Abort or timeout won the race: the worker is still running
            # something nobody wants — kill it, don't abandon it.  The
            # cancelled future drops the BrokenProcessPool this provokes.
            worker_future.cancel()
            self.recycle()
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
                    slot.close()
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
            and slot._idle_polls >= SCALE_DOWN_IDLE_POLLS
        )

    async def _autoscale(self) -> None:
        """Grow toward ``workers_max`` while demand outruns the fleet."""
        while not self.stopping:
            await asyncio.sleep(SCALE_INTERVAL_S)
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
