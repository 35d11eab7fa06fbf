"""The supervisor's worker faults, driven below the HTTP layer.

Jobs go straight into an :class:`AdmissionQueue` and outcomes come back
through the supervisor's callbacks, so each case costs only the worker
spawns it provokes (~0.4 s each: the service starts its workers with
``spawn``).  A worker death and a hang each recycle exactly the slot
whose run they name; a job that never started says nothing about its
config.
"""

import asyncio

from repro.analysis import parallel
from repro.analysis.faults import FAILED as RUN_FAILED
from repro.analysis.faults import INTERRUPTED, TIMEOUT, FailureLedger
from repro.analysis.parallel import RunRequest
from repro.analysis.simcache import ResultStore
from repro.service import ServiceConfig
from repro.service.jobs import COMPLETED, FAILED, SHED, Job
from repro.service.queue import AdmissionQueue
from repro.service.supervisor import Supervisor
from repro.workloads import get_benchmark

WORK_SCALE = 0.05


class Harness:
    """One-slot supervisor over a store, recording every outcome."""

    def __init__(self, store_root):
        self.store = ResultStore(store_root)
        self.ledger = FailureLedger(self.store)
        self.outcomes = {}
        self.queue = AdmissionQueue(4)
        self.supervisor = Supervisor(
            self.queue,
            ServiceConfig(workers_min=1, workers_max=1),
            on_result=lambda key, shard, payload: self.store.put(
                key, payload, shard=shard
            ),
            on_outcome=self._account,
        )

    def _account(self, job, outcome):
        self.outcomes[job.key] = outcome
        self.ledger.record([outcome])

    async def run(self, request, deadline_s):
        """Queue one job with one waiter and wait for its terminal state."""
        loop = asyncio.get_running_loop()
        job = Job(request, loop.time() + deadline_s, loop.time())
        self.queue.put_nowait(job)
        await asyncio.wait_for(job.done.wait(), max(deadline_s, 0) + 60)
        return job


def test_deadline_expired_before_start_is_interrupted(tmp_path, monkeypatch):
    spawned = []

    def no_worker(*args, **kwargs):
        spawned.append(args)
        raise RuntimeError("a job that never started spawned a worker")

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_worker)
    harness = Harness(str(tmp_path / "simcache"))
    request = RunRequest("sim", get_benchmark("va"), size=8, work_scale=WORK_SCALE)

    async def scenario():
        harness.supervisor.start()
        try:
            return await harness.run(request, deadline_s=-1.0)
        finally:
            await harness.supervisor.stop()

    job = asyncio.run(scenario())
    assert job.state == SHED and job.attempts == 0 and not spawned
    assert harness.outcomes[request.key].status == INTERRUPTED
    assert FailureLedger(harness.store).streak(request.key) == 0
    assert harness.supervisor.recycles == 0


def test_worker_death_and_hang_recycle_only_their_slot(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_INJECT", "die:sim|va,hang:sim|bp")
    harness = Harness(str(tmp_path / "simcache"))
    supervisor = harness.supervisor
    dying = RunRequest("sim", get_benchmark("va"), size=8, work_scale=WORK_SCALE)
    healthy = RunRequest("mrc", get_benchmark("va"), work_scale=WORK_SCALE)
    hung = RunRequest("sim", get_benchmark("bp"), size=8, work_scale=WORK_SCALE)

    async def scenario():
        supervisor.start()
        try:
            job = await harness.run(dying, deadline_s=60.0)
            assert job.state == FAILED and job.attempts == 2
            assert supervisor.recycles == 2

            # The respawned slot serves the next job; nothing else died.
            job = await harness.run(healthy, deadline_s=60.0)
            assert job.state == COMPLETED
            assert supervisor.recycles == 2

            job = await harness.run(hung, deadline_s=2.0)
            assert job.state == SHED and job.attempts == 1
            assert supervisor.recycles == 3
        finally:
            await supervisor.stop()

    asyncio.run(scenario())
    assert harness.outcomes[dying.key].status == RUN_FAILED
    assert harness.outcomes[hung.key].status == TIMEOUT
    assert harness.store.contains(healthy.key)
    assert harness.ledger.streak(dying.key) == 1
