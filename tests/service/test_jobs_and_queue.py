"""Job lifecycle and admission-queue semantics, loop-local.

The queue's contract is the service's overload story: refuse at the
bound synchronously, hand queued work to exactly one getter, skip jobs
that went terminal while waiting, and never lose a wakeup when a
timeout races a put."""

import asyncio
import time

import pytest

from repro.analysis.parallel import RunRequest
from repro.service.jobs import (
    COMPLETED,
    DRAINED,
    FAILED,
    QUEUED,
    RUNNING,
    SHED,
    Job,
    JobTable,
)
from repro.service.queue import AdmissionQueue, QueueFull
from repro.workloads import get_benchmark

VA = get_benchmark("va", weak=True)


def make_job(seed=0, spec=VA, deadline=100.0):
    return Job(RunRequest("sim", spec, size=8, seed=seed), deadline, 0.0)


class TestJobLifecycle:
    def test_finish_is_terminal_exactly_once(self):
        job = make_job()
        job.finish(COMPLETED, payload={"cycles": 1})
        assert job.terminal and job.done.is_set()
        job.finish(SHED, error="late shed must not overwrite")
        assert job.state == COMPLETED and job.payload == {"cycles": 1}

    def test_attach_extends_deadline_monotonically(self):
        job = make_job(deadline=10.0)
        job.attach(5.0)
        assert job.deadline == 10.0 and job.waiters == 2
        job.attach(20.0)
        assert job.deadline == 20.0 and job.waiters == 3

    def test_last_detach_sheds_a_queued_job_in_place(self):
        job = make_job()
        job.attach(100.0)
        job.detach()
        assert job.state == QUEUED and not job.abort.is_set()
        job.detach()
        assert job.state == SHED and job.done.is_set()
        assert "deadline expired" in job.error

    def test_last_detach_aborts_a_running_job(self):
        job = make_job()
        job.state = RUNNING
        job.detach()
        # The supervisor owns the terminal transition for running jobs;
        # detach only signals it.
        assert job.state == RUNNING and job.abort.is_set()
        assert not job.done.is_set()

    def test_detach_after_terminal_is_inert(self):
        job = make_job()
        job.finish(DRAINED)
        job.detach()
        assert job.state == DRAINED and not job.abort.is_set()


class TestJobTable:
    def test_terminal_jobs_leave_the_key_table_lazily(self):
        table = JobTable()
        job = make_job()
        table.register(job)
        assert table.active(job.key) is job
        job.finish(COMPLETED)
        assert table.active(job.key) is None
        assert len(table) == 0

    def test_reap_only_removes_the_same_job(self):
        table = JobTable()
        first = make_job()
        table.register(first)
        first.finish(FAILED)
        replacement = make_job()
        table.register(replacement)
        table.reap(first)
        assert table.active(replacement.key) is replacement

    def test_alias_map_is_bounded_fifo(self):
        table = JobTable()
        table.MAX_ALIASES = 3
        for index in range(4):
            table.remember_alias(f"token-{index}", f"key-{index}")
        assert table.resolve_alias("token-0") is None
        assert table.resolve_alias("token-3") == "key-3"
        # Re-remembering an existing token must not evict anything.
        table.remember_alias("token-3", "key-3")
        assert table.resolve_alias("token-1") == "key-1"

    def test_eviction_cost_does_not_grow_with_the_table(self):
        # At the bound every new alias evicts the oldest, so inserting at
        # a full 64k table may cost no more than at a full 64-entry one
        # (a plain dict's first key costs O(size) to find after deletions
        # from its front).  Interleaved runs, each side's minimum.
        tables = {}
        for size in (64, JobTable.MAX_ALIASES):
            table = tables[size] = JobTable()
            table.MAX_ALIASES = size
            for index in range(size):
                table.remember_alias(f"fill-{index}", "key")
        best = dict.fromkeys(tables, float("inf"))
        for run in range(3):
            for size, table in tables.items():
                tokens = [f"token-{run}-{index}" for index in range(20_000)]
                start = time.perf_counter()
                for token in tokens:
                    table.remember_alias(token, "key")
                best[size] = min(best[size], time.perf_counter() - start)
        assert best[JobTable.MAX_ALIASES] <= 3.0 * best[64], best


class TestAdmissionQueue:
    def test_put_refuses_at_the_bound_with_a_hint(self):
        async def scenario():
            queue = AdmissionQueue(maxsize=2)
            queue.put_nowait(make_job(seed=1))
            queue.put_nowait(make_job(seed=2))
            with pytest.raises(QueueFull) as excinfo:
                queue.put_nowait(make_job(seed=3), retry_after_s=7.5)
            assert excinfo.value.depth == 2
            assert excinfo.value.retry_after_s == 7.5
            assert queue.depth == 2

        asyncio.run(scenario())

    def test_get_is_fifo_and_skips_terminal_jobs(self):
        async def scenario():
            queue = AdmissionQueue(maxsize=8)
            jobs = [make_job(seed=index) for index in range(3)]
            for job in jobs:
                queue.put_nowait(job)
            jobs[0].finish(SHED)
            jobs[1].finish(DRAINED)
            assert await queue.get(timeout=0.1) is jobs[2]
            assert await queue.get(timeout=0.05) is None

        asyncio.run(scenario())

    def test_parked_getter_wakes_on_put(self):
        async def scenario():
            queue = AdmissionQueue(maxsize=4)
            getter = asyncio.create_task(queue.get(timeout=5.0))
            await asyncio.sleep(0.01)
            job = make_job()
            queue.put_nowait(job)
            assert await asyncio.wait_for(getter, timeout=1.0) is job

        asyncio.run(scenario())

    def test_one_put_wakes_exactly_one_getter(self):
        async def scenario():
            queue = AdmissionQueue(maxsize=4)
            getters = [
                asyncio.create_task(queue.get(timeout=0.3)) for _ in range(3)
            ]
            await asyncio.sleep(0.01)
            queue.put_nowait(make_job())
            results = await asyncio.gather(*getters)
            assert sum(1 for job in results if job is not None) == 1

        asyncio.run(scenario())

    def test_timeout_racing_put_hands_the_wakeup_on(self):
        async def scenario():
            queue = AdmissionQueue(maxsize=4)
            # First getter times out immediately; the put that lands in
            # the same window must still reach the second getter.
            short = asyncio.create_task(queue.get(timeout=0.01))
            patient = asyncio.create_task(queue.get(timeout=2.0))
            await asyncio.sleep(0.02)
            job = make_job()
            queue.put_nowait(job)
            results = await asyncio.gather(short, patient)
            assert job in results

        asyncio.run(scenario())

    def test_drain_returns_only_live_jobs_and_empties(self):
        async def scenario():
            queue = AdmissionQueue(maxsize=8)
            live = make_job(seed=1)
            dead = make_job(seed=2)
            queue.put_nowait(live)
            queue.put_nowait(dead)
            dead.finish(SHED)
            drained = queue.drain()
            assert drained == [live]
            assert queue.depth == 0

        asyncio.run(scenario())
