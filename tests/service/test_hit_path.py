"""The warm path: a memoized ``/predict`` answer is one read, one store
lookup and one write — it is never admitted.

Two gates, both counts rather than timings so they repeat exactly on
any host:

* **Backpressure does not apply to hits.**  With the only worker held
  on a long miss and ``queue_depth=4``, twelve hits are all ``200`` and
  the queue stays empty.  While hits were admitted first (a ``Job`` and
  a queue slot each, finished on the spot, left for a slot to pop and
  discard) eight of the twelve were refused ``429``.
* **Hit-path budget**, in the style of
  ``tests/engine/test_hot_path_budget.py``: asyncio tasks created per
  hit and ``Job`` objects constructed.  The admitted-hit path measured
  **9 tasks per hit** (one ``wait_for`` per request line and header
  line, plus the body and the job wait) and one ``Job``; the path now
  measures 3 on Python ≤ 3.11 — the accept, the connection handler and
  the single read deadline — and 2 where ``wait_for`` needs no task.
  A change that re-grows the path fails here, not in a noisy wall-time
  gate.
"""

import asyncio

from repro.obs.metrics import get_registry
from repro.service import server as server_module

from .harness import post, running_service, seed_store

HIT = {"kind": "sim", "benchmark": "va", "size": 8, "work_scale": 0.25}
PAYLOAD = {"cycles": 1234.0, "wall_time_s": 0.5}

#: Parent of the PR that introduced this gate: 9.  See module docstring.
TASKS_PER_HIT_BUDGET = 3


def counters():
    return dict(get_registry().snapshot()["counters"])


def unaccounted(counters):
    """``service.requests`` minus the outcomes that must add up to it."""
    outcomes = sum(
        value for name, value in counters.items()
        if name in ("service.cache_hits", "service.admitted",
                    "service.coalesced")
        or name.startswith("service.rejects.")
    )
    return counters.get("service.requests", 0) - outcomes


def test_hits_are_not_subject_to_queue_backpressure(tmp_path, monkeypatch):
    # The worker process inherits the plan: its one `sr` run hangs.
    monkeypatch.setenv("REPRO_FAULT_INJECT", "hang:sim|sr:30")

    async def scenario():
        async with running_service(
            tmp_path, queue_depth=4, workers_min=1, workers_max=1
        ) as service:
            loop = asyncio.get_running_loop()
            key = seed_store(service, HIT, PAYLOAD)
            before = counters()
            miss = loop.run_in_executor(
                None, post, service.port,
                dict(HIT, benchmark="sr", deadline_s=2.0),
            )
            while service.supervisor.busy_count < 1:
                await asyncio.sleep(0.01)
            assert service.queue.depth == 0

            hits = await asyncio.gather(
                *(
                    loop.run_in_executor(None, post, service.port, HIT)
                    for _ in range(12)
                )
            )
            assert [status for status, _ in hits] == [200] * 12
            assert all(
                data["cached"] and data["key"] == key
                and data["result"] == PAYLOAD
                for _, data in hits
            )
            assert service.queue.depth == 0
            assert service.supervisor.busy_count == 1

            # The miss itself is unchanged: shed at its own deadline.
            status, data = await miss
            assert status == 504 and data["status"] == "shed"

            after = counters()
            delta = {n: after.get(n, 0) - before.get(n, 0) for n in after}
            assert delta["service.requests"] == 13
            assert delta["service.cache_hits"] == 12
            assert delta["service.admitted"] == 1
            assert unaccounted(delta) == 0

    asyncio.run(scenario())


def test_hit_path_budget(tmp_path, monkeypatch):
    hits = 200
    jobs_built = []

    class CountedJob(server_module.Job):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            jobs_built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(server_module, "Job", CountedJob)

    def burst(port):
        return [post(port, HIT) for _ in range(hits)]

    async def scenario():
        async with running_service(tmp_path) as service:
            loop = asyncio.get_running_loop()
            seed_store(service, HIT, PAYLOAD)
            # Past the first request: lazy imports and the like are paid.
            assert (await loop.run_in_executor(None, post, service.port, HIT))[
                1
            ]["cached"]

            tasks = []

            def counting_factory(loop, coro, **kwargs):
                task = asyncio.Task(coro, loop=loop, **kwargs)
                tasks.append(task)
                return task

            loop.set_task_factory(counting_factory)
            try:
                answers = await loop.run_in_executor(None, burst, service.port)
            finally:
                loop.set_task_factory(None)
            assert all(
                status == 200 and data["cached"] for status, data in answers
            )
            assert len(tasks) <= TASKS_PER_HIT_BUDGET * hits, (
                f"{len(tasks) / hits:.2f} asyncio tasks per hit"
            )
            assert not jobs_built, "a memoized answer constructed a Job"

    asyncio.run(scenario())
