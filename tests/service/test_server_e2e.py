"""One in-process service lifetime over real HTTP: cold run, warm
cache hit, request validation at the wire, health endpoints, idempotent
retry coalescing and a clean stop.

Worker death and hangs are covered below the HTTP layer by
``test_supervisor_faults.py``; overload and the SIGTERM drain live in
``scripts/chaos.py --target service``.  This test guards the happy-path wiring
cheaply enough for tier 1.  One server boot serves every assertion:
worker spawn costs ~0.4 s and is the dominant term.
"""

import asyncio

from repro.analysis.simcache import ResultStore
from repro.service import PredictionService, ServiceConfig

from .harness import post

BODY = {
    "kind": "sim",
    "benchmark": "va",
    "size": 8,
    "work_scale": 0.25,
    "deadline_s": 60,
}


async def scenario(tmp_path):
    config = ServiceConfig(
        port=0,
        store_root=str(tmp_path / "simcache"),
        workers_min=1,
        workers_max=2,
        default_deadline_s=60.0,
    )
    service = PredictionService(config)
    serve_task = asyncio.create_task(service.serve())
    while service.port is None and not serve_task.done():
        await asyncio.sleep(0.01)
    assert service.port is not None, "server never bound a port"
    loop = asyncio.get_running_loop()

    def req(*args, **kwargs):
        return loop.run_in_executor(None, lambda: post(*args, **kwargs))

    # Liveness and readiness answer immediately.
    status, _ = await req(service.port, None, "/healthz", "GET")
    assert status == 200
    status, _ = await req(service.port, None, "/readyz", "GET")
    assert status == 200

    # Wire validation: a 400 that names the field, before any worker.
    status, data = await req(service.port, {"benchmark": "va"})
    assert status == 400 and "size" in data["error"]
    status, _ = await req(service.port, None, "/nope", "GET")
    assert status == 404
    status, _ = await req(service.port, BODY, "/predict", "PUT")
    assert status == 405

    # Cold run executes; an identical concurrent request with an
    # idempotency key coalesces onto the same job instead of queueing
    # its own execution.
    tagged = dict(BODY, idempotency_key="retry-1")
    first = req(service.port, tagged)
    second = req(service.port, tagged)
    (status_a, data_a), (status_b, data_b) = await asyncio.gather(
        first, second
    )
    assert status_a == 200 and data_a["status"] == "completed"
    assert status_b == 200 and data_b["status"] == "completed"
    assert data_a["key"] == data_b["key"]
    assert data_a["result"]["cycles"] > 0

    # Warm repeat is a cache hit: served from the store, no run.
    status, data = await req(service.port, BODY)
    assert status == 200 and data["cached"] is True
    assert data["key"] == data_a["key"]

    stats = (await req(service.port, None, "/statsz", "GET"))[1]
    assert stats["queue"]["capacity"] == config.queue_depth
    assert stats["workers"]["count"] >= 1
    assert stats["store"]["hits"] >= 1
    counters = stats["metrics"]["counters"]
    assert counters.get("service.requests", 0) >= 4
    assert counters.get("service.coalesced", 0) >= 1

    service.request_stop()
    assert await asyncio.wait_for(serve_task, timeout=120) == 0


def test_service_end_to_end(tmp_path):
    asyncio.run(scenario(tmp_path))


def test_statsz_reads_no_shard(tmp_path):
    # /statsz reports the store's counters so far: over a 16-shard store
    # it parses and verifies none of them.
    root = str(tmp_path / "simcache")
    store = ResultStore(root)
    for shard in range(16):
        store.put(f"sim|{shard:02d}", {"cycles": 1.0}, shard=f"s{shard:02d}")
    store.flush()
    service = PredictionService(ServiceConfig(store_root=root))
    stats = service._statsz()["store"]
    assert stats["shards_loaded"] == 0
    assert stats["entries"] == 16
