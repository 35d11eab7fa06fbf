"""An in-process :class:`PredictionService` for loop-local tests.

The service and the test share one event loop; blocking HTTP clients go
through ``loop.run_in_executor`` and raw-socket clients use asyncio
streams, so the server keeps serving while the test waits.
"""

import asyncio
import contextlib
import http.client
import json

from repro.analysis.parallel import RunRequest
from repro.service import PredictionService, ServiceConfig
from repro.workloads import get_benchmark


@contextlib.asynccontextmanager
async def running_service(tmp_path, **config):
    """Boot a service on an ephemeral port; drain it on exit."""
    config.setdefault("store_root", str(tmp_path / "simcache"))
    service = PredictionService(ServiceConfig(port=0, **config))
    serve_task = asyncio.create_task(service.serve())
    while service.port is None and not serve_task.done():
        await asyncio.sleep(0.01)
    assert service.port is not None, "server never bound a port"
    try:
        yield service
    finally:
        service.request_stop()
        await asyncio.wait_for(serve_task, timeout=60)


def post(port, body, path="/predict", method="POST", timeout=60):
    """One blocking request on its own connection: ``(status, json)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, None if body is None else json.dumps(body))
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def seed_store(service, body, payload):
    """Memoize ``payload`` as the answer to a sim ``body``; returns its key."""
    run = RunRequest(
        "sim",
        get_benchmark(body["benchmark"]),
        size=body["size"],
        work_scale=body["work_scale"],
        seed=body.get("seed", 0),
    )
    service.store.put(run.key, payload, shard=run.spec.abbr)
    return run.key
