"""Work-counter gate on the batch path's pool traffic.

Pools constructed and tasks submitted per batch are deterministic
counts, so they gate where a wall-clock timer could not: a healthy batch
of N misses is one ``ProcessPoolExecutor`` and N ``submit`` calls, and a
batch of N hits is neither.  A respawned pool or a resubmitted run on a
batch where nothing failed is pure overhead — the perf benchmark reports
it in wall time as ``parallel.overhead_ms`` and counts the retries as
``parallel.exec_retries``; this holds the counts on a small fixed input.
"""

from repro.analysis import parallel
from repro.analysis.parallel import RunRequest
from repro.analysis.runner import CachedRunner
from repro.workloads import get_benchmark

#: Small enough that all six runs take about a second on two workers.
WORK_SCALE = 0.05


def test_healthy_batch_is_one_pool_and_one_submit_per_run(
    tmp_path, monkeypatch
):
    counts = {"pools": 0, "submits": 0}

    class CountingPool(parallel.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            counts["pools"] += 1
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            counts["submits"] += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
    monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
    requests = [
        RunRequest("sim", get_benchmark(abbr), size=size, work_scale=WORK_SCALE)
        for abbr in ("va", "bs")
        for size in (8, 16)
    ] + [
        RunRequest("mrc", get_benchmark(abbr), work_scale=WORK_SCALE)
        for abbr in ("va", "bs")
    ]
    runner = CachedRunner(str(tmp_path / "simcache"), jobs=2)

    assert runner.prefetch(requests) == 6
    assert counts == {"pools": 1, "submits": 6}
    assert runner.stats()["exec_retries"] == 0

    # Every run is a hit now: no pool, no dispatch.
    assert runner.prefetch(requests) == 0
    assert counts == {"pools": 1, "submits": 6}
