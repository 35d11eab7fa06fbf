"""Work-counter gate on the batch path's pool traffic.

Pools constructed and tasks submitted per batch are deterministic
counts, so they gate where a wall-clock timer could not: a healthy batch
of N misses on J slots is one single-worker ``ProcessPoolExecutor`` per
slot and N ``submit`` calls, and a batch of N hits is neither.  A
respawned pool or a resubmitted run on a batch where nothing failed is
pure overhead — the perf benchmark reports it in wall time as
``parallel.overhead_ms`` and counts the retries as
``parallel.exec_retries``; this holds the counts on a small fixed input.
A hung run costs its own slot one respawn at most and nobody else a
resubmit.
"""

import pytest

from repro.analysis import parallel
from repro.analysis.faults import TIMEOUT, ExecutionPolicy
from repro.analysis.parallel import RunRequest
from repro.analysis.runner import CachedRunner
from repro.workloads import get_benchmark

#: Small enough that all six runs take about a second on two workers.
WORK_SCALE = 0.05


@pytest.fixture
def counts(monkeypatch):
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
    return counts


def six_requests():
    return [
        RunRequest("sim", get_benchmark(abbr), size=size, work_scale=WORK_SCALE)
        for abbr in ("va", "bs")
        for size in (8, 16)
    ] + [
        RunRequest("mrc", get_benchmark(abbr), work_scale=WORK_SCALE)
        for abbr in ("va", "bs")
    ]


def test_healthy_batch_one_pool_per_slot_one_submit_per_run(
    tmp_path, counts
):
    requests = six_requests()
    runner = CachedRunner(str(tmp_path / "simcache"), jobs=2)

    assert runner.prefetch(requests) == 6
    assert counts == {"pools": 2, "submits": 6}
    assert runner.stats()["exec_retries"] == 0

    # Every run is a hit now: no pool, no dispatch.
    assert runner.prefetch(requests) == 0
    assert counts == {"pools": 2, "submits": 6}


def test_hung_run_recycles_only_its_own_slot(tmp_path, counts, monkeypatch):
    requests = six_requests()
    hung = requests[0]  # va at 8 SMs, by key: its 16-SM twin stays healthy
    monkeypatch.setenv("REPRO_FAULT_INJECT", f"hang:{hung.key}")
    policy = ExecutionPolicy(
        run_timeout=1.0, max_retries=0, keep_going=True, backoff_base=0.001
    )
    runner = CachedRunner(str(tmp_path / "simcache"), jobs=2, policy=policy)

    assert runner.prefetch(requests) == 5
    # Nothing is resubmitted, and only the hung slot is respawned.
    assert counts["submits"] == 6
    assert counts["pools"] <= 3
    (failure,) = runner.last_report.failures
    assert failure.key == hung.key and failure.status == TIMEOUT
    for request in requests[1:]:
        assert runner.store.contains(request.key)
