"""Cached-runner tests: memoization, invalidation, persistence.

The deeper cache-subsystem tests (corruption quarantine, parallel
execution) live in ``tests/test_runner_cache.py``;
these cover the runner's user-facing memoization contract.
"""

import json
import os

from dataclasses import replace

import pytest

from repro.analysis.runner import CachedRunner
from repro.workloads import get_benchmark


@pytest.fixture
def cache_path(tmp_path):
    return str(tmp_path / "cache")


@pytest.fixture
def tiny_spec():
    # The smallest weak-scaling input is the cheapest real benchmark run.
    return get_benchmark("va", weak=True)


class TestCachedRunner:
    def test_simulation_cached_and_identical(self, cache_path, tiny_spec):
        runner = CachedRunner(cache_path)
        first = runner.simulate(tiny_spec, 8)
        assert runner.misses == 1
        second = runner.simulate(tiny_spec, 8)
        assert runner.hits == 1
        assert first.ipc == second.ipc
        assert first.cycles == second.cycles

    def test_cache_survives_restart(self, cache_path, tiny_spec):
        CachedRunner(cache_path).simulate(tiny_spec, 8)
        runner2 = CachedRunner(cache_path)
        runner2.simulate(tiny_spec, 8)
        assert runner2.hits == 1
        assert runner2.misses == 0

    def test_param_change_invalidates(self, cache_path, tiny_spec):
        runner = CachedRunner(cache_path)
        runner.simulate(tiny_spec, 8)
        changed = replace(
            tiny_spec, params={**dict(tiny_spec.params), "cpa": 99.0}
        )
        runner.simulate(changed, 8)
        assert runner.misses == 2

    def test_work_share_change_invalidates(self, cache_path, tiny_spec):
        runner = CachedRunner(cache_path)
        runner.simulate(tiny_spec, 8)
        changed = replace(
            tiny_spec,
            kernels=tuple(
                replace(k, work_share=0.25) for k in tiny_spec.kernels
            ),
        )
        runner.simulate(changed, 8)
        assert runner.misses == 2

    def test_work_scale_in_key(self, cache_path, tiny_spec):
        runner = CachedRunner(cache_path)
        runner.simulate(tiny_spec, 8, work_scale=1.0)
        runner.simulate(tiny_spec, 8, work_scale=2.0)
        assert runner.misses == 2

    def test_mrc_cached(self, cache_path, tiny_spec):
        runner = CachedRunner(cache_path)
        first = runner.miss_rate_curve(tiny_spec)
        second = runner.miss_rate_curve(tiny_spec)
        assert runner.hits == 1
        assert first.mpki == second.mpki
        assert first.capacities_bytes == second.capacities_bytes

    def test_cache_shard_is_jsonl(self, cache_path, tiny_spec):
        CachedRunner(cache_path).simulate(tiny_spec, 8)
        shard = os.path.join(cache_path, "va.jsonl")
        assert os.path.exists(shard)
        with open(shard) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        assert len(records) == 1
        assert set(records[0]) == {"key", "payload", "digest"}
        from repro.verify.digest import content_digest

        assert records[0]["digest"] == content_digest(records[0]["payload"])

    def test_no_cache_path_means_memory_only(self, tiny_spec):
        runner = CachedRunner(None)
        runner.simulate(tiny_spec, 8)
        runner.simulate(tiny_spec, 8)
        assert runner.hits == 1  # still memoized in memory

    def test_clear(self, cache_path, tiny_spec):
        runner = CachedRunner(cache_path)
        runner.simulate(tiny_spec, 8)
        runner.clear()
        runner.simulate(tiny_spec, 8)
        assert runner.misses == 2
        assert len(CachedRunner(cache_path).store) == 1

    def test_stats_exposed(self, cache_path, tiny_spec):
        runner = CachedRunner(cache_path)
        runner.simulate(tiny_spec, 8)
        runner.simulate(tiny_spec, 8)
        stats = runner.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["flushes"] == 1
