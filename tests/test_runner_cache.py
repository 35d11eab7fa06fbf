"""Simulation-cache subsystem tests: stale-key invalidation, crash
tolerance (corrupt shards) and serial-vs-parallel result identity."""

import json
import os
from dataclasses import asdict, replace

import pytest

from repro.analysis.parallel import ParallelRunner, RunRequest, execute_request
from repro.analysis.runner import CachedRunner, sim_key
from repro.analysis.simcache import ResultStore
from repro.workloads import get_benchmark


@pytest.fixture
def cache_root(tmp_path):
    return str(tmp_path / "simcache")


@pytest.fixture
def tiny_spec():
    return get_benchmark("va", weak=True)


def _deterministic_fields(result) -> dict:
    """Every SimulationResult field except the host-time measurement."""
    fields = asdict(result)
    fields.pop("wall_time_s")
    return fields


class TestStaleKeyInvalidation:
    def test_work_share_edit_invalidates(self, cache_root, tiny_spec):
        """Editing a kernel's work_share must miss, not reuse stale runs."""
        runner = CachedRunner(cache_root)
        runner.simulate(tiny_spec, 8)
        edited = replace(
            tiny_spec,
            kernels=tuple(
                replace(k, work_share=k.work_share * 0.5)
                for k in tiny_spec.kernels
            ),
        )
        runner.simulate(edited, 8)
        assert runner.misses == 2
        assert runner.hits == 0

    def test_threads_per_cta_edit_invalidates(self, cache_root, tiny_spec):
        runner = CachedRunner(cache_root)
        runner.simulate(tiny_spec, 8)
        edited = replace(
            tiny_spec,
            kernels=tuple(
                replace(k, threads_per_cta=k.threads_per_cta * 2)
                for k in tiny_spec.kernels
            ),
        )
        assert sim_key(edited, 8, 1.0, 0) != sim_key(tiny_spec, 8, 1.0, 0)


class TestCorruptShardQuarantine:
    def test_corrupt_tail_is_skipped_and_shard_quarantined(
        self, cache_root, tiny_spec
    ):
        first = CachedRunner(cache_root).simulate(tiny_spec, 8)
        shard = os.path.join(cache_root, "va.jsonl")
        with open(shard, "a") as fh:
            fh.write('{"key": "half-written record without a clos')
        with pytest.warns(UserWarning, match="corrupt lines"):
            runner = CachedRunner(cache_root)
        # The good record was salvaged; only the bad line is gone.
        again = runner.simulate(tiny_spec, 8)
        assert runner.hits == 1 and runner.misses == 0
        assert again.cycles == first.cycles
        stats = runner.stats()
        assert stats["quarantined_shards"] == 1
        assert stats["corrupt_lines"] == 1
        # Original moved aside for inspection, shard rewritten clean.
        assert os.path.exists(
            os.path.join(cache_root, "quarantine", "va.jsonl")
        )
        with open(shard) as fh:
            for line in fh:
                json.loads(line)

    def test_fully_garbled_shard_recomputes(self, cache_root, tiny_spec):
        CachedRunner(cache_root).simulate(tiny_spec, 8)
        shard = os.path.join(cache_root, "va.jsonl")
        with open(shard, "w") as fh:
            fh.write("\x00\x01 not json at all\n{broken\n")
        with pytest.warns(UserWarning):
            runner = CachedRunner(cache_root)
        runner.simulate(tiny_spec, 8)
        assert runner.misses == 1  # degraded to recomputation, no crash
        assert not os.path.exists(shard) or os.path.getsize(shard) > 0

    def test_quarantined_shard_does_not_reinfect(self, cache_root, tiny_spec):
        CachedRunner(cache_root).simulate(tiny_spec, 8)
        with open(os.path.join(cache_root, "va.jsonl"), "a") as fh:
            fh.write("garbage\n")
        with pytest.warns(UserWarning):
            CachedRunner(cache_root)
        # Second load sees a clean store: no warning, full hit.
        runner = CachedRunner(cache_root)
        runner.simulate(tiny_spec, 8)
        assert runner.hits == 1
        assert runner.stats()["quarantined_shards"] == 0


class TestSerialParallelIdentity:
    BENCHMARKS = ("bp", "va")
    SIZES = (8, 16)

    def _requests(self):
        return [
            RunRequest("sim", get_benchmark(abbr, weak=True), size=n)
            for abbr in self.BENCHMARKS
            for n in self.SIZES
        ]

    def test_parallel_results_bit_identical_to_serial(self, tmp_path):
        serial = CachedRunner(str(tmp_path / "serial"), jobs=1)
        parallel = CachedRunner(str(tmp_path / "parallel"), jobs=2)
        executed = ParallelRunner(parallel.store, jobs=2).run_batch(
            self._requests()
        )
        assert executed == len(self.BENCHMARKS) * len(self.SIZES)
        for abbr in self.BENCHMARKS:
            spec = get_benchmark(abbr, weak=True)
            for n in self.SIZES:
                a = serial.simulate(spec, n)
                b = parallel.simulate(spec, n)
                assert _deterministic_fields(a) == _deterministic_fields(b), (
                    f"{abbr}@{n}SM diverged between serial and parallel"
                )
        assert parallel.misses == 0  # every run was served by the batch

    def test_prefetch_skips_cached_runs(self, tmp_path, tiny_spec):
        runner = CachedRunner(str(tmp_path / "cache"), jobs=2)
        runner.simulate(tiny_spec, 8)
        executed = ParallelRunner(runner.store, jobs=2).run_batch(
            [RunRequest("sim", tiny_spec, size=8)]
        )
        assert executed == 0

    def test_duplicate_requests_collapse(self, tmp_path, tiny_spec):
        runner = CachedRunner(str(tmp_path / "cache"))
        executed = ParallelRunner(runner.store, jobs=1).run_batch(
            [RunRequest("sim", tiny_spec, size=8)] * 3
        )
        assert executed == 1

    def test_execute_request_matches_lazy_path(self, tmp_path, tiny_spec):
        runner = CachedRunner(str(tmp_path / "cache"))
        lazy = runner.simulate(tiny_spec, 8)
        key, shard, payload = execute_request(
            RunRequest("sim", tiny_spec, size=8)
        )
        assert key == sim_key(tiny_spec, 8, 1.0, 0)
        assert shard == tiny_spec.abbr
        payload.pop("wall_time_s")
        assert payload == _deterministic_fields(lazy)

    def test_mrc_and_mcm_requests_round_trip(self, tmp_path):
        spec = get_benchmark("va", weak=True)
        runner = CachedRunner(str(tmp_path / "cache"), jobs=2)
        executed = ParallelRunner(runner.store, jobs=2).run_batch([
            RunRequest("mrc", spec),
            RunRequest("mcm", spec, size=4, work_scale=4.0),
        ])
        assert executed == 2
        runner.miss_rate_curve(spec)
        runner.simulate_mcm(spec, 4, work_scale=4.0)
        assert runner.hits == 2 and runner.misses == 0


class TestRunIsTheRecoveryUnit:
    def test_simulate_writes_no_snapshots_beside_the_store(self, tmp_path):
        # Every persistent store used to snapshot each run at every kernel
        # boundary under a ``checkpoints/`` sibling.
        runner = CachedRunner(str(tmp_path / "simcache"))
        runner.simulate(get_benchmark("dct"), 16, 0.25)
        assert sorted(os.listdir(tmp_path)) == ["simcache"]

    def test_checkpoint_policy_stub_refuses_a_root(self):
        from repro.checkpoint import CheckpointPolicy
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="removed"):
            CheckpointPolicy(root="x")
        CachedRunner(None, checkpoint=CheckpointPolicy(root=None))


class TestStoreTelemetry:
    def test_flush_batching(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"), flush_every=3)
        store.put("k1", {"v": 1}, shard="a")
        store.put("k2", {"v": 2}, shard="a")
        assert store.stats()["flushes"] == 0
        store.put("k3", {"v": 3}, shard="b")
        stats = store.stats()
        assert stats["flushes"] == 1
        assert stats["appended_records"] == 3
        reloaded = ResultStore(str(tmp_path / "s"))
        assert len(reloaded) == 3

    def test_memory_only_store(self):
        store = ResultStore(None)
        store.put("k", {"v": 1})
        assert store.get("k") == {"v": 1}
        assert store.stats()["hits"] == 1
