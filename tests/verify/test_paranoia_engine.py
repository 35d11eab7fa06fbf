"""Paranoia mode against the real engine: clean runs pass, seeded
engine mutations (``REPRO_FAULT_INJECT=drop-miss:...``) are caught."""

import pytest

from repro.analysis.faults import FAULT_INJECT_ENV
# Bound here, long before any install(): what user code and the perf
# benchmark do, and what a patch of the module attribute never reached.
from repro.analysis.runner import compute_mrc, compute_sim
from repro.exceptions import InvariantError
from repro.gpu import GPUSimulator
from repro.verify import hooks
from repro.verify.runtime import VERIFY_ENV

from repro.workloads import get_benchmark

from tests.verify.conftest import small_setup


class TestCleanRuns:
    def test_paranoia_run_matches_plain_run(self):
        config, trace = small_setup()
        plain = GPUSimulator(config).run(trace)
        with hooks.paranoia(True):
            checked = GPUSimulator(config).run(trace)
        assert checked.cycles == plain.cycles
        assert checked.l1_misses == plain.l1_misses
        assert checked.warp_instructions == plain.warp_instructions

    def test_every_checker_fires(self):
        config, trace = small_setup()  # btree: 2 kernels
        with hooks.paranoia(True):
            GPUSimulator(config).run(trace)
        stats = hooks.VERIFY_STATS
        assert stats["runs_checked"] >= 1
        assert stats["events_checked"] > 0
        assert stats["queue_scans"] >= 1
        assert stats["boundaries_checked"] == len(trace.kernels)
        assert stats["results_checked"] == 1


    def test_stats_pinned_on_the_benchmark_probe(self):
        # compute_sim(va, 8, 0.25, 0) is what the perf benchmark times
        # under paranoia; the work the checks do there is pinned.
        with hooks.paranoia(True):
            hooks.reset_stats()
            compute_sim(get_benchmark("va"), 8, 0.25, 0)
        assert hooks.VERIFY_STATS == {
            "runs_checked": 1,
            "events_checked": 57344,
            "queue_scans": 29,
            "boundaries_checked": 1,
            "results_checked": 1,
            "curves_checked": 0,
            "predictions_checked": 0,
        }


class TestEveryCurveIsChecked:
    """The check sits where curves are built, not on a module attribute."""

    def test_compute_mrc_bound_before_install(self):
        with hooks.paranoia(True):
            compute_mrc(get_benchmark("va"), 0.05, "stack", 0)
        assert hooks.VERIFY_STATS["curves_checked"] == 1

    def test_runner_less_figure3_path(self):
        from repro.core.workflow import _default_curve

        with hooks.paranoia(True):
            _default_curve(get_benchmark("va"))
        assert hooks.VERIFY_STATS["curves_checked"] == 1

    def test_unchecked_when_off(self):
        compute_mrc(get_benchmark("va"), 0.05, "stack", 0)
        assert hooks.VERIFY_STATS["curves_checked"] == 0


class TestSeededEngineMutation:
    """The ISSUE's acceptance demo: a dropped miss increment, injected
    behind ``REPRO_FAULT_INJECT``, must not survive paranoia mode."""

    def test_drop_miss_caught_at_first_boundary(self, monkeypatch):
        config, trace = small_setup()
        monkeypatch.setenv(FAULT_INJECT_ENV, f"drop-miss:{trace.name}")
        with hooks.paranoia(True):
            with pytest.raises(InvariantError, match="miss conservation"):
                GPUSimulator(config).run(trace)

    def test_drop_miss_invisible_without_paranoia(self, monkeypatch):
        # The fault itself is independent of verification: without the
        # hooks the mutated run completes and is exactly one miss short.
        config, trace = small_setup()
        clean = GPUSimulator(config).run(trace)
        monkeypatch.setenv(FAULT_INJECT_ENV, f"drop-miss:{trace.name}")
        mutated = GPUSimulator(config).run(trace)
        assert mutated.l1_hits + mutated.l1_misses == (
            mutated.memory_accesses - 1
        )
        assert mutated.l1_misses == clean.l1_misses - 1

    def test_drop_miss_ignores_other_workloads(self, monkeypatch):
        config, trace = small_setup()
        monkeypatch.setenv(FAULT_INJECT_ENV, "drop-miss:doesnotmatch")
        with hooks.paranoia(True):
            GPUSimulator(config).run(trace)  # must not raise


class TestSelfArming:
    def test_simulator_self_arms_from_env(self, monkeypatch):
        config, trace = small_setup(abbr="va", size=2, work_scale=0.05)
        monkeypatch.setenv(VERIFY_ENV, "1")
        assert not hooks.installed()
        GPUSimulator(config).run(trace)
        assert hooks.installed()
        assert hooks.VERIFY_STATS["runs_checked"] >= 1

    def test_falsy_env_values_do_not_arm(self, monkeypatch):
        config, trace = small_setup(abbr="va", size=2, work_scale=0.05)
        monkeypatch.setenv(VERIFY_ENV, "0")
        GPUSimulator(config).run(trace)
        assert not hooks.installed()
