"""Observability: strictly opt-in, no-op when ``REPRO_OBS`` is unset, one
switch that rebinds nothing, and recording the advertised span and
counter names when on."""

import json
import os
import re

import pytest

from repro.obs import bootstrap
from repro.obs.export import validate_trace_events
from repro.obs.metrics import get_registry
from repro.obs.profile_hooks import (
    OBS_ENV,
    SPILL_ENV,
    ensure_worker,
    install,
    obs_enabled,
    uninstall,
)
from repro.obs.tracing import get_tracer
from repro.workloads import get_benchmark

from tests.verify.conftest import instrumented_targets


@pytest.fixture
def tiny_spec():
    return get_benchmark("va", weak=True)


@pytest.fixture
def clean_obs(monkeypatch):
    """Guarantee pristine global observability state around a test."""
    monkeypatch.delenv(OBS_ENV, raising=False)
    monkeypatch.delenv(SPILL_ENV, raising=False)
    yield
    # bootstrap() writes these straight into os.environ (workers must
    # inherit them), so monkeypatch alone cannot undo a test's opt-in.
    os.environ.pop(OBS_ENV, None)
    os.environ.pop(SPILL_ENV, None)
    uninstall()
    tracer = get_tracer()
    tracer.clear()
    tracer.spill_dir = None
    get_registry().reset()


class TestOptIn:
    @pytest.mark.parametrize("value", ["", "0", "false", "off", "no", "No"])
    def test_falsy_values(self, value):
        assert obs_enabled(value) is False

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes"])
    def test_truthy_values(self, value):
        assert obs_enabled(value) is True

    def test_env_lookup(self, clean_obs, monkeypatch):
        assert obs_enabled() is False
        monkeypatch.setenv(OBS_ENV, "1")
        assert obs_enabled() is True


class TestNoOpWhenDisabled:
    def test_hot_paths_untouched_without_env(self, clean_obs):
        before = instrumented_targets()
        ensure_worker()  # REPRO_OBS unset: must switch nothing on
        assert instrumented_targets() == before
        assert get_tracer().enabled is False
        assert get_tracer().metrics is None

    def test_simulation_records_nothing_when_disabled(
        self, clean_obs, tiny_spec
    ):
        from repro.analysis.runner import CachedRunner

        runner = CachedRunner(cache_path=None)
        runner.simulate(tiny_spec, 8)
        assert get_tracer().events() == []
        assert get_registry().snapshot()["counters"] == {}


class TestInstallUninstall:
    def test_install_flips_the_switch_and_rebinds_nothing(self, clean_obs):
        before = instrumented_targets()
        install()
        assert get_tracer().enabled is True
        assert get_tracer().metrics is get_registry()
        for original, current in zip(before, instrumented_targets()):
            assert current is original
        uninstall()
        assert get_tracer().enabled is False
        assert get_tracer().metrics is None
        for original, current in zip(before, instrumented_targets()):
            assert current is original

    def test_install_is_idempotent(self, clean_obs):
        install()
        install()
        assert get_tracer().enabled is True
        uninstall()  # one uninstall undoes any number of installs
        assert get_tracer().enabled is False

    def test_ensure_worker_arms_when_env_set(self, clean_obs, monkeypatch):
        monkeypatch.setenv(OBS_ENV, "1")
        ensure_worker()
        assert get_tracer().enabled is True

    def test_installed_hooks_record_metrics(self, clean_obs, tiny_spec):
        from repro.analysis.runner import CachedRunner

        install()
        runner = CachedRunner(cache_path=None)
        runner.simulate(tiny_spec, 8)
        counters = get_registry().counters_dict()
        assert counters["engine.events"] > 0
        assert get_registry().histogram("engine.run_us").count > 0
        cats = {e["cat"] for e in get_tracer().events()}
        assert "kernel" in cats and "sim" in cats and "run" in cats


class TestRecordedNames:
    """The inline sites' vocabulary, captured before they were inlined."""

    def test_span_and_counter_names_are_pinned(
        self, clean_obs, tiny_spec, tmp_path
    ):
        from repro.analysis.parallel import ParallelRunner, RunRequest
        from repro.analysis.runner import CachedRunner
        from repro.analysis.simcache import ResultStore

        install()
        cache = str(tmp_path / "cache")
        runner = CachedRunner(cache_path=cache)
        runner.simulate(tiny_spec, 8)
        runner.simulate(tiny_spec, 8)  # one hit
        batch = ParallelRunner(runner.store, jobs=1)
        batch.run_batch_report([
            RunRequest("sim", tiny_spec, 16, 1.0, 0),
            RunRequest("mrc", tiny_spec, 0, 1.0, 0),
        ])
        runner.flush()
        ResultStore(cache).stats()  # reopen, read every shard: the read side

        spans = {
            (re.sub(r"\[\d+\]", "[N]", e["name"]), e["cat"], e["ph"])
            for e in get_tracer().events()
        }
        assert spans == {
            ("attempt:va", "run", "X"),
            ("batch", "run", "X"),
            ("batch.submit", "run", "i"),
            ("cache.flush", "cache", "X"),
            ("cache.load_shard", "cache", "X"),
            ("engine.run", "kernel", "X"),
            ("kernel[N]:va-k0", "kernel", "X"),
            ("run.hit", "run", "i"),
            ("run.miss", "run", "i"),
            ("sim:va", "sim", "X"),
        }
        snapshot = get_registry().snapshot()
        assert set(snapshot["counters"]) == {
            "batch.failed", "batch.interrupted", "batch.ok", "batch.oom",
            "batch.pool_deaths", "batch.retries", "batch.skipped",
            "batch.timeout", "cache.flushed_records", "cache.hits",
            "cache.misses", "cache.shards_loaded", "engine.events",
        }
        assert set(snapshot["histograms"]) == {
            "batch.wall_us", "engine.run_us", "span.cache.us",
            "span.kernel.us", "span.run.us", "span.sim.us",
        }


class TestBootstrapEndToEnd:
    def test_artifacts_written_and_valid(
        self, clean_obs, tiny_spec, tmp_path, monkeypatch
    ):
        # The acceptance path: a small run with trace/metrics outputs
        # yields Chrome-loadable JSON spanning the advertised categories
        # plus a metrics snapshot with counters/gauges/histograms.
        monkeypatch.chdir(tmp_path)
        from repro.analysis.runner import CachedRunner

        trace_out = str(tmp_path / "trace.json")
        metrics_out = str(tmp_path / "metrics.json")
        session = bootstrap(trace_out=trace_out, metrics_out=metrics_out)
        assert session.active
        runner = CachedRunner(cache_path=str(tmp_path / "cache"))
        runner.simulate(tiny_spec, 8)
        runner.simulate(tiny_spec, 8)  # one hit
        runner.flush()
        session.finalize(extra_metrics={"runner": runner.metrics})

        document = json.loads((tmp_path / "trace.json").read_text())
        assert validate_trace_events(document) == []
        cats = {e["cat"] for e in document["traceEvents"]}
        assert {"run", "sim", "kernel", "cache"} <= cats

        snapshot = json.loads((tmp_path / "metrics.json").read_text())
        assert snapshot["counters"]["runner.runner.hits"] == 1
        assert snapshot["counters"]["runner.runner.misses"] == 1
        assert snapshot["gauges"]["obs.enabled"] == 1.0
        quantiles = snapshot["histograms"]["span.kernel.us"]
        assert quantiles["count"] > 0 and "p95" in quantiles
        # The spill directory is cleaned up after a successful export.
        assert not os.path.isdir(trace_out + ".spill")

    def test_inactive_without_env_or_outputs(self, clean_obs):
        session = bootstrap()
        assert session.active is False
        assert get_tracer().enabled is False
        session.finalize()  # must be a harmless no-op


class TestExecutionHealthParity:
    def test_format_matches_pre_refactor_wording(self, clean_obs):
        # execution_health() became a view over the metrics registry; the
        # string scripts and CI grep must not have changed.
        from repro.analysis.faults import OK, BatchReport, RunOutcome
        from repro.analysis.runner import CachedRunner

        runner = CachedRunner(cache_path=None)
        assert runner.execution_health() == (
            "execution: 0 ok, 0 failed, 0 timed out, 0 retries, "
            "0 pool deaths"
        )
        report = BatchReport(outcomes=(
            RunOutcome(key="k", kind="sim", shard="va", status=OK,
                       attempts=2),
        ))
        runner._absorb_report(report)
        assert runner.execution_health() == (
            "execution: 1 ok, 0 failed, 0 timed out, 1 retries, "
            "0 pool deaths"
        )

    def test_stats_keeps_exec_keys(self, clean_obs):
        from repro.analysis.runner import CachedRunner

        stats = CachedRunner(cache_path=None).stats()
        for key in ("exec_ok", "exec_failed", "exec_timeout",
                    "exec_retries", "exec_pool_deaths",
                    "runner_hits", "runner_misses"):
            assert stats[key] == 0
