"""Resilience-layer unit tests: the shutdown coordinator, the disk
guard, size/threshold parsing, the per-process memory ceiling and the
circuit breaker's accounting — the failure ledger's reading of the
store's failure records (integration with the execution paths lives in
``tests/analysis/test_breaker.py``)."""

import os
import signal
import subprocess
import sys
import warnings

import pytest

from repro import resilience
from repro.analysis.faults import (
    DEFAULT_BREAKER_THRESHOLD,
    ExecutionPolicy,
    FailureLedger,
    RunOutcome,
)
from repro.analysis.simcache import ResultStore
from repro.exceptions import ShutdownRequested
from repro.obs.metrics import get_registry
from repro.resilience import (
    DEFAULT_MIN_FREE_MB,
    DiskGuard,
    ShutdownCoordinator,
    apply_memory_limit,
    get_coordinator,
    install_shutdown_handlers,
    parse_size,
    preflight_disk,
    reset_disk_guard,
)
from repro.service.config import ServiceConfig

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


class TestParseSize:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("512M", 512 * 1024 ** 2),
            ("2g", 2 * 1024 ** 3),
            ("1048576", 1048576),
            ("1.5k", 1536),
            ("1T", 1024 ** 4),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("text", ["", "  ", "banana", "0", "-1", "-2G", "G"])
    def test_garbage_is_none(self, text):
        assert parse_size(text) is None


class TestTolerantEnv:
    """The one shared degrade-don't-die policy for every REPRO_* tuning
    knob."""

    def test_unset_and_empty_are_silent_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resilience.env_float("REPRO_TEST_KNOB", 7.0) == 7.0
            monkeypatch.setenv("REPRO_TEST_KNOB", "")
            assert resilience.env_float("REPRO_TEST_KNOB", 2.5) == 2.5

    @pytest.mark.parametrize("raw", ["banana", "-3", "1.5.2", " "])
    def test_garbage_warns_naming_the_knob_and_degrades(
        self, monkeypatch, raw
    ):
        monkeypatch.setenv("REPRO_TEST_KNOB", raw)
        with pytest.warns(UserWarning, match="REPRO_TEST_KNOB"):
            assert resilience.env_float("REPRO_TEST_KNOB", 4.0) == 4.0

    def test_valid_values_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "12")
        assert resilience.env_float("REPRO_TEST_KNOB", 1.0) == 12.0
        monkeypatch.setenv("REPRO_TEST_KNOB", "0.25")
        assert resilience.env_float("REPRO_TEST_KNOB", 1.0) == 0.25

    def test_parse_tolerant_custom_parser_and_expected_text(self):
        with pytest.warns(UserWarning, match="is not a colour"):
            value = resilience.parse_tolerant(
                "REPRO_HUE", "infrared", "blue",
                lambda raw: raw if raw in ("red", "blue") else None,
                expected="a colour",
            )
        assert value == "blue"
        assert (
            resilience.parse_tolerant(
                "REPRO_HUE", "red", "blue", lambda raw: raw
            )
            == "red"
        )

    def test_min_free_mb_garbage_keeps_disk_guard_working(
        self, monkeypatch
    ):
        monkeypatch.setenv(resilience.MIN_FREE_ENV, "lots")
        with pytest.warns(UserWarning, match=resilience.MIN_FREE_ENV):
            guard = DiskGuard()
        assert guard.min_free_bytes == DEFAULT_MIN_FREE_MB * 1024 * 1024

    def test_max_rss_garbage_warns_and_applies_nothing(self, monkeypatch):
        monkeypatch.setenv(resilience.MAX_RSS_ENV, "banana")
        with pytest.warns(UserWarning, match=resilience.MAX_RSS_ENV):
            assert apply_memory_limit() is None


class TestBreakerThreshold:
    def test_default_when_unset(self):
        assert DEFAULT_BREAKER_THRESHOLD == 3
        assert ExecutionPolicy().breaker_threshold == 3
        assert ServiceConfig().breaker_threshold == 3
        assert FailureLedger(ResultStore(None)).threshold == 3


class TestShutdownCoordinator:
    def test_check_is_a_noop_until_signalled(self):
        coordinator = ShutdownCoordinator()
        coordinator.check()  # must not raise

    def test_first_signal_requests_a_drain(self, capsys):
        coordinator = ShutdownCoordinator()
        coordinator._handle(signal.SIGTERM, None)
        assert coordinator.requested
        assert coordinator.signum == signal.SIGTERM
        assert "draining" in capsys.readouterr().err
        with pytest.raises(ShutdownRequested) as err:
            coordinator.check()
        assert err.value.signum == signal.SIGTERM
        assert "partial progress is flushed" in str(err.value)

    def test_shutdown_requested_evades_except_exception(self):
        # --keep-going handlers catch Exception/ReproError; a drain
        # request must sail straight through them.
        assert not isinstance(ShutdownRequested("x"), Exception)
        assert isinstance(ShutdownRequested("x"), BaseException)

    def test_second_signal_force_quits(self, monkeypatch, capsys):
        coordinator = ShutdownCoordinator()
        codes = []
        monkeypatch.setattr(resilience.os, "_exit", codes.append)
        coordinator._handle(signal.SIGTERM, None)
        coordinator._handle(signal.SIGTERM, None)
        assert codes == [128 + signal.SIGTERM]

    def test_signal_bumps_the_shutdown_counter(self, capsys):
        before = get_registry().counter("resilience.shutdown_requested").value
        ShutdownCoordinator()._handle(signal.SIGINT, None)
        after = get_registry().counter("resilience.shutdown_requested").value
        assert after == before + 1

    def test_reset_clears_the_request(self, capsys):
        coordinator = ShutdownCoordinator()
        coordinator._handle(signal.SIGINT, None)
        coordinator.reset()
        assert not coordinator.requested
        coordinator.check()  # no raise

    def test_install_and_uninstall_swap_real_handlers(self):
        coordinator = ShutdownCoordinator()
        previous = signal.getsignal(signal.SIGTERM)
        try:
            coordinator.install()
            assert coordinator.installed
            assert signal.getsignal(signal.SIGTERM) == coordinator._handle
            assert signal.getsignal(signal.SIGINT) == coordinator._handle
        finally:
            coordinator.uninstall()
        assert signal.getsignal(signal.SIGTERM) == previous
        assert not coordinator.installed

    def test_install_shutdown_handlers_returns_the_singleton(self):
        coordinator = install_shutdown_handlers()
        try:
            assert coordinator is get_coordinator()
            assert coordinator.installed
        finally:
            coordinator.uninstall()


class TestDiskGuard:
    def test_ok_with_real_free_space(self, tmp_path):
        assert DiskGuard(interval=0).ok(str(tmp_path))

    def test_zero_threshold_disables_the_guard(self, tmp_path):
        guard = DiskGuard(min_free_bytes=0, interval=0)
        assert guard.ok(str(tmp_path))

    def test_low_state_warns_once_and_counts_pressure(self, tmp_path):
        guard = DiskGuard(min_free_bytes=10 ** 18, interval=0)  # ~1 EB
        before = get_registry().counter("resilience.resource_pressure").value
        with pytest.warns(UserWarning, match="disk guard"):
            assert not guard.ok(str(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not guard.ok(str(tmp_path))  # latched: no second warning
        after = get_registry().counter("resilience.resource_pressure").value
        assert after == before + 1

    def test_note_failure_forces_low_until_recheck(self, tmp_path):
        guard = DiskGuard(min_free_bytes=1, interval=3600)
        assert guard.ok(str(tmp_path))
        with pytest.warns(UserWarning, match="disk guard"):
            guard.note_failure(str(tmp_path))
        assert not guard.ok(str(tmp_path))  # cached verdict inside interval

    def test_recovery_clears_the_warning_latch(self, tmp_path):
        guard = DiskGuard(min_free_bytes=1, interval=0)
        with pytest.warns(UserWarning, match="disk guard"):
            guard.note_failure(str(tmp_path))
        assert guard.ok(str(tmp_path))  # interval 0: re-stat, disk is fine
        assert not guard._warned_low  # a new episode will warn again

    def test_free_bytes_walks_up_to_an_existing_ancestor(self, tmp_path):
        guard = DiskGuard(interval=0)
        free = guard.free_bytes(str(tmp_path / "not" / "yet" / "created"))
        assert isinstance(free, int) and free > 0

    def test_env_garbage_warns_and_uses_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_MIN_FREE_MB", "banana")
        with pytest.warns(UserWarning, match="REPRO_MIN_FREE_MB"):
            guard = DiskGuard()
        assert guard.min_free_bytes == DEFAULT_MIN_FREE_MB * 1024 * 1024

    def test_preflight_skips_none_and_flags_low_targets(
        self, tmp_path, monkeypatch
    ):
        assert preflight_disk(None, str(tmp_path), None)
        monkeypatch.setenv("REPRO_MIN_FREE_MB", str(10 ** 12))  # ~1 EB
        reset_disk_guard()
        with pytest.warns(UserWarning, match="disk guard"):
            assert not preflight_disk(str(tmp_path))


class TestMemoryLimit:
    def test_unset_env_is_a_noop(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_RSS", raising=False)
        assert apply_memory_limit() is None

    def test_garbage_warns_and_applies_nothing(self):
        with pytest.warns(UserWarning, match="REPRO_MAX_RSS"):
            assert apply_memory_limit("banana") is None

    def test_limit_maps_allocation_to_memory_error(self):
        # In a subprocess: RLIMIT_AS in this process would destabilise
        # the rest of the suite.
        code = (
            "from repro.resilience import apply_memory_limit\n"
            "limit = apply_memory_limit('1G')\n"
            "assert limit is not None and limit <= 1 << 30, limit\n"
            "try:\n"
            "    block = bytearray(2 << 30)\n"
            "except MemoryError:\n"
            "    print('MEMORY-ERROR-RAISED')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert result.returncode == 0, result.stderr
        assert "MEMORY-ERROR-RAISED" in result.stdout


def record(key, status):
    return RunOutcome(key=key, kind="sim", shard="va", status=status)


def recorded(root, outcomes, threshold=3):
    """Record ``outcomes`` through a ledger over the store at ``root``,
    then return a fresh ledger over a fresh store on the same root."""
    FailureLedger(ResultStore(root), threshold).record(outcomes)
    return FailureLedger(ResultStore(root), threshold)


class TestCircuitBreakerAccounting:
    def test_streak_of_terminal_failures_trips(self, tmp_path):
        root = str(tmp_path / "simcache")
        breaker = recorded(
            root, [record("k", s) for s in ("failed", "timeout", "oom")]
        )
        assert breaker.streak("k") == 3
        assert breaker.tripped("k")
        assert not breaker.tripped("other")

    def test_ok_record_closes_the_streak(self, tmp_path):
        root = str(tmp_path / "simcache")
        recorded(root, [record("k", "failed"), record("k", "failed")])
        # The run's result record is the reset.
        ResultStore(root).put("k", {"cycles": 1.0}, shard="va")
        breaker = recorded(root, [record("k", "ok")], threshold=2)
        assert breaker.streak("k") == 0
        assert not breaker.tripped("k")

    def test_interrupted_and_skipped_do_not_count(self, tmp_path):
        # Being drained by a SIGTERM says nothing about the config.
        root = str(tmp_path / "simcache")
        breaker = recorded(
            root,
            [
                record("k", "failed"),
                record("k", "interrupted"),
                record("k", "skipped"),
                record("k", "failed"),
            ],
        )
        assert breaker.streak("k") == 2
        assert not breaker.tripped("k")

    def test_torn_and_foreign_lines_are_tolerated(self, tmp_path):
        root = str(tmp_path / "simcache")
        recorded(root, [record("k", "failed")] * 2)
        with open(os.path.join(root, "va.jsonl"), "a") as fh:
            fh.write('["not", "a", "dict"]\n')
            fh.write('{"status": "failed"}\n')  # no key
            fh.write('{"key": "k", "sta')  # torn trailing line
        with pytest.warns(UserWarning, match="corrupt lines"):
            breaker = FailureLedger(ResultStore(root), threshold=2)
        assert breaker.streak("k") == 2
        assert breaker.tripped("k")

    def test_threshold_zero_or_no_root_disables(self, tmp_path):
        root = str(tmp_path / "simcache")
        recorded(root, [record("k", "failed")] * 10)
        assert not FailureLedger(ResultStore(root), threshold=0).enabled
        assert not FailureLedger(ResultStore(root), threshold=0).tripped("k")
        # A memory-only store switches persistence off, not the gate: a
        # fresh memory-only ledger has read nothing, so it trips nothing.
        assert FailureLedger(ResultStore(None), threshold=3).enabled
        assert not FailureLedger(ResultStore(None), threshold=3).tripped("k")

    def test_tripped_keys_filters(self, tmp_path):
        breaker = recorded(
            str(tmp_path / "simcache"),
            [record("bad", "failed")] * 3 + [record("good", "failed")],
        )
        assert [
            key for key in ("bad", "good", "new") if breaker.tripped(key)
        ] == ["bad"]
