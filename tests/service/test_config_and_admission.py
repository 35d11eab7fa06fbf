"""Service config validation (strict combinations) and the
admission-side helpers: the 429 backoff hint and the live breaker's
seed-from-store / reopen / close behaviour."""

import os
import subprocess
import sys

import pytest

from repro.analysis.faults import FailureLedger, RunOutcome
from repro.analysis.simcache import ResultStore
from repro.service.admission import retry_after_hint
from repro.service.config import ServiceConfig

from tests.conftest import shard_records


class TestServiceConfig:
    def test_overrides_win_and_bad_combinations_raise(self):
        config = ServiceConfig(queue_depth=5, workers_min=2)
        assert config.queue_depth == 5 and config.workers_min == 2
        # Explicit contradictions are not knobs to degrade.
        with pytest.raises(ValueError, match="workers_max"):
            ServiceConfig(workers_min=4, workers_max=2)
        with pytest.raises(ValueError, match="queue_depth"):
            ServiceConfig(queue_depth=0)
        with pytest.raises(ValueError, match="default_deadline_s"):
            ServiceConfig(default_deadline_s=0)
        # 0 disables the breaker; below that is nonsense.
        assert ServiceConfig(breaker_threshold=0).breaker_threshold == 0
        with pytest.raises(ValueError, match="breaker_threshold"):
            ServiceConfig(breaker_threshold=-1)


REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--queue-depth", "0", "queue_depth"),
        ("--workers-min", "0", "workers_min"),
        ("--default-deadline", "-5", "default_deadline_s"),
        ("--default-deadline", "nan", "default_deadline_s"),
        ("--breaker-threshold", "-1", "breaker_threshold"),
    ],
)
def test_serve_rejects_out_of_range_flags_before_binding(flag, value, field):
    # Unclamped, as the batch CLIs: exit 2 and never announce a socket.
    done = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "serve.py"),
         "--port", "0", "--store", "", flag, value],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.path.join(REPO, "src")),
    )
    assert done.returncode == 2, (done.stdout, done.stderr)
    assert "listening" not in done.stdout
    assert field in done.stderr


class TestRetryAfterHint:
    def test_scales_with_backlog_over_drain_rate(self):
        assert retry_after_hint(10, workers=2, mean_run_s=2.0) == 10.0

    def test_clamped_to_floor_and_ceiling(self):
        assert retry_after_hint(0, 4, 1.0) == 1.0
        assert retry_after_hint(1000, 1, 30.0) == 60.0

    def test_degenerate_inputs_stay_sane(self):
        assert retry_after_hint(5, workers=0, mean_run_s=0.0) >= 1.0


def outcome(key, status, shard="va"):
    return RunOutcome(key=key, kind="sim", shard=shard, status=status, attempts=1)


def ledger_at(tmp_path, threshold):
    return FailureLedger(ResultStore(str(tmp_path / "simcache")), threshold)


class TestServiceBreaker:
    def test_seeds_streaks_from_the_batch_manifest(self, tmp_path):
        # A batch CLI recorded these; the service reads them back.
        batch = ledger_at(tmp_path, threshold=2)
        batch.record([
            outcome("sick", "failed"),
            outcome("sick", "timeout"),
            outcome("healed", "failed"),
        ])
        batch.store.put("healed", {"cycles": 1.0}, shard="va")
        batch.record([outcome("healed", "ok")])
        breaker = ledger_at(tmp_path, threshold=2)
        assert breaker.tripped("sick")
        assert not breaker.tripped("healed")

    def test_trips_then_success_closes_with_an_ok_record(self, tmp_path):
        breaker = ledger_at(tmp_path, threshold=2)
        breaker.record([outcome("cfg", "failed")])
        assert not breaker.tripped("cfg")
        breaker.record([outcome("cfg", "timeout")])
        assert breaker.tripped("cfg") and breaker.trips == 1
        # The service memoizes the result, then accounts the outcome.
        breaker.store.put("cfg", {"cycles": 1.0}, shard="va")
        breaker.record([outcome("cfg", "ok")])
        assert not breaker.tripped("cfg")
        statuses = [
            r["status"] for r in shard_records(tmp_path / "simcache")
        ]
        assert statuses == ["failed", "timeout", "ok"]

    def test_success_without_a_streak_stays_out_of_the_manifest(
        self, tmp_path
    ):
        breaker = ledger_at(tmp_path, threshold=2)
        breaker.record([outcome("clean", "ok")])
        assert breaker.store.failures("clean") == []
        assert not (tmp_path / "simcache" / "va.jsonl").exists()

    def test_interrupted_is_manifested_without_counting(self, tmp_path):
        breaker = ledger_at(tmp_path, threshold=1)
        breaker.record([outcome("cfg", "interrupted")])
        assert not breaker.tripped("cfg")
        (record,) = shard_records(tmp_path / "simcache")
        assert record["status"] == "interrupted"

    def test_threshold_zero_disables(self, tmp_path):
        breaker = ledger_at(tmp_path, threshold=0)
        for _ in range(5):
            breaker.record([outcome("cfg", "failed")])
        assert not breaker.tripped("cfg")
        assert breaker.snapshot()["enabled"] is False

    def test_memory_only_ledger_still_trips_and_recovers(self):
        # ``--store ''``: a memory-only store, the gate stays live.
        breaker = FailureLedger(ResultStore(None), threshold=2)
        breaker.record([outcome("cfg", "failed"), outcome("cfg", "oom")])
        assert breaker.tripped("cfg")
        assert breaker.snapshot()["open_configs"] == 1
        breaker.record([outcome("cfg", "ok")])
        assert not breaker.tripped("cfg")

    def test_snapshot_counts_open_configs(self, tmp_path):
        breaker = ledger_at(tmp_path, threshold=1)
        breaker.record([outcome("one", "failed")])
        breaker.record([outcome("two", "oom")])
        snap = breaker.snapshot()
        assert snap["open_configs"] == 2 and snap["trips"] == 2
        assert snap["threshold"] == 1
