"""Injected filesystem faults at every persistence seam:
``ResultStore.flush``, the store's quarantine and compaction rewrites and the
trace/metrics exporters survive ENOSPC and partial writes — pending
data is kept in memory, retried once the disk recovers, a torn append
never corrupts a neighbouring record, and a shard is never lost."""

import json
import os

import pytest

from repro.analysis.faults import FAULT_INJECT_ENV, reset_io_faults
from repro.analysis.simcache import ResultStore
from repro.obs.export import (
    validate_trace_events,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.metrics import MetricsRegistry
from repro.resilience import reset_disk_guard

FAULTS = ["enospc", "partial-write"]


def arm(monkeypatch, plan):
    """Arm a fault plan with the disk guard re-checking on every call,
    so a forced low state clears as soon as the fault budget is spent."""
    monkeypatch.setenv("REPRO_DISK_CHECK_INTERVAL", "0")
    monkeypatch.setenv(FAULT_INJECT_ENV, plan)
    reset_disk_guard()
    reset_io_faults()


def disarm(monkeypatch):
    monkeypatch.delenv(FAULT_INJECT_ENV, raising=False)
    reset_io_faults()


class TestStoreFlush:
    @pytest.mark.parametrize("fault", FAULTS)
    def test_failed_flush_keeps_records_pending_then_retries(
        self, tmp_path, monkeypatch, fault
    ):
        arm(monkeypatch, f"{fault}:store:1")
        store = ResultStore(str(tmp_path / "simcache"))
        with pytest.warns(UserWarning, match="keeping records pending"):
            store.put("k1", {"value": 1}, shard="va")
        # The run's result is still served from memory...
        assert store.get("k1") == {"value": 1}
        assert store.stats()["write_errors"] == 1
        # ...and the next flush (disk recovered) makes it durable.
        disarm(monkeypatch)
        assert store.flush() == 1
        # partial-write left a torn fragment behind, which the reload
        # quarantines; either way the record itself is fully recovered.
        reloaded = ResultStore(str(tmp_path / "simcache"))
        assert reloaded.contains("k1")
        expected_corrupt = 1 if fault == "partial-write" else 0
        assert reloaded.stats()["corrupt_lines"] == expected_corrupt

    def test_torn_append_is_isolated_by_the_newline_guard(
        self, tmp_path, monkeypatch
    ):
        arm(monkeypatch, "partial-write:store:1")
        store = ResultStore(str(tmp_path / "simcache"))
        with pytest.warns(UserWarning, match="keeping records pending"):
            store.put("k1", {"value": 1}, shard="va")
        shard = tmp_path / "simcache" / "va.jsonl"
        assert shard.exists() and not shard.read_text().endswith("\n")
        disarm(monkeypatch)
        store.put("k2", {"value": 2}, shard="va")  # retries k1 alongside
        # The torn fragment costs exactly one corrupt line; both real
        # records load and the shard is quarantined + salvaged.
        with pytest.warns(UserWarning, match="corrupt lines"):
            reloaded = ResultStore(str(tmp_path / "simcache"))
        assert reloaded.contains("k1") and reloaded.contains("k2")
        assert reloaded.stats()["corrupt_lines"] == 1
        assert reloaded.stats()["quarantined_shards"] == 1
        # The salvage rewrite left a clean shard for the *next* load.
        clean = ResultStore(str(tmp_path / "simcache"))
        assert clean.contains("k1") and clean.contains("k2")
        assert clean.stats()["corrupt_lines"] == 0

    def test_low_disk_guard_skips_the_flush_entirely(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_MIN_FREE_MB", str(10 ** 12))  # ~1 EB
        monkeypatch.setenv("REPRO_DISK_CHECK_INTERVAL", "0")
        reset_disk_guard()
        store = ResultStore(str(tmp_path / "simcache"))
        with pytest.warns(UserWarning, match="disk guard"):
            store.put("k1", {"value": 1}, shard="va")
        assert store.stats()["skipped_flushes"] == 1
        assert not (tmp_path / "simcache" / "va.jsonl").exists()
        assert store.get("k1") == {"value": 1}  # computation unaffected
        # Space recovers: the pending record flushes after all.
        monkeypatch.setenv("REPRO_MIN_FREE_MB", "0")
        reset_disk_guard()
        assert store.flush() == 1
        assert ResultStore(str(tmp_path / "simcache")).contains("k1")

    @pytest.mark.parametrize("fault", FAULTS)
    def test_failed_quarantine_rewrite_keeps_the_shard(
        self, tmp_path, monkeypatch, fault
    ):
        root = str(tmp_path / "simcache")
        ResultStore(root).put("good", {"value": 1}, shard="va")
        shard = tmp_path / "simcache" / "va.jsonl"
        with open(shard, "a") as fh:
            fh.write('{"key": "torn')  # a torn tail: no closing, no newline
        original = shard.read_text()
        arm(monkeypatch, f"{fault}:store")
        with pytest.warns(UserWarning, match="quarantine of shard .* failed"):
            store = ResultStore(root)
        # The live shard is still the original, a copy sits in
        # quarantine, and the salvaged record is served from memory.
        assert shard.read_text() == original
        assert (tmp_path / "simcache" / "quarantine" / "va.jsonl").exists()
        assert store.get("good") == {"value": 1}
        stats = store.stats()
        assert stats["write_errors"] == 1
        assert stats["quarantined_shards"] == 0
        # Appends to the shard still land, clear of the torn tail; the
        # next open (disk recovered) quarantines it and salvages both.
        store.put("more", {"value": 2}, shard="va")
        disarm(monkeypatch)
        with pytest.warns(UserWarning, match="2 records salvaged"):
            reopened = ResultStore(root)
        assert reopened.get("good") == {"value": 1}
        assert reopened.get("more") == {"value": 2}
        assert "torn" not in shard.read_text()

    @pytest.mark.parametrize("fault", FAULTS)
    def test_failed_compaction_keeps_the_shard(self, tmp_path, monkeypatch, fault):
        root = str(tmp_path / "simcache")
        store = ResultStore(root)
        with store.batch():
            for attempt in range(20):
                store.put("k", {"attempt": attempt}, shard="va", failed=True)
            store.put("k", {"value": 1}, shard="va")
        shard = tmp_path / "simcache" / "va.jsonl"
        original = shard.read_text()
        arm(monkeypatch, f"{fault}:store")
        with pytest.warns(UserWarning, match="compaction of shard .* failed"):
            assert ResultStore(root).get("k") == {"value": 1}
        assert shard.read_text() == original
        # The disk recovers: the next read compacts the shard.
        disarm(monkeypatch)
        assert ResultStore(root).get("k") == {"value": 1}
        assert shard.read_text().count("\n") == 1


class TestExportSeams:
    @pytest.mark.parametrize("fault", FAULTS)
    def test_trace_export_survives(self, tmp_path, monkeypatch, fault):
        arm(monkeypatch, f"{fault}:trace:1")
        path = str(tmp_path / "trace.json")
        with pytest.warns(UserWarning, match="cannot write"):
            write_chrome_trace(path)
        assert not os.path.exists(path)
        disarm(monkeypatch)
        write_chrome_trace(path)
        document = json.load(open(path))
        assert validate_trace_events(document) == []

    @pytest.mark.parametrize("fault", FAULTS)
    def test_metrics_export_survives(self, tmp_path, monkeypatch, fault):
        arm(monkeypatch, f"{fault}:metrics:1")
        registry = MetricsRegistry()
        registry.inc("campaign.runs", 7)
        path = str(tmp_path / "metrics.json")
        with pytest.warns(UserWarning, match="cannot write"):
            snapshot = write_metrics(path, registry=registry)
        # The snapshot (the in-memory truth) survives the lost artifact.
        assert snapshot["counters"]["campaign.runs"] == 7
        assert not os.path.exists(path)
        disarm(monkeypatch)
        write_metrics(path, registry=registry)
        written = json.load(open(path))
        assert written["counters"]["campaign.runs"] == 7

    def test_low_disk_skips_exports_with_a_warning(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_MIN_FREE_MB", str(10 ** 12))
        monkeypatch.setenv("REPRO_DISK_CHECK_INTERVAL", "0")
        reset_disk_guard()
        path = str(tmp_path / "trace.json")
        with pytest.warns(UserWarning, match="disk space low"):
            write_chrome_trace(path)
        assert not os.path.exists(path)
