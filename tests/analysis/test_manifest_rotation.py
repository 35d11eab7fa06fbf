"""Failure-manifest rotation: oversized shards compact to per-key
streak records that preserve circuit-breaker semantics (satellite of
the campaign-resilience work)."""

import json
import os

import pytest

from repro.analysis import faults
from repro.analysis.faults import (
    FAILED,
    OK,
    STREAK,
    TIMEOUT,
    FailureLedger,
    FailureManifest,
    RunOutcome,
)

#: Rotation ceiling small enough that any append rotates.
_TINY = 104


def outcome(key, status, shard="va"):
    return RunOutcome(
        key=key, kind="sim", shard=shard, status=status,
        error=None if status == OK else "boom",
    )


@pytest.fixture
def root(tmp_path):
    return str(tmp_path / "failures")


def read_records(path):
    return [json.loads(line) for line in open(path) if line.strip()]


class TestRotation:
    def test_oversized_shard_compacts_to_streaks(self, root, monkeypatch):
        monkeypatch.setattr(faults, "MANIFEST_MAX_BYTES", _TINY)
        manifest = FailureManifest(root)
        with pytest.warns(UserWarning, match="rotated"):
            manifest.append(
                [outcome("sim|aaa", FAILED)] * 3
                + [outcome("sim|bbb", TIMEOUT)]
            )
        records = read_records(manifest.path_for("va"))
        assert {r["status"] for r in records} == {STREAK}
        by_key = {r["key"]: r["count"] for r in records}
        assert by_key == {"sim|aaa": 3, "sim|bbb": 1}
        # Raw history survives exactly one rotation, off the breaker's
        # *.jsonl scan.
        assert os.path.exists(manifest.path_for("va") + ".old")
        assert len(read_records(manifest.path_for("va") + ".old")) == 4

    def test_zero_keys_are_dropped_from_the_compact_shard(
        self, root, monkeypatch
    ):
        monkeypatch.setattr(faults, "MANIFEST_MAX_BYTES", _TINY)
        manifest = FailureManifest(root)
        with pytest.warns(UserWarning, match="rotated"):
            manifest.append(
                [outcome("sim|aaa", FAILED), outcome("sim|aaa", OK),
                 outcome("sim|bbb", FAILED)]
            )
        records = read_records(manifest.path_for("va"))
        assert [r["key"] for r in records] == ["sim|bbb"]

    def test_zero_ceiling_disables_rotation(self, root, monkeypatch):
        monkeypatch.setattr(faults, "MANIFEST_MAX_BYTES", 0)
        manifest = FailureManifest(root)
        manifest.append([outcome("sim|aaa", FAILED)] * 8)
        records = read_records(manifest.path_for("va"))
        assert len(records) == 8
        assert all(r["status"] == FAILED for r in records)
        assert not os.path.exists(manifest.path_for("va") + ".old")

    def test_default_ceiling_leaves_small_shards_alone(self, root):
        manifest = FailureManifest(root)
        manifest.append([outcome("sim|aaa", FAILED)] * 4)
        assert all(
            r["status"] == FAILED
            for r in read_records(manifest.path_for("va"))
        )


class TestBreakerSemantics:
    def test_streaks_survive_rotation(self, root, monkeypatch):
        manifest = FailureManifest(root)
        manifest.append([outcome("sim|bad", FAILED)] * 3)
        before = FailureLedger(root, threshold=3)
        assert before.tripped("sim|bad")
        monkeypatch.setattr(faults, "MANIFEST_MAX_BYTES", _TINY)
        with pytest.warns(UserWarning, match="rotated"):
            manifest.append([outcome("sim|other", FAILED)])
        after = FailureLedger(root, threshold=3)
        assert after.streak("sim|bad") == 3
        assert after.tripped("sim|bad")
        assert after.streak("sim|other") == 1
        assert not after.tripped("sim|other")

    def test_ok_after_rotation_still_closes_the_breaker(
        self, root, monkeypatch
    ):
        monkeypatch.setattr(faults, "MANIFEST_MAX_BYTES", _TINY)
        manifest = FailureManifest(root)
        with pytest.warns(UserWarning, match="rotated"):
            manifest.append([outcome("sim|bad", FAILED)] * 3)
        assert FailureLedger(root, threshold=3).tripped("sim|bad")
        with pytest.warns(UserWarning, match="rotated"):
            manifest.append([outcome("sim|bad", OK)])
        breaker = FailureLedger(root, threshold=3)
        assert breaker.streak("sim|bad") == 0
        assert not breaker.tripped("sim|bad")

    def test_repeated_rotations_accumulate_streaks(self, root, monkeypatch):
        monkeypatch.setattr(faults, "MANIFEST_MAX_BYTES", _TINY)
        manifest = FailureManifest(root)
        for _ in range(3):
            with pytest.warns(UserWarning, match="rotated"):
                manifest.append([outcome("sim|bad", FAILED)])
        # Each rotation seeded the next scan from its streak record.
        assert FailureLedger(root, threshold=3).tripped("sim|bad")
