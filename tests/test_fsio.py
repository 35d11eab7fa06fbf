"""Durable-writer tests: atomicity, the fsync escape hatch, and the
chaos seams (``enospc`` / ``partial-write`` / ``slow-io``) every
persistence module routes through."""

import errno
import os

import pytest

from repro import fsio
from repro.analysis.faults import FAULT_INJECT_ENV


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = str(tmp_path / "f.json")
        fsio.atomic_write_text(path, "one")
        assert open(path).read() == "one"
        fsio.atomic_write_text(path, "two")
        assert open(path).read() == "two"
        assert not os.path.exists(path + ".tmp")

    def test_fsync_paths_run_when_enabled(self, tmp_path, monkeypatch):
        monkeypatch.delenv(fsio.NO_FSYNC_ENV, raising=False)
        assert fsio.fsync_enabled()
        path = str(tmp_path / "f.json")
        fsio.atomic_write_text(path, "durable")
        fsio.append_text(path, " more")
        assert open(path).read() == "durable more"

    def test_no_fsync_env_disables_syncs(self, monkeypatch):
        monkeypatch.setenv(fsio.NO_FSYNC_ENV, "1")
        assert not fsio.fsync_enabled()

    def test_fsync_dir_tolerates_missing_directory(self, monkeypatch, tmp_path):
        monkeypatch.delenv(fsio.NO_FSYNC_ENV, raising=False)
        fsio.fsync_dir(str(tmp_path / "does-not-exist"))  # must not raise


class TestAppend:
    def test_appends_and_creates(self, tmp_path):
        path = str(tmp_path / "shard.jsonl")
        fsio.append_text(path, "a\n")
        fsio.append_text(path, "b\n")
        assert open(path).read() == "a\nb\n"


class TestInjectedIoFaults:
    """The ``REPRO_FAULT_INJECT`` io grammar at the fsio layer itself."""

    def test_enospc_fires_before_any_byte(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "enospc:store:1")
        path = str(tmp_path / "f.json")
        with pytest.raises(OSError) as err:
            fsio.atomic_write_text(path, "x", op="store")
        assert err.value.errno == errno.ENOSPC
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".tmp")
        # Budget of 1: the disk "recovered", the next write lands.
        fsio.atomic_write_text(path, "x", op="store")
        assert open(path).read() == "x"

    def test_partial_write_atomic_preserves_old_content(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FAULT_INJECT_ENV, "partial-write:store:1")
        path = str(tmp_path / "f.json")
        fsio.atomic_write_text(path, "precious old content")
        with pytest.raises(OSError) as err:
            fsio.atomic_write_text(path, "replacement", op="store")
        assert err.value.errno == errno.ENOSPC
        # The rename never happened: the final name still holds the old
        # bytes; the torn prefix only ever existed under the tmp name.
        assert open(path).read() == "precious old content"
        assert open(path + ".tmp").read() == "replacement"[: len("replacement") // 2]

    def test_partial_write_append_leaves_truncated_suffix(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FAULT_INJECT_ENV, "partial-write:store:1")
        path = str(tmp_path / "shard.jsonl")
        fsio.append_text(path, "complete line\n")
        with pytest.raises(OSError):
            fsio.append_text(path, "0123456789\n", op="store")
        # Exactly the torn-record shape the tolerant loaders must skip.
        assert open(path).read() == "complete line\n01234"

    def test_slow_io_sleeps_then_writes_normally(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "slow-io:store:0.001")
        path = str(tmp_path / "f.json")
        fsio.atomic_write_text(path, "slow but fine", op="store")
        fsio.append_text(path, "!", op="store")
        assert open(path).read() == "slow but fine!"

    def test_unlabelled_write_ignores_armed_plan(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "enospc:store")
        path = str(tmp_path / "f.json")
        fsio.atomic_write_text(path, "no op label")  # op=None: never injected
        assert open(path).read() == "no op label"

    def test_unrelated_seam_is_untouched(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "enospc:journal")
        path = str(tmp_path / "shard.jsonl")
        fsio.append_text(path, "store seam\n", op="store")
        assert open(path).read() == "store seam\n"
