"""Content-addressed simcache records: digest on write, verify on read."""

import json
import os

import pytest

from repro.analysis import simcache
from repro.analysis.simcache import ResultStore
from repro.verify.digest import content_digest


def _shard_path(root):
    files = [f for f in os.listdir(root) if f.endswith(".jsonl")]
    assert len(files) == 1
    return os.path.join(root, files[0])


def _fresh_store(tmp_path, shards):
    """A store root holding ``{shard: {key: payload}}``."""
    root = os.path.join(tmp_path, "simcache")
    store = ResultStore(root, flush_every=10**6)
    for shard, records in shards.items():
        for key, payload in records.items():
            store.put(key, payload, shard=shard)
    store.flush()
    return root


PAYLOADS = {
    "sim|one": {"cycles": 10.0, "l1_misses": 3},
    "sim|two": {"cycles": 20.0, "l1_misses": 5},
}


class TestDigestOnWrite:
    def test_every_record_carries_a_matching_digest(self, tmp_path):
        root = _fresh_store(tmp_path, {"bench": PAYLOADS})
        with open(_shard_path(root)) as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        assert len(records) == len(PAYLOADS)
        for record in records:
            assert record["digest"] == content_digest(record["payload"])


class TestVerifyOnRead:
    def test_clean_reload_counts_no_mismatches(self, tmp_path):
        root = _fresh_store(tmp_path, {"bench": PAYLOADS})
        reloaded = ResultStore(root)
        assert reloaded.get("sim|one") == PAYLOADS["sim|one"]
        assert reloaded.stats()["digest_mismatches"] == 0

    def test_corrupt_payload_degrades_to_miss(self, tmp_path):
        root = _fresh_store(tmp_path, {"bench": PAYLOADS})
        shard = _shard_path(root)
        with open(shard) as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        # Alter one payload but keep its recorded digest: still valid
        # JSON, so only the digest check can catch it.
        assert lines[0]["key"] == "sim|one"
        lines[0]["payload"]["cycles"] = 999.0
        with open(shard, "w") as handle:
            for record in lines:
                handle.write(json.dumps(record) + "\n")
        reloaded = ResultStore(root)
        assert reloaded.get("sim|one") is None
        assert reloaded.get("sim|two") == PAYLOADS["sim|two"]
        stats = reloaded.stats()
        assert stats["digest_mismatches"] == 1
        assert stats["corrupt_lines"] == 0
        assert stats["quarantined_shards"] == 1

    def test_quarantine_salvage_survives_another_reload(self, tmp_path):
        root = _fresh_store(tmp_path, {"bench": PAYLOADS})
        shard = _shard_path(root)
        with open(shard) as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        lines[0]["payload"]["cycles"] = 999.0
        with open(shard, "w") as handle:
            for record in lines:
                handle.write(json.dumps(record) + "\n")
        # A whole-store read: quarantines + salvages the good record.
        ResultStore(root).stats()
        salvaged = ResultStore(root)
        assert salvaged.get("sim|two") == PAYLOADS["sim|two"]
        assert salvaged.stats()["digest_mismatches"] == 0

    def test_legacy_records_without_digest_still_load(self, tmp_path):
        root = os.path.join(tmp_path, "simcache")
        os.makedirs(root)
        with open(os.path.join(root, "legacy.jsonl"), "w") as handle:
            handle.write(
                json.dumps({"key": "sim|old", "payload": {"cycles": 5.0}})
                + "\n"
            )
        store = ResultStore(root)
        assert store.get("sim|old") == {"cycles": 5.0}
        assert store.stats()["digest_mismatches"] == 0


def _alter_payload(root, shard, key):
    """Change ``key``'s payload in ``shard`` but keep its recorded digest:
    the line stays indexable, so only the read-time check can catch it."""
    path = os.path.join(root, f"{shard}.jsonl")
    with open(path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    for record in records:
        if record["key"] == key:
            record["payload"]["cycles"] = -1.0
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def _eager_items(root):
    """What loading every shard at open gives: each line parsed and
    verified in sorted file order, a later record winning."""
    entries = {}
    for fname in sorted(os.listdir(root)):
        if not fname.endswith(".jsonl"):
            continue
        with open(os.path.join(root, fname)) as handle:
            for line in handle:
                record = json.loads(line)
                digest = record.get("digest")
                if digest is None or digest == content_digest(record["payload"]):
                    entries[record["key"]] = record["payload"]
    return entries


TWO_SHARDS = {
    "a": {"sim|a1": {"cycles": 1.0}, "sim|a2": {"cycles": 2.0}},
    "b": {"sim|b1": {"cycles": 3.0}, "sim|b2": {"cycles": 4.0}},
}


#: 16 shards x 16 records: ``sim|SS|RR`` holds ``cycles = 16*SS + RR``.
SIXTEEN_SHARDS = {
    f"s{s:02d}": {
        f"sim|{s:02d}|{r:02d}": {"cycles": float(16 * s + r)}
        for r in range(16)
    }
    for s in range(16)
}


class TestLazyLoad:
    """Open indexes keys; a shard is parsed and verified on first use,
    and every answer equals what loading all shards at open gave."""

    @pytest.mark.parametrize("touch", ["get", "contains", "stats"])
    def test_corruption_in_an_untouched_shard_waits_for_its_first_use(
        self, tmp_path, touch
    ):
        root = _fresh_store(tmp_path, TWO_SHARDS)
        _alter_payload(root, "b", "sim|b1")
        quarantined = os.path.join(root, "quarantine", "b.jsonl")
        store = ResultStore(root)
        assert store.get("sim|a1") == {"cycles": 1.0}
        assert not os.path.exists(quarantined)
        with pytest.warns(UserWarning, match="corrupt lines"):
            if touch == "get":
                assert store.get("sim|b1") is None
            elif touch == "contains":
                assert not store.contains("sim|b1")
            else:
                store.stats()
        assert os.path.exists(quarantined)
        stats = store.stats()
        assert stats["digest_mismatches"] == 1
        assert stats["quarantined_shards"] == 1
        assert stats["entries"] == 3
        assert store.get("sim|b2") == {"cycles": 4.0}

    def test_put_after_open_beats_the_on_disk_record(self, tmp_path):
        root = _fresh_store(tmp_path, TWO_SHARDS)
        store = ResultStore(root)
        store.put("sim|a1", {"cycles": 10.0}, shard="a")
        store.put("sim|b1", {"cycles": 30.0}, shard="elsewhere")
        # Reading the shards afterwards (the first through the record
        # this store just appended to it) must not resurrect old values.
        assert store.get("sim|a1") == {"cycles": 10.0}
        assert store.get("sim|b1") == {"cycles": 30.0}
        assert dict(store.items())["sim|b1"] == {"cycles": 30.0}
        assert store.get("sim|a2") == {"cycles": 2.0}

    @pytest.mark.parametrize("first", ["sim|a1", "sim|b1", "sim|dup"])
    def test_cross_shard_duplicates_resolve_in_sorted_file_order(
        self, tmp_path, first
    ):
        shards = {
            "a": {"sim|dup": {"cycles": 1.0}, "sim|a1": {"cycles": 2.0}},
            "b": {"sim|dup": {"cycles": 5.0}, "sim|b1": {"cycles": 6.0}},
        }
        root = _fresh_store(tmp_path, shards)
        store = ResultStore(root)
        store.get(first)  # whichever shard is read first, b.jsonl wins
        assert store.get("sim|dup") == {"cycles": 5.0}
        assert dict(store.items()) == _eager_items(root)

    def test_a_bad_later_duplicate_falls_back_to_the_earlier_shard(
        self, tmp_path
    ):
        shards = {
            "a": {"sim|dup": {"cycles": 1.0}},
            "b": {"sim|dup": {"cycles": 5.0}, "sim|b1": {"cycles": 6.0}},
        }
        root = _fresh_store(tmp_path, shards)
        _alter_payload(root, "b", "sim|dup")
        store = ResultStore(root)
        with pytest.warns(UserWarning, match="corrupt lines"):
            assert store.get("sim|dup") == {"cycles": 1.0}

    def test_touch_time_quarantine_keeps_records_appended_since_open(
        self, tmp_path
    ):
        root = _fresh_store(tmp_path, TWO_SHARDS)
        _alter_payload(root, "a", "sim|a2")
        store = ResultStore(root)
        store.put("sim|a3", {"cycles": 7.0}, shard="a")  # appended
        with pytest.warns(UserWarning, match="2 records salvaged"):
            assert store.get("sim|a1") == {"cycles": 1.0}
        reopened = ResultStore(root)
        assert reopened.get("sim|a3") == {"cycles": 7.0}
        assert reopened.get("sim|a1") == {"cycles": 1.0}
        assert reopened.get("sim|a2") is None
        assert reopened.stats()["quarantined_shards"] == 0

    def test_shard_bytes_read_to_the_eager_items(self, tmp_path):
        # Lines exactly as every earlier store version writes them: one
        # per record, a later one re-recording a key, and a record from
        # before content digests.
        root = os.path.join(tmp_path, "simcache")
        os.makedirs(root)
        lines = {
            "va.jsonl": [
                ("sim|x", {"cycles": 1.0, "extra": {}}),
                ("sim|y", {"cycles": 2.0, "note": "kéy \"q\""}),
                ("sim|x", {"cycles": 3.0, "extra": {}}),
            ],
            "bp.jsonl": [("sim|y", {"cycles": 9.0}), ("mrc|z", {"v": [1, 2]})],
        }
        for fname, records in lines.items():
            with open(os.path.join(root, fname), "w") as handle:
                for key, payload in records:
                    handle.write(json.dumps({
                        "key": key, "payload": payload,
                        "digest": content_digest(payload),
                    }) + "\n")
        with open(os.path.join(root, "legacy.jsonl"), "w") as handle:
            handle.write(
                json.dumps({"key": "sim|old", "payload": {"c": 5}}) + "\n"
            )
        expected = _eager_items(root)
        assert dict(ResultStore(root).items()) == expected
        touched = ResultStore(root)
        for key in ("mrc|z", "sim|old", "sim|y", "sim|x"):
            assert touched.get(key) == expected[key]
        assert dict(touched.items()) == expected

    def test_a_get_verifies_only_its_own_shard(self, tmp_path, monkeypatch):
        # Work-counter gate: opening 16 shards x 16 records and reading
        # one key digests that key's shard, not the store.
        root = _fresh_store(tmp_path, SIXTEEN_SHARDS)
        calls = []

        def counting_digest(payload):
            calls.append(1)
            return content_digest(payload)

        monkeypatch.setattr(simcache, "content_digest", counting_digest)
        store = ResultStore(root)
        assert store.get("sim|07|03") == {"cycles": 115.0}
        assert len(calls) == 16
        assert store.stats()["entries"] == 256
        assert len(calls) == 256

    def test_cli_summary_line_reads_no_untouched_shard(
        self, tmp_path, monkeypatch, capsys
    ):
        # The end-of-run ``cache: ...`` line reports this run's counters:
        # an invocation that reads one key of 16 shards loads one shard.
        from repro.analysis import cli

        root = _fresh_store(tmp_path, SIXTEEN_SHARDS)
        runners = []

        def read_one_key(name, args, runner, out):
            runners.append(runner)
            assert runner.store.get("sim|07|03") == {"cycles": 115.0}

        monkeypatch.setattr(cli, "run_experiment", read_one_key)
        assert cli.main(["table1", "--cache", root, "--jobs", "1"]) == 0
        assert "cache: 1 hits, 0 misses, 0 flushes, 256 entries" in (
            capsys.readouterr().err
        )
        (runner,) = runners
        assert runner.stats()["shards_loaded"] == 1


class TestFailureRecords:
    """A run's failure records share the result shards: they accumulate
    until a result supersedes them and never count as results."""

    def _store(self, tmp_path):
        root = os.path.join(tmp_path, "simcache")
        store = ResultStore(root)
        store.put("sim|ok", {"cycles": 1.0}, shard="va")
        store.put("sim|bad", {"status": "failed"}, shard="va", failed=True)
        store.put("sim|flip", {"cycles": 2.0}, shard="va")
        store.put("sim|flip", {"status": "failed"}, shard="va", failed=True)
        store.put("sim|other", {"cycles": 3.0}, shard="bp")
        return root

    def test_counters_count_results_only(self, tmp_path):
        root = self._store(tmp_path)
        unread = ResultStore(root)
        assert unread.counters()["entries"] == 2
        assert unread.counters()["shards_loaded"] == 0
        partly_read = ResultStore(root)
        assert partly_read.get("sim|other") == {"cycles": 3.0}
        assert partly_read.counters()["entries"] == 2
        assert len(ResultStore(root)) == 2

    def test_failures_accumulate_until_a_result_supersedes_them(
        self, tmp_path
    ):
        root = self._store(tmp_path)
        store = ResultStore(root)
        store.put("sim|bad", {"status": "timeout"}, shard="va", failed=True)
        assert [r["status"] for r in store.failures("sim|bad")] == [
            "failed", "timeout",
        ]
        assert store.get("sim|flip") is None
        store.put("sim|bad", {"cycles": 4.0}, shard="va")
        for reopened in (store, ResultStore(root)):
            assert reopened.failures("sim|bad") == []
            assert reopened.get("sim|bad") == {"cycles": 4.0}
            assert [r["status"] for r in reopened.failures("sim|flip")] == [
                "failed",
            ]
