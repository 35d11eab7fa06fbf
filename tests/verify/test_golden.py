"""Golden-ledger mechanics: pin, audit, drift/absence, save/load."""

import json
import os

import pytest

from repro.analysis.simcache import ResultStore
from repro.exceptions import ReproError
from repro.verify.golden import (
    LEDGER_VERSION,
    audit_store,
    golden_tier,
    ledger_requests,
    load_ledger,
    pin_store,
    save_ledger,
)


def _store_with(tmp_path, payloads):
    store = ResultStore(os.path.join(tmp_path, "simcache"))
    for key, payload in payloads.items():
        store.put(key, payload, shard="test")
    store.flush()
    return store


PAYLOADS = {
    "sim|a": {"cycles": 100.0, "l1_misses": 7, "wall_time_s": 0.1},
    "sim|b": {"cycles": 200.0, "l1_misses": 9, "wall_time_s": 0.2},
}


class TestPinAndAudit:
    def test_clean_roundtrip(self, tmp_path):
        store = _store_with(tmp_path, PAYLOADS)
        ledger = pin_store(store, sorted(PAYLOADS), reason="test pin")
        report = audit_store(ledger, store)
        assert report.ok
        assert set(report.matched) == set(PAYLOADS)

    def test_wall_time_never_drifts(self, tmp_path):
        ledger = pin_store(
            _store_with(tmp_path / "a", PAYLOADS), sorted(PAYLOADS),
            reason="test pin",
        )
        jittered = {
            key: dict(payload, wall_time_s=payload["wall_time_s"] * 10)
            for key, payload in PAYLOADS.items()
        }
        report = audit_store(ledger, _store_with(tmp_path / "b", jittered))
        assert report.ok

    def test_drift_detected_with_both_digests(self, tmp_path):
        ledger = pin_store(
            _store_with(tmp_path / "a", PAYLOADS), sorted(PAYLOADS),
            reason="test pin",
        )
        drifted = dict(PAYLOADS, **{
            "sim|b": {"cycles": 201.0, "l1_misses": 9, "wall_time_s": 0.2},
        })
        report = audit_store(ledger, _store_with(tmp_path / "b", drifted))
        assert not report.ok
        assert [key for key, _, _ in report.drifted] == ["sim|b"]
        key, expected, actual = report.drifted[0]
        assert expected != actual
        assert expected.startswith("sha256:")

    def test_absence_respects_require_all(self, tmp_path):
        ledger = pin_store(
            _store_with(tmp_path / "a", PAYLOADS), sorted(PAYLOADS),
            reason="test pin",
        )
        partial = {"sim|a": PAYLOADS["sim|a"]}
        partial_store = _store_with(tmp_path / "b", partial)
        strict = audit_store(ledger, partial_store)
        assert strict.absent == ("sim|b",)
        assert not strict.ok
        lenient = audit_store(ledger, partial_store, require_all=False)
        assert lenient.ok
        assert lenient.matched == ("sim|a",)

    def test_pin_refuses_missing_payload(self, tmp_path):
        store = _store_with(tmp_path, PAYLOADS)
        with pytest.raises(ReproError, match="no payload"):
            pin_store(store, ["sim|missing"], reason="test pin")


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        store = _store_with(tmp_path, PAYLOADS)
        ledger = pin_store(store, sorted(PAYLOADS), reason="test pin")
        path = os.path.join(tmp_path, "golden", "ledger.json")
        save_ledger(ledger, path)
        loaded = load_ledger(path)
        assert loaded == json.loads(json.dumps(ledger))
        assert loaded["version"] == LEDGER_VERSION
        assert loaded["reason"] == "test pin"

    def test_missing_file_names_the_bless_command(self, tmp_path):
        with pytest.raises(ReproError, match="--bless --reason"):
            load_ledger(os.path.join(tmp_path, "nope.json"))

    def test_version_mismatch_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "ledger.json")
        with open(path, "w") as handle:
            json.dump({"version": 99, "entries": {}}, handle)
        with pytest.raises(ReproError, match="version"):
            load_ledger(path)

    def test_garbage_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "ledger.json")
        with open(path, "w") as handle:
            handle.write("{not json")
        with pytest.raises(ReproError, match="unreadable"):
            load_ledger(path)


class TestLedgerRequests:
    def test_mirrors_quick_tier_exactly(self):
        tier = golden_tier("quick")
        requests = ledger_requests(tier)
        sims = [r for r in requests if r.kind == "sim"]
        mrcs = [r for r in requests if r.kind == "mrc"]
        assert len(sims) == sum(len(case.sizes) for case in tier.cases)
        assert len(mrcs) == len(tier.cases)
        assert len({r.key for r in requests}) == len(requests)
        assert all(r.seed == tier.seed for r in requests)

    def test_shipped_ledger_matches_tier_definition(self):
        # results/golden/ledger.json must cover exactly the quick tier;
        # a tier change without a re-bless is a CI-visible drift.
        ledger = load_ledger()  # repo-root default path (pytest cwd)
        requests = ledger_requests(golden_tier("quick"))
        assert set(ledger["entries"]) == {r.key for r in requests}
        assert ledger["tier"] == "quick"
