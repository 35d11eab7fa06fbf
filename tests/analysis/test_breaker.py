"""Per-config circuit breaker, end to end: a config with a streak of
terminal failures on record is skipped by later ``keep_going``
invocations, ``--retry-quarantined`` forces it through, and a success
closes the streak with a result record that supersedes the failure —
on both the batch (pool) path and the lazy serial path, which share one
live :class:`repro.analysis.faults.FailureLedger` per runner."""

from types import SimpleNamespace

import pytest

from repro.analysis.faults import OK, SKIPPED, ExecutionPolicy, FailureLedger
from repro.analysis.parallel import ParallelRunner, RunRequest
from repro.analysis.runner import CachedRunner
from repro.analysis.simcache import ResultStore
from repro.exceptions import ExecutionError, ReproError
from repro.workloads import get_benchmark

from tests.conftest import shard_records

VA = get_benchmark("va", weak=True)
BP = get_benchmark("bp", weak=True)
FAST = dict(backoff_base=0.001)


def policy(**overrides):
    base = dict(
        max_retries=0, keep_going=True, breaker_threshold=2, **FAST
    )
    base.update(overrides)
    return ExecutionPolicy(**base)


def ledger_records(tmp_path, shard="va"):
    """The ledger's records and the results after them, in store order."""
    return shard_records(tmp_path / "simcache", shard)


def ledger_at(tmp_path, threshold):
    return FailureLedger(ResultStore(str(tmp_path / "simcache")), threshold)


class TestBatchBreaker:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_trip_skip_retry_and_reset(self, tmp_path, monkeypatch, jobs):
        request = RunRequest("sim", VA, size=8)
        # Two failing invocations build the streak (threshold 2).
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fail:sim|va")
        for _ in range(2):
            store = ResultStore(str(tmp_path / "simcache"))
            ParallelRunner(store, jobs=jobs, policy=policy()).run_batch_report(
                [request, RunRequest("sim", BP, size=8)]
            )
        assert len(ledger_records(tmp_path)) == 2
        # Third invocation: breaker open, the config is skipped with
        # zero attempts and no new failure record.
        store = ResultStore(str(tmp_path / "simcache"))
        with pytest.warns(UserWarning, match="circuit breaker"):
            report = ParallelRunner(
                store, jobs=jobs, policy=policy()
            ).run_batch_report([request])
        (outcome,) = report.outcomes
        assert outcome.status == SKIPPED and outcome.attempts == 0
        assert "circuit breaker open" in outcome.error
        assert "--retry-quarantined" in outcome.error
        assert "skipped" in report.summary()
        assert not store.contains(request.key)
        assert len(ledger_records(tmp_path)) == 2
        # --retry-quarantined with the fault gone: the run executes and
        # its result record supersedes the failure and closes the streak.
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        store = ResultStore(str(tmp_path / "simcache"))
        report = ParallelRunner(
            store, jobs=jobs, policy=policy(retry_quarantined=True)
        ).run_batch_report([request])
        (outcome,) = report.outcomes
        assert outcome.status == OK
        assert store.contains(request.key)
        closing = ledger_records(tmp_path)[-1]
        assert closing["status"] == OK and closing["key"] == request.key
        breaker = ledger_at(tmp_path, threshold=2)
        assert not breaker.tripped(request.key)

    def test_fail_fast_batches_never_skip(self, tmp_path, monkeypatch):
        # Without keep_going the operator asked for the error itself.
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fail:sim|va")
        request = RunRequest("sim", VA, size=8)
        for _ in range(3):
            store = ResultStore(str(tmp_path / "simcache"))
            runner = ParallelRunner(
                store, jobs=1, policy=policy(keep_going=False)
            )
            with pytest.raises(ExecutionError, match="failed"):
                runner.run_batch_report([request])
        # Streak is far past the threshold, yet the run still executes.
        assert len(ledger_records(tmp_path)) == 3

    def test_threshold_zero_disables_skipping(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fail:sim|va")
        request = RunRequest("sim", VA, size=8)
        for _ in range(3):
            store = ResultStore(str(tmp_path / "simcache"))
            report = ParallelRunner(
                store, jobs=1, policy=policy(breaker_threshold=0)
            ).run_batch_report([request])
            (outcome,) = report.outcomes
            assert outcome.status != SKIPPED


class TestLazyBreaker:
    def test_simulate_gates_records_and_resets(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fail:sim|va")
        root = str(tmp_path / "simcache")
        # The serial lazy path records into the store as the pool path does.
        for _ in range(2):
            runner = CachedRunner(root, policy=policy())
            with pytest.raises(ReproError, match="injected failure"):
                runner.simulate(VA, 8)
        records = ledger_records(tmp_path)
        assert [r["status"] for r in records] == ["failed", "failed"]
        assert "InjectedFaultError" in records[0]["error"]
        # Streak at threshold: the gate raises before computing.
        runner = CachedRunner(root, policy=policy())
        with pytest.raises(ExecutionError, match="circuit breaker open"):
            runner.simulate(VA, 8)
        # --retry-quarantined forces through; success closes the streak.
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        runner = CachedRunner(root, policy=policy(retry_quarantined=True))
        result = runner.simulate(VA, 8)
        assert result.cycles > 0
        assert [r["status"] for r in ledger_records(tmp_path)] == [
            "failed", "failed", "ok",
        ]
        # With a clean streak a plain keep-going runner serves the cache.
        runner = CachedRunner(root, policy=policy())
        assert runner.simulate(VA, 8).cycles == result.cycles

    def test_memory_error_records_oom(self, tmp_path, monkeypatch):
        root = str(tmp_path / "simcache")
        runner = CachedRunner(root, policy=policy())
        monkeypatch.setattr(
            "repro.analysis.runner.compute_mrc",
            lambda *a, **k: (_ for _ in ()).throw(MemoryError("rss cap")),
        )
        with pytest.raises(MemoryError):
            runner.miss_rate_curve(VA)
        (record,) = ledger_records(tmp_path)
        assert record["status"] == "oom"
        assert record["kind"] == "mrc"

    def test_execution_health_mentions_skips(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fail:sim|va")
        root = str(tmp_path / "simcache")
        request = RunRequest("sim", VA, size=8)
        for _ in range(2):
            CachedRunner(root, jobs=2, policy=policy()).prefetch([request])
        runner = CachedRunner(root, jobs=2, policy=policy())
        with pytest.warns(UserWarning, match="circuit breaker"):
            runner.prefetch([request])
        assert runner.stats()["exec_skipped"] == 1
        assert "1 skipped (circuit breaker)" in runner.execution_health()


class TestOneAnswerInsideAProcess:
    """A runner's lazy calls and its batches share one live ledger, so
    "is this config tripped?" has the answer a fresh process would give
    as soon as the streak reaches the threshold — not one invocation
    later."""

    def test_lazy_runner_sees_the_failures_it_recorded(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fail:sim|va")
        root = str(tmp_path / "simcache")
        runner = CachedRunner(root, jobs=1, policy=policy())
        for _ in range(2):
            with pytest.raises(ReproError, match="injected failure"):
                runner.simulate(VA, 8)
        # Streak at threshold 2: the same runner now refuses, exactly
        # as a new runner on the same store does.
        for gated in (runner, CachedRunner(root, policy=policy())):
            for _ in range(2):
                with pytest.raises(ExecutionError, match="circuit breaker open"):
                    gated.simulate(VA, 8)
        assert len(ledger_records(tmp_path)) == 2
        assert runner.stats()["exec_failed"] == 2

    def test_lazy_and_batch_calls_gate_alike(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fail:sim|va")
        runner = CachedRunner(
            str(tmp_path / "simcache"), jobs=2, policy=policy()
        )
        request = RunRequest("sim", VA, size=8)
        # One failure through the pool, one through the lazy path.
        runner.prefetch([request, RunRequest("sim", VA, size=16)])
        with pytest.raises(ReproError, match="injected failure"):
            runner.simulate(VA, 8)
        assert runner.ledger.streak(request.key) == 2
        with pytest.raises(ExecutionError, match="circuit breaker open"):
            runner.simulate(VA, 8)
        with pytest.warns(UserWarning, match="circuit breaker"):
            runner.prefetch([request])
        (outcome,) = runner.last_report.outcomes
        assert outcome.status == SKIPPED and outcome.attempts == 0
        # A success closes the streak for both paths at once.
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        forced = CachedRunner(
            str(tmp_path / "simcache"), jobs=2,
            policy=policy(retry_quarantined=True),
        )
        forced.simulate(VA, 8)
        assert forced.ledger.streak(request.key) == 0
        assert ledger_records(tmp_path)[-1]["status"] == OK

    def test_every_path_writes_the_same_manifest_records(
        self, tmp_path, monkeypatch
    ):
        # The same injected failure through the lazy path, a serial
        # batch and a pooled batch: records equal in every field but
        # the timestamp and the traceback text.
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fail:sim|va")
        requests = [RunRequest("sim", VA, size=size) for size in (8, 16)]
        written = {}
        for path in ("lazy", "serial", "pool"):
            root = tmp_path / path
            if path == "lazy":
                runner = CachedRunner(str(root / "simcache"), policy=policy())
                for request in requests:
                    with pytest.raises(ReproError, match="injected failure"):
                        runner.simulate(VA, request.size)
            else:
                ParallelRunner(
                    ResultStore(str(root / "simcache")),
                    jobs=1 if path == "serial" else 2, policy=policy(),
                ).run_batch_report(requests)
            records = sorted(ledger_records(root), key=lambda r: r["key"])
            for record in records:
                assert record.pop("recorded_at") > 0
                assert "InjectedFaultError" in record.pop("error")
            written[path] = records
        assert len(written["lazy"]) == 2
        assert written["lazy"] == written["serial"] == written["pool"]


class TestBreakerConcurrency:
    """Racing recorders must not double-trip a config or lose the
    closing ``ok``, and concurrent failure-record appends must never
    tear a line."""

    def _outcome(self, status, key="cfg-key", attempts=1):
        from repro.analysis.faults import RunOutcome

        return RunOutcome(
            key=key, kind="sim", shard="va", status=status,
            attempts=attempts,
        )

    def test_racing_failures_trip_exactly_once(self, tmp_path):
        import threading

        breaker = ledger_at(tmp_path, threshold=3)
        barrier = threading.Barrier(8)

        def hammer():
            barrier.wait()
            for _ in range(25):
                breaker.record([self._outcome("failed")])

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # 200 racing failures: every one counted, the trip counted once.
        assert breaker.streak("cfg-key") == 200
        assert breaker.trips == 1
        assert breaker.tripped("cfg-key")
        records = ledger_records(tmp_path)
        assert len(records) == 200
        assert all(r["status"] == "failed" for r in records)

    def test_closing_ok_survives_racing_failures_on_other_keys(
        self, tmp_path
    ):
        import threading

        breaker = ledger_at(tmp_path, threshold=2)
        for _ in range(2):
            breaker.record([self._outcome("failed", key="sick")])
        assert breaker.tripped("sick")
        # The recovered run's result, stored as every execution path
        # stores it before its ``ok`` reaches the ledger.
        breaker.store.put("sick", {"cycles": 1.0}, shard="va")

        barrier = threading.Barrier(5)

        def fail_other(index):
            barrier.wait()
            for _ in range(20):
                breaker.record(
                    [self._outcome("failed", key=f"other-{index}")]
                )

        def recover():
            barrier.wait()
            breaker.record([self._outcome("ok", key="sick")])

        threads = [
            threading.Thread(target=fail_other, args=(index,))
            for index in range(4)
        ] + [threading.Thread(target=recover)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # The recovery closed the streak despite the surrounding storm...
        assert not breaker.tripped("sick")
        assert breaker.streak("sick") == 0
        records = ledger_records(tmp_path)
        ok_records = [r for r in records if r["status"] == "ok"]
        assert [r["key"] for r in ok_records] == ["sick"]
        # ...and no concurrent append tore a line (manifest_records
        # would have raised on malformed JSON).
        assert len(records) == 2 + 80 + 1
        # A fresh load-time breaker reads the same verdicts back.
        reloaded = ledger_at(tmp_path, threshold=2)
        assert not reloaded.tripped("sick")
        assert reloaded.tripped("other-0")

    def test_racing_batches_share_one_manifest_cleanly(
        self, tmp_path, monkeypatch
    ):
        import threading

        monkeypatch.setenv("REPRO_FAULT_INJECT", "fail:sim|va")
        request = RunRequest("sim", VA, size=8)
        failures = []

        def run_batch():
            store = ResultStore(str(tmp_path / "simcache"))
            try:
                ParallelRunner(
                    store, jobs=1, policy=policy(breaker_threshold=0)
                ).run_batch_report([request])
            except Exception as error:  # noqa: BLE001 - surfaced below
                failures.append(error)

        threads = [threading.Thread(target=run_batch) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        records = ledger_records(tmp_path)
        assert len(records) == 3
        assert all(r["status"] == "failed" for r in records)
        assert all(r["key"] == request.key for r in records)
        breaker = ledger_at(tmp_path, threshold=2)
        assert breaker.streak(request.key) == 3

    def test_a_stale_ledger_cannot_lower_a_streak_on_disk(self, tmp_path):
        # A long-lived ledger (a service) read this key before a batch
        # tripped it; its later failure adds to the streak on disk.
        stale = ledger_at(tmp_path, threshold=3)
        assert stale.streak("cfg-key") == 0
        batch = ledger_at(tmp_path, threshold=3)
        for _ in range(3):
            batch.record([self._outcome("failed")])
        stale.record([self._outcome("failed")])
        assert stale.streak("cfg-key") == 1
        fresh = ledger_at(tmp_path, threshold=3)
        assert fresh.streak("cfg-key") == 4 and fresh.tripped("cfg-key")

    def test_one_record_call_is_one_append(self, tmp_path):
        # A drain records every queued run at once: one flush, not one
        # per run.
        ledger = ledger_at(tmp_path, threshold=3)
        ledger.record(
            [self._outcome("interrupted", key=f"k{i}") for i in range(5)]
        )
        assert ledger.store.counters()["flushes"] == 1
        assert len(ledger_records(tmp_path)) == 5


class TestCliFlag:
    def test_retry_quarantined_maps_to_policy(self):
        from repro.analysis.cli import build_parser, build_policy

        args = build_parser().parse_args(["fig4", "--retry-quarantined"])
        assert build_policy(args).retry_quarantined is True
        args = build_parser().parse_args(["fig4"])
        assert build_policy(args).retry_quarantined is False


class TestStoreAppendFailure:
    def test_failed_append_cannot_mask_a_failure(self, tmp_path, monkeypatch):
        from repro.analysis.faults import RunOutcome, reset_io_faults
        from repro.resilience import reset_disk_guard

        monkeypatch.setenv("REPRO_FAULT_INJECT", "enospc:store:1")
        breaker = ledger_at(tmp_path, threshold=2)
        failed = RunOutcome(key="sick", kind="sim", shard="va", status="failed")
        with pytest.warns(UserWarning, match="keeping records pending"):
            for _ in range(2):
                breaker.record([failed])
        # The append failed, yet the breaker tripped in this process...
        assert breaker.tripped("sick") and breaker.trips == 1
        # ...and the records wait for the next flush instead of vanishing.
        assert breaker.store.pending == 2
        assert not (tmp_path / "simcache" / "va.jsonl").exists()
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        reset_io_faults()
        reset_disk_guard()
        assert breaker.store.flush() == 2
        assert [r["status"] for r in ledger_records(tmp_path)] == [
            "failed", "failed",
        ]
        fresh = ledger_at(tmp_path, threshold=2)
        assert fresh.streak("sick") == breaker.streak("sick") == 2
        assert fresh.tripped("sick")


class TestSupersededFailureCompaction:
    """A shard whose failure records a later result superseded is
    rewritten without them on its next read, and the breaker reads the
    same streaks and refusals from it."""

    def _outcome(self, status, key):
        from repro.analysis.faults import RunOutcome

        return RunOutcome(key=key, kind="sim", shard="va", status=status)

    def _answers(self, tmp_path, keys):
        """Each key's streak and refusal, read by a fresh ledger."""
        ledger = ledger_at(tmp_path, threshold=2)
        answers = {}
        for key in keys:
            request = SimpleNamespace(key=key, kind="sim", spec=VA)
            answers[key] = (ledger.streak(key), ledger.refusal(request, policy()))
        return answers

    def test_superseded_records_are_dropped_and_streaks_kept(self, tmp_path):
        ledger = ledger_at(tmp_path, threshold=2)
        store = ledger.store
        with store.batch():
            for i in range(200):
                store.put(f"result-{i}", {"i": i}, shard="va")
        ledger.record(
            [self._outcome("failed", "hot")] * 10_000
            + [self._outcome("interrupted", "hot")] * 10_000
            + [self._outcome("failed", "open")] * 3
        )
        store.put("hot", {"ok": True}, shard="va")
        ledger.record(
            [self._outcome("failed", "hot"), self._outcome("interrupted", "hot")]
            + [self._outcome("failed", "result-7")] * 2
        )
        before = ledger_records(tmp_path)
        last_ok = {r["key"]: i for i, r in enumerate(before) if r["status"] == "ok"}
        surviving = [
            r for i, r in enumerate(before)
            if r["status"] == "ok" or i > last_ok.get(r["key"], -1)
        ]
        assert len(before) - len(surviving) == 20_000

        keys = ["hot", "open", "result-7", "result-0"]
        first = self._answers(tmp_path, keys)  # reads, then compacts
        assert ledger_records(tmp_path) == surviving
        assert self._answers(tmp_path, keys) == first
        assert {key: streak for key, (streak, __) in first.items()} == {
            "hot": 1, "open": 3, "result-7": 2, "result-0": 0,
        }
        assert [key for key, (__, why) in first.items() if why] == [
            "open", "result-7",
        ]
        assert not (tmp_path / "simcache" / "quarantine").exists()
