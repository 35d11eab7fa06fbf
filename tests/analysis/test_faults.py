"""Fault-tolerant execution tests: injected worker exceptions, retries,
timeouts, pool deaths, partial-progress merge, failure manifests, and
the cached-payload / REPRO_JOBS robustness satellites.

Faults are injected deterministically through ``REPRO_FAULT_INJECT``
(see :mod:`repro.analysis.faults` for the grammar), so every path runs
without patching simulator internals — the same hook CI uses.
"""

import json
import os

import pytest

from repro.analysis.faults import (
    FAILED,
    INTERRUPTED,
    OK,
    SKIPPED,
    TIMEOUT,
    BatchReport,
    ExecutionPolicy,
    FailureLedger,
    FailureManifest,
    InjectedFaultError,
    RunOutcome,
    maybe_inject,
    parse_fault_plan,
)
from repro.analysis.parallel import ParallelRunner, RunRequest
from repro.analysis.runner import (
    CachedRunner,
    default_jobs,
    result_from_payload,
    safe_curve_from_payload,
)
from repro.analysis.simcache import ResultStore
from repro.exceptions import ExecutionError, ReproError
from repro.verify.digest import content_digest
from repro.workloads import get_benchmark

VA = get_benchmark("va", weak=True)
BP = get_benchmark("bp", weak=True)

# Tiny backoff keeps retry tests fast without changing their logic.
FAST = dict(backoff_base=0.001)


def store_at(tmp_path):
    return ResultStore(str(tmp_path / "simcache"))


def req(spec, size=8):
    return RunRequest("sim", spec, size=size)


class TestFaultPlan:
    def test_grammar(self):
        plan = parse_fault_plan("fail:sim|va:2, hang:mrc|,die:sim|bp")
        assert [d.action for d in plan] == ["fail", "hang", "die"]
        assert plan[0].prefix == "sim|va" and plan[0].arg == 2
        assert plan[1].arg is None

    @pytest.mark.parametrize(
        "bad", ["explode:sim|va", "fail", "fail:sim|va:two", "fail::1"]
    )
    def test_malformed_directive_rejected(self, bad):
        with pytest.raises(ReproError):
            parse_fault_plan(bad)

    def test_io_directive_must_name_a_write_seam(self):
        # A mistyped seam used to parse and then never fire, so a chaos
        # schedule passed green while injecting nothing.
        for bad in ("enospc:stroe", "partial-write:zzz:2", "slow-io:x",
                    "enospc:checkpoint"):
            with pytest.raises(ReproError, match="store, trace, metrics"):
                parse_fault_plan(bad)
        # Prefixes of a real seam label still match it.
        for good in ("enospc:st", "partial-write:journal:2", "slow-io:m"):
            assert parse_fault_plan(good)

    def test_noop_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        maybe_inject("sim|abc", "sim", "va", attempt=1)

    def test_fail_respects_attempt_bound(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fail:sim|va:2")
        for attempt in (1, 2):
            with pytest.raises(InjectedFaultError):
                maybe_inject("sim|abc", "sim", "va", attempt)
        maybe_inject("sim|abc", "sim", "va", attempt=3)  # passes

    def test_prefix_must_match(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fail:sim|bp")
        maybe_inject("sim|abc", "sim", "va", attempt=1)  # different bench

    def test_die_raises_in_serial_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "die:sim|va")
        with pytest.raises(InjectedFaultError, match="serial"):
            maybe_inject("sim|abc", "sim", "va", attempt=1, allow_exit=False)


class TestFailureIsolation:
    def test_one_failing_run_does_not_poison_the_batch(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fail:sim|va")
        store = store_at(tmp_path)
        policy = ExecutionPolicy(max_retries=1, keep_going=True, **FAST)
        report = ParallelRunner(store, jobs=2, policy=policy).run_batch_report(
            [req(VA), req(BP)]
        )
        assert report.executed == 1
        assert store.contains(req(BP).key)
        (failure,) = report.failures
        assert failure.status == FAILED
        assert failure.attempts == 2  # first try + one retry
        assert "injected failure" in failure.error
        assert failure.shard == "va" and failure.kind == "sim"

    def test_failure_manifest_written_with_rerun_context(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fail:sim|va")
        store = store_at(tmp_path)
        policy = ExecutionPolicy(max_retries=0, keep_going=True, **FAST)
        ParallelRunner(store, jobs=2, policy=policy).run_batch(
            [req(VA), req(BP)]
        )
        manifest = tmp_path / "failures" / "va.jsonl"
        assert manifest.exists()
        (record,) = [
            json.loads(line) for line in manifest.read_text().splitlines()
        ]
        assert record["status"] == FAILED
        assert record["key"] == req(VA).key
        assert record["kind"] == "sim" and record["shard"] == "va"
        assert record["size"] == 8 and record["seed"] == 0
        assert "InjectedFaultError" in record["error"]
        assert record["recorded_at"] > 0

    def test_partial_progress_survives_raised_batch(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fail:sim|va")
        store = store_at(tmp_path)
        policy = ExecutionPolicy(max_retries=0, **FAST)  # keep_going=False
        with pytest.raises(ExecutionError, match="completed results"):
            ParallelRunner(store, jobs=2, policy=policy).run_batch(
                [req(VA), req(BP), req(BP, size=16)]
            )
        # Completed runs were merged and flushed before the error left.
        reloaded = ResultStore(str(tmp_path / "simcache"))
        assert reloaded.contains(req(BP).key)
        assert reloaded.contains(req(BP, size=16).key)

    def test_serial_path_isolates_failures_too(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fail:sim|va")
        store = store_at(tmp_path)
        policy = ExecutionPolicy(max_retries=0, keep_going=True, **FAST)
        report = ParallelRunner(store, jobs=1, policy=policy).run_batch_report(
            [req(VA), req(BP)]
        )
        assert report.executed == 1
        assert store.contains(req(BP).key)


class TestRetries:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_failure_retries_then_succeeds(
        self, tmp_path, monkeypatch, jobs
    ):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fail:sim|va:2")
        store = store_at(tmp_path)
        policy = ExecutionPolicy(max_retries=2, **FAST)
        report = ParallelRunner(
            store, jobs=jobs, policy=policy
        ).run_batch_report([req(VA)])
        (outcome,) = report.outcomes
        assert outcome.ok and outcome.status == OK
        assert outcome.attempts == 3 and outcome.retried
        assert store.contains(req(VA).key)
        assert not (tmp_path / "failures").exists()  # no casualties

    def test_retry_exhaustion_records_final_attempt_count(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fail:sim|va")
        store = store_at(tmp_path)
        policy = ExecutionPolicy(max_retries=2, keep_going=True, **FAST)
        report = ParallelRunner(store, jobs=2, policy=policy).run_batch_report(
            [req(VA)]
        )
        (outcome,) = report.outcomes
        assert outcome.status == FAILED and outcome.attempts == 3
        assert report.retries == 2


class TestTimeouts:
    def test_hung_run_times_out_and_spares_the_batch(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "hang:sim|va")
        store = store_at(tmp_path)
        policy = ExecutionPolicy(
            run_timeout=1.0, keep_going=True, max_retries=1, **FAST
        )
        report = ParallelRunner(store, jobs=2, policy=policy).run_batch_report(
            [req(VA), req(BP)]
        )
        assert report.executed == 1
        assert store.contains(req(BP).key)
        (failure,) = report.failures
        assert failure.status == TIMEOUT
        assert "timeout" in failure.error
        manifest = tmp_path / "failures" / "va.jsonl"
        assert manifest.exists()
        record = json.loads(manifest.read_text().splitlines()[0])
        assert record["status"] == TIMEOUT


class TestBrokenPoolRecovery:
    def test_worker_death_loses_no_completed_results(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "die:sim|va")
        store = store_at(tmp_path)
        policy = ExecutionPolicy(
            max_retries=1, keep_going=True, max_pool_deaths=2, **FAST
        )
        with pytest.warns(UserWarning, match="degrading to serial"):
            report = ParallelRunner(
                store, jobs=2, policy=policy
            ).run_batch_report([req(VA), req(BP), req(BP, size=16)])
        # The repeatedly dying run degrades the batch to serial execution,
        # where the injection raises instead of killing the host; the two
        # innocent runs complete either way.
        assert report.pool_deaths >= 1
        assert report.degraded_to_serial
        assert report.executed == 2
        assert store.contains(req(BP).key)
        assert store.contains(req(BP, size=16).key)
        (failure,) = report.failures
        assert failure.status == FAILED and failure.shard == "va"


class TestAcceptanceScenario:
    """One raising run + one hung run in the same batch: every other
    result merges, each casualty gets a manifest entry, and with
    keep_going the batch reports instead of raising."""

    def test_raise_plus_hang_spares_the_rest(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", "fail:sim|va,hang:mcm|va"
        )
        store = store_at(tmp_path)
        policy = ExecutionPolicy(
            max_retries=1, run_timeout=1.0, keep_going=True, **FAST
        )
        hung = RunRequest("mcm", VA, size=4, work_scale=4.0)
        survivors = [req(BP), req(BP, size=16), RunRequest("mrc", BP)]
        report = ParallelRunner(store, jobs=2, policy=policy).run_batch_report(
            [req(VA), hung] + survivors
        )
        assert report.executed == len(survivors)
        for request in survivors:
            assert store.contains(request.key)
        assert {f.status for f in report.failures} == {FAILED, TIMEOUT}
        manifest = tmp_path / "failures" / "va.jsonl"
        records = [
            json.loads(line)
            for line in manifest.read_text().splitlines()
        ]
        assert {r["status"] for r in records} == {FAILED, TIMEOUT}
        assert "failed" in report.summary() and "timed out" in report.summary()


class TestCachedRunnerWiring:
    def test_policy_and_health_flow_through_prefetch(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fail:sim|va")
        policy = ExecutionPolicy(max_retries=0, keep_going=True, **FAST)
        runner = CachedRunner(str(tmp_path / "simcache"), jobs=2, policy=policy)
        executed = runner.prefetch([req(VA), req(BP)])
        assert executed == 1
        stats = runner.stats()
        assert stats["exec_ok"] == 1
        assert stats["exec_failed"] == 1
        assert stats["exec_timeout"] == 0
        assert "1 failed" in runner.execution_health()
        assert runner.last_report is not None
        assert len(runner.last_report.failures) == 1

    def test_health_accumulates_even_when_prefetch_raises(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fail:sim|va")
        policy = ExecutionPolicy(max_retries=0, **FAST)
        runner = CachedRunner(str(tmp_path / "simcache"), jobs=2, policy=policy)
        with pytest.raises(ExecutionError):
            runner.prefetch([req(VA), req(BP)])
        assert runner.stats()["exec_failed"] == 1
        assert runner.stats()["exec_ok"] == 1


    def test_lazy_runs_count_in_execution_telemetry(
        self, tmp_path, monkeypatch
    ):
        # In-process runs are runs: one success and four injected
        # failures show up in exec_* exactly as a batch's would.
        policy = ExecutionPolicy(
            max_retries=0, keep_going=True, breaker_threshold=0, **FAST
        )
        runner = CachedRunner(str(tmp_path / "simcache"), jobs=1, policy=policy)
        runner.simulate(BP, 8)
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fail:sim|va")
        for _ in range(4):
            with pytest.raises(InjectedFaultError):
                runner.simulate(VA, 8)
        stats = runner.stats()
        assert stats["exec_ok"] == 1
        assert stats["exec_failed"] == 4
        assert stats["exec_retries"] == 0
        assert runner.execution_health() == (
            "execution: 1 ok, 4 failed, 0 timed out, 0 retries, "
            "0 pool deaths"
        )

    def test_lazy_memory_error_counts_as_oom(self, tmp_path, monkeypatch):
        runner = CachedRunner(str(tmp_path / "simcache"))
        monkeypatch.setattr(
            "repro.analysis.runner.compute_mrc",
            lambda *a, **k: (_ for _ in ()).throw(MemoryError("rss cap")),
        )
        with pytest.raises(MemoryError):
            runner.miss_rate_curve(VA)
        assert runner.stats()["exec_oom"] == 1
        assert "1 out of memory" in runner.execution_health()


class TestWorkflowDegradation:
    def test_prefetch_failure_degrades_to_in_process(self, monkeypatch):
        from repro.core.workflow import predict_strong_scaling
        from tests.analysis.test_experiments_with_fakes import FakeRunner

        class FlakyPrefetchRunner(FakeRunner):
            def prefetch(self, requests):
                raise ExecutionError("pool exploded")

        with pytest.warns(UserWarning, match="parallel prefetch failed"):
            study = predict_strong_scaling(
                get_benchmark("pf"), runner=FlakyPrefetchRunner()
            )
        # The study still produced predictions via the lazy path.
        assert study.predictions["scale-model"]


class TestMergeExceptionSafety:
    def test_staged_records_flush_when_a_put_raises(self, tmp_path):
        poison_key = req(BP, size=16).key

        class PoisonedStore(ResultStore):
            def put(self, key, payload, shard="misc"):
                if key == poison_key:
                    raise ValueError("disk full")
                super().put(key, payload, shard=shard)

        store = PoisonedStore(str(tmp_path / "simcache"))
        runner = ParallelRunner(store, jobs=1)
        with pytest.raises(ValueError, match="disk full"):
            runner.run_batch([req(BP), req(BP, size=16), req(VA)])
        # The batching window was restored and everything staged before
        # (and despite) the failure reached disk.
        assert store.flush_every == 1
        reloaded = ResultStore(str(tmp_path / "simcache"))
        assert reloaded.contains(req(BP).key)

    def test_merge_preserves_flush_every(self, tmp_path):
        store = ResultStore(str(tmp_path / "simcache"), flush_every=5)
        ParallelRunner(store, jobs=1).run_batch([req(VA)])
        assert store.flush_every == 5


class TestSchemaDriftSatellite:
    def _drift_shard(self, root, mutate):
        path = os.path.join(root, "va.jsonl")
        records = [
            json.loads(line)
            for line in open(path)
            if line.strip()
        ]
        for record in records:
            mutate(record["payload"])
            # A schema-drifted record written by a different code version
            # is internally consistent: its digest matches its payload.
            # (A digest that does NOT match is a different failure mode,
            # covered by tests/analysis/test_simcache_digests.py.)
            if "digest" in record:
                record["digest"] = content_digest(record["payload"])
        with open(path, "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")

    def test_missing_field_is_a_miss_not_a_crash(self, tmp_path):
        root = str(tmp_path / "simcache")
        CachedRunner(root).simulate(VA, 8)
        self._drift_shard(root, lambda p: p.pop("cycles"))
        runner = CachedRunner(root)
        with pytest.warns(UserWarning, match="schema"):
            result = runner.simulate(VA, 8)
        assert result.cycles > 0
        assert runner.misses == 1 and runner.hits == 0
        assert runner.stats()["schema_mismatches"] == 1
        # The recomputed record replaced the drifted one.
        assert runner.simulate(VA, 8).cycles == result.cycles

    def test_unknown_extra_field_is_a_miss(self, tmp_path):
        root = str(tmp_path / "simcache")
        CachedRunner(root).simulate_mcm(VA, 4, work_scale=4.0)
        self._drift_shard(root, lambda p: p.__setitem__("bogus_field", 1))
        runner = CachedRunner(root)
        with pytest.warns(UserWarning, match="schema"):
            runner.simulate_mcm(VA, 4, work_scale=4.0)
        assert runner.misses == 1
        assert runner.stats()["schema_mismatches"] == 1

    def test_drifted_mrc_payload_is_a_miss(self, tmp_path):
        root = str(tmp_path / "simcache")
        CachedRunner(root).miss_rate_curve(VA)
        self._drift_shard(root, lambda p: p.pop("mpki"))
        runner = CachedRunner(root)
        with pytest.warns(UserWarning, match="schema"):
            curve = runner.miss_rate_curve(VA)
        assert curve.mpki
        assert runner.stats()["schema_mismatches"] == 1

    def test_result_from_payload_contract(self):
        from dataclasses import asdict

        good = asdict(CachedRunner(None).simulate(VA, 8))
        assert result_from_payload(good) is not None
        assert result_from_payload(None) is None
        assert result_from_payload({}) is None
        missing = dict(good)
        missing.pop("workload")
        assert result_from_payload(missing) is None
        extra = dict(good, not_a_field=1)
        assert result_from_payload(extra) is None
        invalid = dict(good, cycles=-1.0)  # rejected by the record itself
        assert result_from_payload(invalid) is None

    def test_safe_curve_from_payload_contract(self):
        assert safe_curve_from_payload(None) is None
        assert safe_curve_from_payload({"workload": "va"}) is None


class TestDefaultJobsSatellite:
    def test_invalid_repro_jobs_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "banana")
        with pytest.warns(UserWarning, match="REPRO_JOBS='banana'"):
            jobs = default_jobs()
        assert jobs >= 1

    def test_valid_repro_jobs_silent(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3


class TestManifestAndReportUnits:
    def test_manifest_disabled_without_root(self):
        manifest = FailureManifest(None)
        outcome = RunOutcome("k", "sim", "va", FAILED)
        assert manifest.append([outcome]) == 0
        assert manifest.path_for("va") is None

    def test_manifest_appends_across_calls(self, tmp_path):
        manifest = FailureManifest(str(tmp_path / "failures"))
        outcome = RunOutcome("k", "sim", "va", FAILED, error="boom")
        assert manifest.append([outcome]) == 1
        assert manifest.append([outcome]) == 1
        lines = open(manifest.path_for("va")).read().splitlines()
        assert len(lines) == 2

    def test_report_summary_counts(self):
        report = BatchReport(
            outcomes=(
                RunOutcome("a", "sim", "va", OK, attempts=2),
                RunOutcome("b", "sim", "bp", FAILED, attempts=3),
                RunOutcome("c", "mrc", "va", TIMEOUT),
            ),
            pool_deaths=1,
            degraded_to_serial=True,
        )
        assert report.executed == 1
        assert len(report.failures) == 2
        assert report.retries == 3
        text = report.summary()
        assert "1 ok" in text and "1 failed" in text
        assert "1 timed out" in text and "degraded to serial" in text


    def test_retries_never_go_negative(self):
        # Zero-attempt outcomes (skipped, interrupted before starting)
        # made no retry; a drained batch must not print "-8 retries".
        report = BatchReport(
            outcomes=tuple(
                RunOutcome(f"k{i}", "sim", "va", INTERRUPTED, attempts=0)
                for i in range(8)
            )
            + (
                RunOutcome("s", "sim", "va", SKIPPED, attempts=0),
                RunOutcome("r", "sim", "va", OK, attempts=3),
            ),
        )
        assert report.retries == 2
        assert report.counts()["retries"] == 2
        assert "2 retries" in report.summary()

    def test_manifest_lines_with_resume_fields_still_seed_streaks(
        self, tmp_path
    ):
        # Manifests written while runs could resume from checkpoints
        # carry two more fields per record; they must still count.
        root = tmp_path / "failures"
        root.mkdir()
        record = {
            "key": "sim|a|b", "kind": "sim", "shard": "va",
            "status": FAILED, "attempts": 3, "error": "boom", "size": 8,
            "work_scale": 1.0, "seed": 0, "method": "stack",
            "resumed_from_kernel": None, "cycles_saved": 0.0,
            "recorded_at": 1.0,
        }
        line = json.dumps(record) + "\n"
        (root / "va.jsonl").write_text(line * 2)
        ledger = FailureLedger(str(root), threshold=2)
        assert ledger.streak("sim|a|b") == 2
        assert ledger.tripped("sim|a|b")


class TestCliKeepGoing:
    """End-to-end acceptance: with --keep-going the CLI exits with a
    failure summary (code 1), not a traceback; without it, code 2."""

    def _main(self, tmp_path, capsys, *extra):
        from repro.analysis.cli import main

        code = main([
            "fig1", "--benchmarks", "pf",
            "--cache", str(tmp_path / "simcache"),
            "--jobs", "1", *extra,
        ])
        return code, capsys.readouterr().err

    def test_keep_going_exits_one_with_summary(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fail:sim|pf")
        code, err = self._main(tmp_path, capsys, "--keep-going")
        assert code == 1
        assert "completed with failures: fig1" in err
        assert "execution:" in err  # health summary still printed

    def test_without_keep_going_exits_two(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fail:sim|pf")
        code, err = self._main(tmp_path, capsys)
        assert code == 2
        assert "error:" in err

    def test_healthy_run_exits_zero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        from repro.analysis.cli import main

        code = main([
            "table1", "--cache", str(tmp_path / "simcache"), "--jobs", "1",
        ])
        assert code == 0
        assert "execution: 0 ok" in capsys.readouterr().err


class TestCliFlags:
    def test_parser_accepts_fault_flags(self):
        from repro.analysis.cli import build_parser, build_policy

        args = build_parser().parse_args(
            ["fig4", "--max-retries", "5", "--run-timeout", "30",
             "--keep-going"]
        )
        policy = build_policy(args)
        assert policy.max_retries == 5
        assert policy.run_timeout == 30.0
        assert policy.keep_going is True

    def test_parser_defaults_match_policy_defaults(self):
        from repro.analysis.cli import build_parser, build_policy

        policy = build_policy(build_parser().parse_args(["fig4"]))
        assert policy.max_retries == ExecutionPolicy().max_retries
        assert policy.run_timeout is None
        assert policy.keep_going is False
