"""Experiment-runner tests against a fake cached runner.

Real experiment runs are exercised by the benchmark harness; these tests
validate the experiment logic (error bookkeeping, summaries, rendering)
without simulation cost.
"""

import pytest

from repro.analysis import experiments as exp
from repro.gpu.results import SimulationResult
from repro.mrc.curve import MissRateCurve
from repro.units import MB

PER_SM_CAP = 34 * MB / 128


class FakeRunner:
    """Drop-in CachedRunner with analytic IPC curves."""

    def __init__(self, per_sm_ipc=30.0, exponent=1.0, cliff_at=None,
                 boost=3.0, mpki=(3.0, 3.0, 3.0, 3.0, 3.0)):
        self.per_sm_ipc = per_sm_ipc
        self.exponent = exponent
        self.cliff_at = cliff_at
        self.boost = boost
        self.mpki = mpki
        self.calls = []

    def _ipc(self, n):
        ipc = self.per_sm_ipc * 8 * (n / 8) ** self.exponent
        if self.cliff_at is not None and n >= self.cliff_at:
            ipc *= self.boost
        return ipc

    def _result(self, spec, n, work_scale, wall=1.0):
        self.calls.append((spec.abbr, n, work_scale))
        ipc = self._ipc(n)
        return SimulationResult(
            workload=spec.abbr, system=f"{n}", num_sms=n,
            cycles=1000.0, thread_instructions=int(ipc * 1000),
            warp_instructions=int(ipc * 1000) // 32,
            memory_accesses=1, memory_stall_fraction=1.0 - 1.0 / self.boost,
            wall_time_s=wall * work_scale * (1 + n / 128),
        )

    def simulate(self, spec, n, work_scale=1.0, seed=0):
        return self._result(spec, n, work_scale)

    def simulate_mcm(self, spec, chiplets, work_scale, seed=0):
        return self._result(spec, chiplets, work_scale)

    def miss_rate_curve(self, spec, work_scale=1.0, method="stack", seed=0):
        caps = tuple(int(PER_SM_CAP * 8 * 2**i) for i in range(5))
        return MissRateCurve(spec.abbr, caps, self.mpki)


class TestFigure1WithFakes:
    def test_linear_curves_classified(self):
        result = exp.figure1_scaling(("pf",), FakeRunner())
        assert result.measured_class["pf"] == "linear"
        assert "pf" in result.as_text()
        assert result.plot("pf")

    def test_cliff_classified_super(self):
        runner = FakeRunner(cliff_at=128, boost=3.0)
        result = exp.figure1_scaling(("dct",), runner)
        assert result.measured_class["dct"] == "super-linear"
        assert result.all_match


class TestFigure4WithFakes:
    def test_linear_world_scale_model_wins_vs_log(self):
        result = exp.figure4_strong_accuracy(
            128, benchmarks=("pf", "ht"), runner=FakeRunner()
        )
        assert result.mean_error("scale-model") < 0.01
        assert result.mean_error("logarithmic") > 0.5
        assert result.best_method() != "logarithmic"
        text = result.as_text()
        assert "avg" in text and "max" in text

    def test_cliff_world_eq3_exact(self):
        runner = FakeRunner(
            cliff_at=128, boost=2.5, mpki=(2.0, 2.0, 2.0, 2.0, 0.1)
        )
        result = exp.figure4_strong_accuracy(
            128, benchmarks=("dct",), runner=runner
        )
        # f_mem = 1 - 1/boost makes Eq. 3 exact by construction.
        assert result.errors["scale-model"]["dct"] < 1e-9
        assert result.errors["proportional"]["dct"] == pytest.approx(0.6)


class TestFigure6And7WithFakes:
    def test_weak_accuracy(self):
        results = exp.figure6_weak_accuracy(runner=FakeRunner())
        assert set(results) == {32, 64, 128}
        assert results[128].mean_error("scale-model") < 0.01

    def test_weak_runs_scale_inputs(self):
        runner = FakeRunner()
        exp.figure6_weak_accuracy(runner=runner, target_sizes=(32,))
        assert ("va", 32, 4.0) in runner.calls

    def test_speedup_shape(self):
        result = exp.figure7_speedup(FakeRunner())
        assert result.average(32) < result.average(64) < result.average(128)
        assert "Figure 7" in result.as_text()


class TestFigure8WithFakes:
    def test_mcm_accuracy(self):
        result = exp.figure8_mcm_accuracy(FakeRunner())
        assert result.scenario == "mcm-weak"
        assert result.scale_sizes == (4, 8)
        assert result.mean_error("scale-model") < 0.01
        assert len(result.errors["scale-model"]) == 5


class TestFigure5WithFakes:
    def test_curves_rendered(self):
        result = exp.figure5_prediction_curves(("pf",), FakeRunner())
        assert result.real["pf"][128] > 0
        assert result.predicted["pf"]["scale-model"][128] > 0
        assert "Figure 5: pf" in result.as_text()


class TestEveryFrontDoorIsOneFlow:
    """One fake world through every consumer of the Figure-3 flow: the
    scale-model prediction and its error are the same bits everywhere."""

    BENCH, TARGET = "dct", 128

    def world(self):
        return FakeRunner(
            cliff_at=128, boost=2.5, mpki=(2.0, 2.0, 2.0, 2.0, 0.1)
        )

    def test_same_prediction_and_error_everywhere(self):
        from repro.analysis.artifact import strong_benchmark_record
        from repro.core.workflow import predict_strong_scaling
        from repro.workloads import STRONG_SCALING

        spec, target = STRONG_SCALING[self.BENCH], self.TARGET
        study = predict_strong_scaling(spec, runner=self.world())
        fig4 = exp.figure4_strong_accuracy(
            target, benchmarks=(self.BENCH,), runner=self.world()
        )
        fig5 = exp.figure5_prediction_curves((self.BENCH,), self.world())
        record = strong_benchmark_record(self.BENCH, self.world())
        zoo_style = exp.RunnerStudy(
            spec, (8, 16), (target,), methods=("scale-model",)
        ).run(self.world())

        predicted = study.predictions["scale-model"][target]
        assert predicted == fig4.predictions["scale-model"][self.BENCH]
        assert predicted == fig5.predicted[self.BENCH]["scale-model"][target]
        assert predicted == record["predictions"]["scale-model"][str(target)]
        assert predicted == zoo_style.predictions["scale-model"][target]
        error = study.errors("scale-model")[target]
        assert error == fig4.errors["scale-model"][self.BENCH]
        assert error == record["errors"]["scale-model"][str(target)]
        assert error == zoo_style.errors("scale-model")[target]

    def test_weak_base_size_reaches_prefetch_and_lookup(self):
        from repro.analysis.artifact import weak_benchmark_record

        class RecordingRunner(FakeRunner):
            def prefetch(self, requests):
                self.prefetched = [
                    (r.spec.abbr, r.size, r.work_scale) for r in requests
                ]

        runner = RecordingRunner()
        weak_benchmark_record("va", runner, base_size=16)
        expected = [("va", n, n / 16) for n in (8, 16, 32, 64, 128)]
        assert runner.calls == expected
        exp.run_studies(runner, [exp.RunnerStudy(
            exp.WEAK_SCALING["va"], (8, 16), (32, 64, 128), base_size=16
        )])
        assert runner.prefetched == expected


class TestStaticTables:
    def test_table1(self):
        text = exp.table1_text()
        assert "34 MB, 32 slices" in text
        assert "2.125 MB, 2 slices" in text

    def test_table5(self):
        text = exp.table5_text()
        assert "16" in text and "1.7 GHz" in text
