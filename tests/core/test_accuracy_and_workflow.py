"""Accuracy metrics and end-to-end workflow tests (with fake simulators)."""

import pytest

from repro.core.accuracy import geometric_mean, prediction_error, summarize_errors
from repro.core.model import ScaleModelPredictor
from repro.core.workflow import predict_strong_scaling, predict_weak_scaling, study
from repro.exceptions import PredictionError
from repro.gpu.results import SimulationResult
from repro.mrc.collector import paper_capacity_points
from repro.mrc.cliff import Region
from repro.mrc.curve import MissRateCurve
from repro.units import MB
from repro.workloads import get_benchmark

PER_SM = 34 * MB / 128


class TestAccuracy:
    def test_prediction_error(self):
        assert prediction_error(110, 100) == pytest.approx(0.10)
        assert prediction_error(90, 100) == pytest.approx(0.10)
        with pytest.raises(PredictionError):
            prediction_error(1.0, 0.0)

    def test_summarize(self):
        errors = {
            "m1": {"a": 0.1, "b": 0.3},
            "m2": {"a": 0.05, "b": 0.05},
        }
        rows = {s.method: s for s in summarize_errors(errors)}
        assert rows["m1"].mean == pytest.approx(0.2)
        assert rows["m1"].maximum == pytest.approx(0.3)
        assert rows["m1"].worst_benchmark == "b"
        assert rows["m2"].count == 2
        assert rows["m1"].as_row()[1] == "20.0%"

    def test_summarize_empty_rejected(self):
        with pytest.raises(PredictionError):
            summarize_errors({"m": {}})

    def test_geometric_mean(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        with pytest.raises(PredictionError):
            geometric_mean([])
        with pytest.raises(PredictionError):
            geometric_mean([1.0, 0.0])


def fake_result(num_sms, ipc, f_mem=0.3, workload="fake"):
    return SimulationResult(
        workload=workload, system=f"{num_sms}sm", num_sms=num_sms,
        cycles=1000.0, thread_instructions=int(ipc * 1000),
        warp_instructions=int(ipc * 1000) // 32, memory_accesses=10,
        memory_stall_fraction=f_mem,
    )


def linear_sim(per_sm_ipc=30.0):
    def run(num_sms, work_scale):
        return fake_result(num_sms, per_sm_ipc * num_sms)
    return run


def flat_curve():
    caps = tuple(int(PER_SM * 8 * 2**i) for i in range(5))
    return MissRateCurve("fake", caps, (3.0,) * 5)


class TestStrongWorkflow:
    def test_linear_workload_all_methods_close(self):
        spec = get_benchmark("pf")
        study = predict_strong_scaling(
            spec, simulate_fn=linear_sim(), mrc_fn=flat_curve,
        )
        assert study.scenario == "strong"
        for method in ("scale-model", "proportional", "linear", "power-law"):
            errs = study.errors(method)
            assert max(errs.values()) < 0.01, method
        # Logarithmic regression fails badly on linear scaling.
        assert study.errors("logarithmic")[128] > 0.5

    def test_cliff_workload_uses_eq3(self):
        def cliffy(num_sms, work_scale):
            ipc = {8: 100, 16: 200, 32: 400, 64: 800, 128: 3200}[num_sms]
            return fake_result(num_sms, ipc, f_mem=0.5)

        caps = tuple(int(PER_SM * 8 * 2**i) for i in range(5))
        curve = MissRateCurve("c", caps, (2.0, 2.0, 2.0, 2.0, 0.1))
        spec = get_benchmark("dct")
        study = predict_strong_scaling(spec, simulate_fn=cliffy, mrc_fn=lambda: curve)
        # Eq. 3 at 128: 200 * 8 / (1 - 0.5) = 3200 -> exact here.
        assert study.predictions["scale-model"][128] == pytest.approx(3200)
        assert study.errors("scale-model")[128] < 0.01
        # Baselines cannot see the cliff.
        assert study.errors("proportional")[128] > 0.4

    def test_scale_targets_must_be_larger(self):
        spec = get_benchmark("pf")
        with pytest.raises(PredictionError):
            predict_strong_scaling(
                spec, scale_sizes=(8, 64), target_sizes=(32,),
                simulate_fn=linear_sim(), mrc_fn=flat_curve,
            )

    def test_without_actuals(self):
        spec = get_benchmark("pf")
        study = predict_strong_scaling(
            spec, simulate_fn=linear_sim(), mrc_fn=flat_curve,
            include_actuals=False,
        )
        assert study.actuals == {}
        with pytest.raises(PredictionError):
            study.errors("scale-model")

    def test_unknown_method_errors(self):
        spec = get_benchmark("pf")
        study = predict_strong_scaling(
            spec, simulate_fn=linear_sim(), mrc_fn=flat_curve,
        )
        with pytest.raises(PredictionError):
            study.errors("nope")


class TestCapacityMapping:
    """The capacity axis belongs to the configuration the curve was
    collected on, not to whichever scale model is smallest."""

    #: One clean cliff between the 32- and the 64-SM capacity.
    CURVE = MissRateCurve(
        "c", tuple(paper_capacity_points()), (10.0, 9.8, 9.6, 1.0, 0.9)
    )

    def predict(self, ipcs):
        def run(num_sms, work_scale):
            return fake_result(num_sms, ipcs[num_sms], f_mem=0.5)

        return predict_strong_scaling(
            get_benchmark("lu"), scale_sizes=tuple(ipcs),
            target_sizes=(64, 128), simulate_fn=run,
            mrc_fn=lambda: self.CURVE, include_actuals=False,
        )

    def test_larger_scale_models_see_the_same_cliff(self):
        from_16_32 = self.predict({16: 190.0, 32: 360.0})
        # Eq. 3 at 64 SMs: 360 * 2 / (1 - 0.5).  With the axis guessed
        # from the smallest scale model this read pre-cliff, 682 IPC.
        assert from_16_32.predictions["scale-model"][64] == pytest.approx(1440)
        regions = {t: r.region for t, r in from_16_32.scale_model.items()}
        assert regions == {64: Region.CLIFF, 128: Region.POST_CLIFF}
        from_8_16 = self.predict({8: 100.0, 16: 190.0})
        assert regions == {
            t: r.region for t, r in from_8_16.scale_model.items()
        }


class TestStudyKeepsWhatItHadInHand:
    def test_results_and_prediction_results_cover_every_size(self):
        from repro.verify import hooks

        def cliffy(num_sms):
            ipc = {8: 100, 16: 190, 32: 360, 64: 1500, 128: 2900}[num_sms]
            return fake_result(num_sms, ipc, f_mem=0.5)

        curve = TestCapacityMapping.CURVE
        hooks.reset_stats()
        with hooks.paranoia(True):
            result = study(
                "c", "strong", cliffy, (8, 16), (32, 64, 128),
                curve=lambda: curve,
            )
            # Every scale-model prediction went through the checked
            # ``ScaleModelPredictor.predict``: one per (workload, target).
            assert hooks.VERIFY_STATS["predictions_checked"] == 3
        assert list(result.results) == [8, 16, 32, 64, 128]
        assert result.actuals == {
            t: result.results[t].ipc for t in (32, 64, 128)
        }
        reference = ScaleModelPredictor(result.profile, capacity_per_unit=PER_SM)
        for target in (32, 64, 128):
            kept, expected = result.scale_model[target], reference.predict(target)
            assert kept.region is expected.region
            assert kept.correction_factor == expected.correction_factor
            assert kept.ipc == result.predictions["scale-model"][target]
        assert [r.region for r in result.scale_model.values()] == [
            Region.PRE_CLIFF, Region.CLIFF, Region.POST_CLIFF,
        ]

    def test_only_the_requested_methods_are_fitted(self):
        result = study(
            "fake", "strong", lambda n: fake_result(n, 30.0 * n), (8, 16),
            (32,), curve=flat_curve, methods=("scale-model",),
        )
        assert list(result.predictions) == ["scale-model"]


class TestWeakWorkflow:
    def test_weak_uses_work_scale(self):
        calls = []

        def spy(num_sms, work_scale):
            calls.append((num_sms, work_scale))
            return fake_result(num_sms, 30.0 * num_sms)

        spec = get_benchmark("va", weak=True)
        study = predict_weak_scaling(spec, simulate_fn=spy)
        assert (8, 1.0) in calls and (16, 2.0) in calls
        assert (128, 16.0) in calls
        assert study.scenario == "weak"
        assert study.profile.curve is None  # no MRC under weak scaling

    def test_weak_requires_scalable_benchmark(self):
        spec = get_benchmark("dct")  # not weak-scalable
        with pytest.raises(PredictionError):
            predict_weak_scaling(spec, simulate_fn=linear_sim())

    def test_weak_linear_accuracy(self):
        spec = get_benchmark("bp", weak=True)
        study = predict_weak_scaling(spec, simulate_fn=linear_sim())
        assert max(study.errors("scale-model").values()) < 0.01
