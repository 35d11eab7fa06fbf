"""Scale-model predictor tests: Equations 1-4 on constructed inputs."""

import pytest

from repro.core.model import ScaleModelPredictor
from repro.core.profile import ScaleModelProfile
from repro.exceptions import PredictionError
from repro.mrc.cliff import Region
from repro.mrc.curve import MissRateCurve
from repro.units import MB

#: Paper LLC per SM: 34 MB / 128 SMs.
PER_SM = 34 * MB / 128


def paper_curve(mpki):
    caps = tuple(int(PER_SM * 8 * 2**i) for i in range(len(mpki)))
    return MissRateCurve("t", caps, tuple(mpki))


def profile(ipc8=100.0, ipc16=190.0, f_mem=0.4, mpki=None):
    curve = paper_curve(mpki) if mpki is not None else None
    return ScaleModelProfile(
        workload="t", sizes=(8, 16), ipcs=(ipc8, ipc16),
        f_mem=f_mem, curve=curve,
    )


class TestProfile:
    def test_correction_factor_eq1(self):
        # (190/100) / (16/8) = 0.95
        assert profile().correction_factor() == pytest.approx(0.95)

    def test_super_linear_correction_above_one(self):
        p = profile(ipc8=100, ipc16=220)
        assert p.correction_factor() == pytest.approx(1.1)

    def test_validation(self):
        with pytest.raises(PredictionError):
            ScaleModelProfile("t", (8,), (100.0,))
        with pytest.raises(PredictionError):
            ScaleModelProfile("t", (16, 8), (100.0, 190.0))
        with pytest.raises(PredictionError):
            ScaleModelProfile("t", (8, 16), (100.0, -5.0))
        with pytest.raises(PredictionError):
            ScaleModelProfile("t", (8, 16), (100.0, 190.0), f_mem=1.0)

    @pytest.mark.parametrize("ipcs", [
        (float("nan"), 190.0), (100.0, float("inf")), (100.0, float("nan")),
    ])
    def test_non_finite_ipcs_rejected(self, ipcs):
        # ``ipc <= 0`` is false for NaN and lets inf through, so the
        # predictor used to return ipc=nan / ipc=inf without complaint.
        with pytest.raises(PredictionError, match="finite"):
            ScaleModelProfile("t", (8, 16), ipcs)

    def test_accessors(self):
        p = profile()
        assert p.smallest == (8, 100.0)
        assert p.largest == (16, 190.0)


class TestPreCliff:
    def test_eq2_no_curve(self):
        predictor = ScaleModelPredictor(profile())
        result = predictor.predict(128)
        # IPC_L * (T/L) * C = 190 * 8 * 0.95
        assert result.ipc == pytest.approx(190 * 8 * 0.95)
        assert result.region is Region.PRE_CLIFF
        assert result.correction_factor == pytest.approx(0.95)

    def test_eq2_flat_curve(self):
        predictor = ScaleModelPredictor(profile(mpki=[5, 5, 5, 5, 5]))
        result = predictor.predict(64)
        assert result.ipc == pytest.approx(190 * 4 * 0.95)
        assert result.region is Region.PRE_CLIFF

    def test_target_smaller_than_largest_model_rejected(self):
        with pytest.raises(PredictionError):
            ScaleModelPredictor(profile()).predict(8)


class TestCliff:
    def test_eq3_uses_f_mem(self):
        # Cliff between 17 MB (64 SMs) and 34 MB (128 SMs).
        predictor = ScaleModelPredictor(
            profile(f_mem=0.4, mpki=[2.1, 2.1, 2.1, 2.1, 0.2])
        )
        result = predictor.predict(128)
        assert result.region is Region.CLIFF
        assert result.ipc == pytest.approx(190 * 8 / (1 - 0.4))

    def test_pre_cliff_targets_still_eq2(self):
        predictor = ScaleModelPredictor(
            profile(f_mem=0.4, mpki=[2.1, 2.1, 2.1, 2.1, 0.2])
        )
        result = predictor.predict(64)
        assert result.region is Region.PRE_CLIFF
        assert result.ipc == pytest.approx(190 * 4 * 0.95)

    def test_missing_f_mem_raises(self):
        prof = ScaleModelProfile(
            "t", (8, 16), (100.0, 190.0), f_mem=None,
            curve=paper_curve([2.1, 2.1, 2.1, 2.1, 0.2]),
        )
        with pytest.raises(PredictionError, match="f_mem"):
            ScaleModelPredictor(prof).predict(128)


class TestPostCliff:
    def test_eq4_chains_from_cliff_prediction(self):
        # Cliff between 8.5 MB (32 SMs) and 17 MB (64 SMs): the 64-SM
        # system is the cliff anchor K; 128 SMs is post-cliff.
        predictor = ScaleModelPredictor(
            profile(f_mem=0.5, mpki=[2.1, 2.1, 2.1, 0.3, 0.3])
        )
        r64 = predictor.predict(64)
        r128 = predictor.predict(128)
        assert r64.region is Region.CLIFF
        assert r128.region is Region.POST_CLIFF
        ipc_k = 190 * 4 / (1 - 0.5)
        assert r64.ipc == pytest.approx(ipc_k)
        # Eq. 4: anchor scaled by T/K and corrected by C.
        assert r128.ipc == pytest.approx(ipc_k * 2 * 0.95)
        assert r128.details["anchor_size"] == 64.0

    def test_capacity_mapping_inferred_from_curve(self):
        predictor = ScaleModelPredictor(
            profile(mpki=[2.1, 2.1, 2.1, 2.1, 0.2])
        )
        assert predictor.capacity_of(128) == pytest.approx(PER_SM * 128, rel=1e-6)


class TestPredictionResult:
    def test_non_positive_rejected(self):
        from repro.core.model import PredictionResult

        with pytest.raises(PredictionError):
            PredictionResult("w", 64, 0.0, Region.PRE_CLIFF, 1.0)

    @pytest.mark.parametrize("ipc", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, ipc):
        from repro.core.model import PredictionResult

        with pytest.raises(PredictionError, match="finite"):
            PredictionResult("w", 64, ipc, Region.PRE_CLIFF, 1.0)
