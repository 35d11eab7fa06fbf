"""MissRateCurve data type and cliff/region analysis tests."""

import pytest

from repro.exceptions import PredictionError
from repro.mrc.cliff import CliffAnalysis, Region, analyze_regions
from repro.mrc.curve import MissRateCurve
from repro.units import MB


def curve(mpki, caps=None, name="w"):
    caps = caps or [int(2.125 * MB * 2**i) for i in range(len(mpki))]
    return MissRateCurve(name, tuple(caps), tuple(mpki))


class TestMissRateCurve:
    def test_paper_capacities_in_mb(self):
        c = curve([2.0] * 5)
        assert c.capacities_mb == (2.125, 4.25, 8.5, 17.0, 34.0)
        assert len(c) == 5

    def test_drop_ratios(self):
        c = curve([4.0, 2.0, 2.0])
        assert c.drop_ratios() == [2.0, 1.0]

    def test_drop_to_zero_is_infinite(self):
        c = curve([4.0, 0.0])
        assert c.drop_ratios() == [float("inf")]
        flat_zero = curve([0.0, 0.0])
        assert flat_zero.drop_ratios() == [1.0]

    def test_validation(self):
        with pytest.raises(PredictionError):
            curve([1.0])  # too few points
        with pytest.raises(PredictionError):
            MissRateCurve("w", (100, 100), (1.0, 1.0))  # non-increasing caps
        with pytest.raises(PredictionError):
            curve([1.0, -0.1])
        with pytest.raises(PredictionError):
            MissRateCurve("w", (100, 200), (1.0,))

    def test_curve_rejects_miss_ratio_length_mismatch(self):
        with pytest.raises(PredictionError):
            MissRateCurve("w", (100, 200), (2.0, 1.0), miss_ratio=(0.4,))
        # Empty miss_ratio stays allowed (diagnostics are optional).
        c = MissRateCurve("w", (100, 200), (2.0, 1.0))
        assert c.miss_ratio == ()

    def test_as_rows(self):
        rows = curve([2.0, 1.0]).as_rows()
        assert rows == [(2.125, 2.0), (4.25, 1.0)]


class TestCliffDetection:
    def test_dct_like_cliff(self):
        """Sharp drop at the last step (Fig. 2 left)."""
        a = analyze_regions(curve([2.1, 2.1, 2.1, 2.1, 0.3]))
        assert a.has_cliff
        assert a.cliff_step == 3
        low, high = a.cliff_capacities
        assert low == 17 * MB
        assert high == 34 * MB

    def test_bfs_like_gradual_no_cliff(self):
        a = analyze_regions(curve([4.2, 4.0, 3.5, 2.7, 1.9]))
        assert not a.has_cliff
        assert a.cliff_capacities is None

    def test_pf_like_flat_no_cliff(self):
        a = analyze_regions(curve([5.2, 5.2, 5.1, 5.0, 4.8]))
        assert not a.has_cliff

    def test_negligible_mpki_drop_is_not_a_cliff(self):
        a = analyze_regions(curve([0.04, 0.01]))
        assert not a.has_cliff

    def test_first_of_multiple_drops_wins(self):
        a = analyze_regions(curve([8.0, 2.0, 2.0, 0.4, 0.4]))
        assert a.cliff_step == 0

    def test_threshold_validation(self):
        with pytest.raises(PredictionError):
            analyze_regions(curve([2.0, 1.0]), threshold=1.0)


class TestRegions:
    def _analysis(self):
        return analyze_regions(curve([2.1, 2.1, 2.1, 2.1, 0.3]))

    def test_region_of_each_capacity(self):
        a = self._analysis()
        caps = a.curve.capacities_bytes
        assert a.region_of(caps[0]) is Region.PRE_CLIFF
        assert a.region_of(caps[3]) is Region.PRE_CLIFF
        assert a.region_of(caps[4]) is Region.CLIFF

    def test_post_cliff_beyond_first_fit(self):
        a = analyze_regions(curve([2.1, 2.1, 2.1, 0.3, 0.3]))
        caps = a.curve.capacities_bytes
        assert a.region_of(caps[3]) is Region.CLIFF
        assert a.region_of(caps[4]) is Region.POST_CLIFF

    def test_no_cliff_everything_pre(self):
        a = analyze_regions(curve([5.0, 5.0, 5.0]))
        for cap in a.curve.capacities_bytes:
            assert a.region_of(cap) is Region.PRE_CLIFF

    def test_unknown_capacity_rejected(self):
        with pytest.raises(PredictionError):
            self._analysis().region_of(999)
