"""Address-pattern generator tests, including distribution properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import TraceError
from repro.trace import patterns


def rng(seed=0):
    return np.random.default_rng(seed)


class TestSequential:
    def test_basic(self):
        out = patterns.sequential(100, 5)
        assert out.tolist() == [100, 101, 102, 103, 104]

    def test_stride(self):
        assert patterns.sequential(0, 3, stride=4).tolist() == [0, 4, 8]

    def test_validation(self):
        with pytest.raises(TraceError):
            patterns.sequential(0, 0)
        with pytest.raises(TraceError):
            patterns.sequential(0, 5, stride=0)


class TestCyclicSweep:
    def test_wraps_at_working_set(self):
        out = patterns.cyclic_sweep(10, ws_lines=4, count=6, offset=2)
        assert out.tolist() == [12, 13, 10, 11, 12, 13]

    def test_covers_every_line(self):
        out = patterns.cyclic_sweep(0, 8, 8)
        assert sorted(out.tolist()) == list(range(8))

    @given(
        ws=st.integers(min_value=1, max_value=100),
        count=st.integers(min_value=1, max_value=500),
        offset=st.integers(min_value=0, max_value=1000),
    )
    def test_always_within_working_set(self, ws, count, offset):
        out = patterns.cyclic_sweep(0, ws, count, offset)
        assert out.min() >= 0
        assert out.max() < ws


class TestZipf:
    def test_skew_orders_popularity(self):
        weights = patterns.zipf_weights(50, exponent=1.2)
        assert weights.sum() == pytest.approx(1.0)
        assert (np.diff(weights) < 0).all()
        # Rank 0 must be much hotter than rank 40.
        assert weights[0] > 5 * weights[40]

    def test_validation(self):
        with pytest.raises(TraceError):
            patterns.zipf_weights(10, exponent=0.0)
        with pytest.raises(TraceError):
            patterns.zipf_weights(0, exponent=1.2)


class TestPointerChase:
    def test_every_walk_starts_at_root(self):
        out = patterns.pointer_chase_tree(1000, levels=3, fanout=4,
                                          walks=10, rng=rng(2))
        assert len(out) == 30
        roots = out[::3]
        assert (roots == 1000).all()

    def test_levels_are_disjoint_regions(self):
        out = patterns.pointer_chase_tree(0, levels=3, fanout=4, walks=50,
                                          rng=rng(2))
        level1 = out[1::3]
        level2 = out[2::3]
        assert level1.min() >= 1 and level1.max() <= 4
        assert level2.min() >= 5 and level2.max() <= 20


class TestInterleaveCompute:
    def test_mean_close_to_target(self):
        out = patterns.interleave_compute(5000, 12.0, rng(5))
        assert abs(out.mean() - 12.0) < 0.5
        assert (out >= 0).all()

    def test_no_jitter_exact(self):
        out = patterns.interleave_compute(10, 7.0, rng(5), jitter=0.0)
        assert (out == 7).all()

    def test_validation(self):
        with pytest.raises(TraceError):
            patterns.interleave_compute(0, 5.0, rng())
        with pytest.raises(TraceError):
            patterns.interleave_compute(5, -1.0, rng())
