"""Exact stack-distance profiler tests, verified against a brute-force
reference implementation and a reference LRU simulation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import PredictionError
from repro.trace import patterns
from repro.mrc.stack_distance import (
    COLD,
    FenwickTree,
    StackDistanceProfiler,
    lru_misses,
)


def brute_force_stack_distance(stream):
    """O(n^2) reference: distinct lines between consecutive uses."""
    out = []
    last = {}
    for i, line in enumerate(stream):
        if line not in last:
            out.append(COLD)
        else:
            out.append(len(set(stream[last[line] + 1 : i])))
        last[line] = i
    return out


def reference_lru_misses(stream, capacity):
    lru = []
    misses = 0
    for line in stream:
        if line in lru:
            lru.remove(line)
        else:
            misses += 1
            if len(lru) >= capacity:
                lru.pop(0)
        lru.append(line)
    return misses


class TestFenwickTree:
    def test_point_add_prefix_sum(self):
        t = FenwickTree(8)
        t.add(3, 5)
        t.add(7, 2)
        assert t.prefix_sum(2) == 0
        assert t.prefix_sum(3) == 5
        assert t.prefix_sum(8) == 7
        assert t.range_sum(4, 7) == 2
        assert t.range_sum(5, 4) == 0

    def test_growth_preserves_content(self):
        t = FenwickTree(4)
        t.add(2, 3)
        t.add(100, 7)  # forces growth
        assert t.prefix_sum(2) == 3
        assert t.prefix_sum(100) == 10

    def test_invalid_index(self):
        with pytest.raises(PredictionError):
            FenwickTree().add(0, 1)
        with pytest.raises(PredictionError):
            FenwickTree().prefix_sum(-1)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=9),
        st.lists(
            st.tuples(st.integers(1, 600), st.integers(-3, 3)), max_size=60
        ),
    )
    def test_repeated_doubling_matches_a_plain_array(self, capacity, updates):
        """Growth only appends zeros and sets the new root; every prefix
        must still read as if the tree had been built full-size."""
        tree = FenwickTree(capacity)
        plain = [0] * 601
        for index, delta in updates:
            tree.add(index, delta)
            plain[index] += delta
            assert tree.prefix_sum(index) == sum(plain[: index + 1])
        assert tree.prefix_sum(600) == sum(plain)
        assert all(type(node) is int for node in tree._tree)


class TestStackDistances:
    def test_textbook_example(self):
        p = StackDistanceProfiler()
        distances = [p.access(x) for x in [1, 2, 3, 2, 1, 1]]
        assert distances == [COLD, COLD, COLD, 1, 2, 0]
        assert p.cold_misses == 3

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=15), max_size=120))
    def test_matches_brute_force(self, stream):
        p = StackDistanceProfiler()
        got = [p.access(x) for x in stream]
        assert got == brute_force_stack_distance(stream)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=150),
        st.integers(min_value=1, max_value=12),
    )
    def test_miss_counts_match_lru(self, stream, capacity):
        """The single-pass histogram reproduces any LRU cache's misses."""
        p = StackDistanceProfiler()
        p.consume(stream)
        assert p.misses_at(capacity) == reference_lru_misses(stream, capacity)

    def test_miss_curve_monotone_nonincreasing(self):
        p = StackDistanceProfiler()
        p.consume([i % 7 for i in range(100)] + list(range(50, 80)))
        curve = p.miss_curve([1, 2, 4, 8, 16, 32])
        assert all(a >= b for a, b in zip(curve, curve[1:]))

    def test_distinct_lines(self):
        p = StackDistanceProfiler()
        p.consume([5, 6, 5, 7])
        assert p.distinct_lines == 3

    def test_miss_ratio(self):
        p = StackDistanceProfiler()
        p.consume([1, 1, 1, 1])
        assert p.miss_ratio_at(4) == pytest.approx(0.25)
        assert StackDistanceProfiler().miss_ratio_at(4) == 0.0

    def test_negative_capacity_rejected(self):
        p = StackDistanceProfiler()
        p.access(1)
        with pytest.raises(PredictionError):
            p.misses_at(-1)


#: Fifteen capacities from one line to past every stream's footprint.
CAPACITIES = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987]


def stream_random(rng, n):
    return rng.integers(0, 700, size=n).tolist()


def stream_cyclic_sweep(rng, n):
    return (patterns.cyclic_sweep(0, 300, n, offset=17)).tolist()


def stream_pointer_chase(rng, n):
    return patterns.pointer_chase_tree(0, 4, 6, n // 4 + 1, rng).tolist()[:n]


class TestAgainstMultiCapacityLRU:
    """The profiler's curve equals exact LRU simulation at every capacity,
    on the three stream shapes the benchmarks are made of, and on streams
    that outgrow ``expected_length`` several times over."""

    @pytest.mark.parametrize(
        "make", [stream_random, stream_cyclic_sweep, stream_pointer_chase]
    )
    @pytest.mark.parametrize("expected_length", [1 << 16, 64, 1])
    def test_curve_equals_lru(self, make, expected_length):
        stream = make(np.random.default_rng(7), 5000)
        profiler = StackDistanceProfiler(expected_length)
        profiler.consume(stream)
        assert profiler.miss_curve(CAPACITIES) == lru_misses(stream, CAPACITIES)
        assert profiler.accesses == len(stream)

    def test_growth_does_not_change_the_histogram(self):
        stream = stream_random(np.random.default_rng(3), 4000)
        roomy, grown = StackDistanceProfiler(1 << 16), StackDistanceProfiler(2)
        roomy.consume(stream)
        grown.consume(stream)
        assert grown.histogram() == roomy.histogram()
        assert grown.cold_misses == roomy.cold_misses


class TestMultiCapacityLRU:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=25), min_size=1, max_size=150))
    def test_agrees_with_stack_distance(self, stream):
        capacities = [1, 3, 8]
        exact = StackDistanceProfiler()
        exact.consume(stream)
        assert lru_misses(stream, capacities) == exact.miss_curve(capacities)

    def test_validation(self):
        with pytest.raises(PredictionError):
            lru_misses([1, 2], [])
        with pytest.raises(PredictionError):
            lru_misses([1, 2], [0])
