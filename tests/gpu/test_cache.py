"""Set-associative LRU cache tests, including property-based LRU checks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError
from repro.gpu.cache import SetAssocCache


class TestBasicBehavior:
    def test_first_access_misses_second_hits(self):
        c = SetAssocCache(num_sets=4, assoc=2)
        assert c.access(10) is False
        assert c.access(10) is True
        assert c.hits == 1 and c.misses == 1

    def test_lru_eviction_within_set(self):
        c = SetAssocCache(num_sets=1, assoc=2)
        c.access(1)
        c.access(2)
        c.access(1)  # 1 becomes MRU; LRU is 2
        c.access(3)  # evicts 2
        assert c.access(1) is True
        assert c.access(2) is False

    def test_sets_are_independent(self):
        c = SetAssocCache(num_sets=2, assoc=1)
        c.access(0)  # set 0
        c.access(1)  # set 1
        assert c.access(0) is True
        assert c.access(1) is True

    def test_non_power_of_two_sets(self):
        # The paper's slice geometry yields non-power-of-two set counts.
        c = SetAssocCache(num_sets=17, assoc=64)
        for line in range(17 * 64):
            c.access(line)
        assert c.resident_lines() == 17 * 64
        assert all(c.access(line) for line in range(17 * 64))

    def test_probe_does_not_mutate(self):
        c = SetAssocCache(num_sets=1, assoc=1)
        c.access(5)
        assert c.probe(5) is True
        assert c.probe(6) is False
        assert c.hits == 0 or c.hits == 0  # probe counted nothing
        assert c.accesses == 1

    def test_fill_returns_victim(self):
        c = SetAssocCache(num_sets=1, assoc=1)
        assert c.fill(7) is None
        assert c.probe(7)
        victim = c.fill(9)
        assert victim == 7

    def test_clear_and_reset_stats(self):
        c = SetAssocCache(num_sets=1, assoc=2)
        c.access(1)
        c.reset_stats()
        assert c.accesses == 0
        assert c.probe(1)  # contents survive reset_stats
        c.clear()
        assert not c.probe(1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SetAssocCache(0, 1)
        with pytest.raises(ConfigurationError):
            SetAssocCache(1, 0)


class TestCyclicSweep:
    """The LRU cliff mechanism underpinning super-linear scaling."""

    def test_sweep_larger_than_cache_never_hits(self):
        c = SetAssocCache(num_sets=8, assoc=8)  # 64 lines
        for __ in range(3):
            for line in range(128):
                c.access(line)
        assert c.hits == 0

    def test_sweep_fitting_hits_after_warmup(self):
        c = SetAssocCache(num_sets=8, assoc=8)
        for __ in range(3):
            for line in range(56):  # 7 lines/set < 8 ways
                c.access(line)
        assert c.misses == 56  # cold only
        assert c.hits == 2 * 56


class TestLRUProperty:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=300))
    def test_matches_reference_lru(self, stream):
        """The dict-based cache must agree with a straightforward
        list-based LRU reference model."""
        num_sets, assoc = 3, 4
        cache = SetAssocCache(num_sets, assoc)
        reference = [[] for __ in range(num_sets)]
        for line in stream:
            got = cache.access(line)
            ref_set = reference[line % num_sets]
            expected = line in ref_set
            if expected:
                ref_set.remove(line)
            elif len(ref_set) >= assoc:
                ref_set.pop(0)
            ref_set.append(line)
            assert got == expected

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=200))
    def test_occupancy_bounded(self, stream):
        cache = SetAssocCache(4, 2)
        for line in stream:
            cache.access(line)
        assert cache.resident_lines() <= 8
