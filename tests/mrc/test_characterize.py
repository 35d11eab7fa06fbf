"""Workload-characterization tests."""

import pytest

from repro.exceptions import TraceError
from repro.memory_regions import BYPASS_BASE
from repro.mrc.characterize import characterize, working_set_knees
from repro.mrc.stack_distance import StackDistanceProfiler
from repro.trace.kernel import WorkloadTrace
from tests.hand_traces import hand_kernel


def workload_from_stream(stream, name="w"):
    warp = ([1] * len(stream), list(stream), 0, 0.0)
    return WorkloadTrace(name, [hand_kernel("k", 32, [[warp]])])


class TestCharacterize:
    def test_footprint_and_reuse(self):
        stream = [0, 1, 2, 3] * 5  # 4 lines touched 5 times each
        ch = characterize(workload_from_stream(stream))
        assert ch.footprint_lines == 4
        assert ch.reuse_factor == pytest.approx(5.0)
        assert ch.accesses == 20

    def test_bypass_lines_counted_separately(self):
        stream = [0, 1, BYPASS_BASE + 5, BYPASS_BASE + 6]
        ch = characterize(workload_from_stream(stream))
        assert ch.footprint_lines == 4
        assert ch.bypass_lines == 2
        assert ch.reuse_factor == pytest.approx(1.0)

    def test_max_accesses_caps_walk(self):
        stream = list(range(1000))
        ch = characterize(workload_from_stream(stream), max_accesses=100)
        assert ch.accesses == 100
        assert ch.footprint_lines == 100

    def test_footprint_mb_conversion(self):
        # 1024 lines at the default miniaturization = 1 nominal MB.
        stream = list(range(1024))
        ch = characterize(workload_from_stream(stream))
        assert ch.footprint_mb() == pytest.approx(1.0)

    def test_empty_stream_rejected(self):
        wl = workload_from_stream([1])
        with pytest.raises(TraceError):
            characterize(wl, max_accesses=0)


class TestWorkingSetKnees:
    def test_hot_set_produces_knee(self):
        profiler = StackDistanceProfiler()
        # 32 hot lines swept 50 times: a strong knee at 32 lines.
        for __ in range(50):
            profiler.consume(range(32))
        knees = working_set_knees(profiler)
        assert 32 in knees

    def test_streaming_has_no_knee(self):
        profiler = StackDistanceProfiler()
        profiler.consume(range(5000))  # no reuse at all
        assert working_set_knees(profiler) == []

    def test_empty_profiler(self):
        assert working_set_knees(StackDistanceProfiler()) == []


class TestCatalogFootprints:
    """The declared Table II footprints match what the traces touch.

    The sweep family traces only the *hot* working set (one-shot traffic
    is either bypassed or absent), so the measured footprint must match
    the spec's hot_mb; hotcold/stream footprints match fp within the
    prefix sampled.
    """

    @pytest.mark.parametrize("abbr", ["dct", "lu", "bp"])
    def test_sweep_footprint_matches_hot_set(self, abbr):
        from repro.workloads import STRONG_SCALING, build_trace

        spec = STRONG_SCALING[abbr]
        ch = characterize(build_trace(spec))
        hot_mb = spec.param("hot_mb", spec.footprint_mb)
        assert ch.footprint_mb() == pytest.approx(hot_mb, rel=0.05)
        assert ch.reuse_factor > 2.0  # the super-linear prerequisite

    def test_ht_has_no_reuse(self):
        from repro.workloads import STRONG_SCALING, build_trace

        ch = characterize(build_trace(STRONG_SCALING["ht"]),
                          max_accesses=50000)
        assert ch.reuse_factor < 1.1  # "almost zero data reuse" (paper)
