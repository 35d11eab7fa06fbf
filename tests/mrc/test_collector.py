"""MRC collector integration tests on small synthetic workloads."""

import numpy as np
import pytest

from repro.exceptions import PredictionError, TraceError
from repro.gpu.config import GPUConfig
from repro.memory_regions import BYPASS_BASE
from repro.mrc.collector import collect_miss_rate_curve, paper_capacity_points
from repro.mrc.interleave import interleaved_stream
from repro.trace.kernel import KernelTrace, WorkloadTrace
from repro.units import MB
from repro.workloads import build_trace, get_benchmark, strong_scaling_names
from tests.hand_traces import hand_kernel


def cfg(scale=1.0):
    return GPUConfig.paper_baseline(capacity_scale=scale)


def sweep_workload(ws_lines, num_ctas=32, apw=64, name="sweep"):
    def build(cta_id):
        warps = []
        for w in range(2):
            gidx = cta_id * 2 + w
            lines = [(gidx * apw + i) % ws_lines for i in range(apw)]
            warps.append(([1] * apw, lines, 0, 0.0))
        return warps

    ctas = [build(c) for c in range(num_ctas)]
    return WorkloadTrace(name, [hand_kernel("k", 64, ctas)])


class TestPaperCapacityPoints:
    def test_default_ladder(self):
        caps = paper_capacity_points()
        assert caps == [
            int(2.125 * MB), int(4.25 * MB), int(8.5 * MB),
            17 * MB, 34 * MB,
        ]


def one_cta(*warp_lines):
    cta = [([1] * len(w), list(w), 0, 0.0) for w in warp_lines]
    return WorkloadTrace("w", [hand_kernel("k", 64, [cta])])


class TestInterleave:
    def test_equal_length_round_robin(self):
        vsm, lines = interleaved_stream(one_cta([1, 2, 3], [10, 20, 30]))
        assert lines.tolist() == [1, 10, 2, 20, 3, 30]
        assert vsm.tolist() == [0] * 6

    def test_unequal_lengths(self):
        __, lines = interleaved_stream(one_cta([1, 2, 3], [10]))
        assert lines.tolist() == [1, 10, 2, 3]

    def test_needs_an_sm_and_a_slot(self):
        with pytest.raises(TraceError):
            interleaved_stream(one_cta([1]), num_virtual_sms=0)
        with pytest.raises(TraceError):
            interleaved_stream(one_cta([1]), ctas_per_sm=0)

    def test_kernel_without_accesses(self):
        idle = hand_kernel("idle", 32, [[([], [], 4, 0.0)]] * 3)
        busy = one_cta([5, 6]).kernels[0]
        vsm, lines = interleaved_stream(WorkloadTrace("w", [idle, busy, idle]))
        assert (vsm.tolist(), lines.tolist()) == ([0, 0], [5, 6])
        with pytest.raises(PredictionError, match="no LLC accesses"):
            collect_miss_rate_curve(WorkloadTrace("w", [idle]), config=cfg(1.0))

    def test_stats_accumulate(self):
        wl = sweep_workload(100, num_ctas=4, apw=8)
        vsm, lines = interleaved_stream(wl, 2, 2)
        assert len(lines) == wl.count_accesses() == 4 * 2 * 8
        assert wl.count_instructions(1) == 4 * 2 * 8 * 2  # compute 1 + access
        # CTAs go to virtual SMs round-robin, all four in one window.
        assert np.bincount(vsm).tolist() == [32, 32]

    def test_ctas_of_a_window_take_turns_of_32(self):
        # Three CTAs of one warp each, 40 / 70 / 5 accesses, two per window.
        def build(cta_id):
            n = (40, 70, 5)[cta_id]
            return [([0] * n, [100 * cta_id + i for i in range(n)], 0, 0.0)]

        wl = WorkloadTrace("w", [hand_kernel("k", 32, [build(c) for c in range(3)])])
        vsm, lines = interleaved_stream(wl, 2, 1)
        assert lines.tolist() == (
            list(range(0, 32)) + list(range(100, 132))
            + list(range(32, 40)) + list(range(132, 164))
            + list(range(164, 170))
            + list(range(200, 205))
        )
        assert vsm.tolist() == (
            [0] * 32 + [1] * 32 + [0] * 8 + [1] * 32 + [1] * 6 + [0] * 5
        )


class TestCollector:
    def test_cliff_appears_at_working_set(self):
        # A 3 MB cyclic working set swept ~3.3 times: the 2.125 MB cache
        # thrashes; 4.25 MB and above keep it entirely (cold misses only).
        ws = int(3 * MB / 128)
        wl = sweep_workload(ws, num_ctas=256, apw=160)
        curve = collect_miss_rate_curve(wl, config=cfg(1.0))
        # Thrashing at 2.125 MB, cold-misses-only from 4.25 MB upward.
        assert curve.mpki[0] > 1.8 * curve.mpki[1]
        assert curve.mpki[1] == pytest.approx(curve.mpki[4], rel=0.05)
        cold_only = 1000.0 * (3 * MB / 128) / curve.metadata["thread_instructions"]
        assert curve.mpki[4] == pytest.approx(cold_only, rel=0.05)

    def test_methods_agree_exact(self):
        # The independent LRU simulation against the stack distances: on a
        # synthetic sweep, then on every Table II benchmark at quarter scale.
        def cases():
            yield sweep_workload(2000, num_ctas=64, apw=32), cfg(1.0)
            config = GPUConfig.paper_baseline()
            for abbr in strong_scaling_names():
                yield build_trace(
                    get_benchmark(abbr), work_scale=0.25,
                    capacity_scale=config.capacity_scale,
                ), config

        for wl, config in cases():
            stack = collect_miss_rate_curve(wl, config=config, method="stack")
            lru = collect_miss_rate_curve(wl, config=config, method="lru")
            assert stack.mpki == lru.mpki, wl.name

    def test_statstack_close_to_exact(self):
        def build(cta_id):
            rng = np.random.default_rng(cta_id)
            lines = rng.integers(0, 60000, 64).tolist()
            return [([1] * 64, lines, 0, 0.0)]

        ctas = [build(c) for c in range(128)]
        wl = WorkloadTrace("rand", [hand_kernel("k", 32, ctas)])
        stack = collect_miss_rate_curve(wl, config=cfg(1.0), method="stack")
        stat = collect_miss_rate_curve(wl, config=cfg(1.0), method="statstack")
        for a, b in zip(stack.mpki, stat.mpki):
            assert b == pytest.approx(a, rel=0.25, abs=0.1)

    def test_bypass_lines_always_miss(self):
        def build(cta_id):
            lines = [BYPASS_BASE + cta_id * 8 + i for i in range(8)]
            return [([1] * 8, lines, 0, 0.0)]

        ctas = [build(c) for c in range(16)]
        wl = WorkloadTrace("byp", [hand_kernel("k", 32, ctas)])
        curve = collect_miss_rate_curve(wl, config=cfg(1.0))
        # Identical MPKI at every capacity, and every access misses.
        assert len(set(curve.mpki)) == 1
        assert curve.miss_ratio[0] == pytest.approx(1.0)

    def test_custom_capacities(self):
        wl = sweep_workload(1000, num_ctas=16, apw=16)
        curve = collect_miss_rate_curve(
            wl, capacities_bytes=[1 * MB, 2 * MB], config=cfg(1.0)
        )
        assert curve.capacities_bytes == (1 * MB, 2 * MB)

    def test_metadata(self):
        wl = sweep_workload(1000, num_ctas=16, apw=16)
        curve = collect_miss_rate_curve(wl, config=cfg(1.0))
        md = curve.metadata
        assert md["l1_accesses"] == 16 * 2 * 16
        assert md["thread_instructions"] == 16 * 2 * 16 * 2 * 32
        assert md["collection_seconds"] >= 0

    def test_unknown_method(self):
        wl = sweep_workload(100, num_ctas=4, apw=8)
        with pytest.raises(PredictionError):
            collect_miss_rate_curve(wl, config=cfg(1.0), method="magic")

    def test_invalid_capacity(self):
        wl = sweep_workload(100, num_ctas=4, apw=8)
        with pytest.raises(PredictionError):
            collect_miss_rate_curve(wl, capacities_bytes=[0], config=cfg(1.0))
        with pytest.raises(PredictionError):
            collect_miss_rate_curve(
                wl, capacities_bytes=np.array([1 * MB, -1]), config=cfg(1.0)
            )

    @pytest.mark.parametrize("make", [np.array, tuple], ids=["ndarray", "tuple"])
    def test_capacities_as_any_sequence(self, make):
        wl = sweep_workload(1000, num_ctas=16, apw=16)
        expected = collect_miss_rate_curve(
            wl, capacities_bytes=[1 * MB, 2 * MB], config=cfg(1.0)
        )
        curve = collect_miss_rate_curve(
            wl, capacities_bytes=make([1 * MB, 2 * MB]), config=cfg(1.0)
        )
        assert curve.capacities_bytes == (1 * MB, 2 * MB)
        assert all(type(c) is int for c in curve.capacities_bytes)
        assert curve.mpki == expected.mpki

    @pytest.mark.parametrize("empty", [(), [], np.array([])])
    def test_no_capacities_means_the_paper_points(self, empty):
        wl = sweep_workload(1000, num_ctas=16, apw=16)
        curve = collect_miss_rate_curve(wl, capacities_bytes=empty, config=cfg(1.0))
        assert list(curve.capacities_bytes) == paper_capacity_points(cfg(1.0))

    def test_method_is_checked_before_any_work(self):
        def compiled():
            raise AssertionError("the trace must not be generated")

        wl = WorkloadTrace("w", [KernelTrace("k", 32, compiled)])
        with pytest.raises(PredictionError, match="magic"):
            collect_miss_rate_curve(wl, config=cfg(1.0), method="magic")
