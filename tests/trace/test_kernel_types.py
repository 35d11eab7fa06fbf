"""Trace data-type tests."""

import pytest

from repro.exceptions import TraceError
from repro.trace.kernel import CompiledKernel, KernelTrace, WorkloadTrace


def warp(n=3, compute=2):
    return ([compute] * n, list(range(n)), 0, 0.0)


def kernel(ctas, name="k", threads=64):
    compiled = CompiledKernel.from_warps(ctas)
    return KernelTrace(name, threads, lambda: compiled)


class TestFromWarps:
    def test_instruction_count(self):
        compiled = CompiledKernel.from_warps([[([2, 3], [10, 20], 4, 0.0)]])
        assert compiled.warp_instructions == 2 + 3 + 2 + 4
        assert len(compiled.lines) == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(TraceError, match="equal length"):
            CompiledKernel.from_warps([[([1, 2], [10], 0, 0.0)]])

    def test_empty_warp_allowed(self):
        compiled = CompiledKernel.from_warps([[([], [], 5, 0.0)]])
        assert compiled.warp_instructions == 5
        assert len(compiled.lines) == 0

    def test_aggregates(self):
        compiled = CompiledKernel.from_warps([[warp(3), warp(2)]])
        assert compiled.cta_bounds.tolist() == [0, 2]
        assert compiled.warp_bounds.tolist() == [0, 3, 5]
        assert compiled.warp_instructions == (3 * 3) + (2 * 3)

    def test_empty_cta_rejected(self):
        with pytest.raises(TraceError, match="CTA 1 has no warps"):
            CompiledKernel.from_warps([[warp()], []])

    @pytest.mark.parametrize(
        "bad, match",
        [
            (([1.5], [0], 0, 0.0), "compute burst 1.5"),
            (([1], [float("nan")], 0, 0.0), "line address nan"),
            (([1], [float("inf")], 0, 0.0), "line address inf"),
            (([1], ["a"], 0, 0.0), "line address 'a'"),
            (([1], [0], 0.5, 0.0), "tail 0.5"),
        ],
        ids=["fractional-compute", "nan-line", "inf-line", "str-line",
             "fractional-tail"],
    )
    def test_non_integral_values_rejected(self, bad, match):
        with pytest.raises(TraceError, match=match):
            CompiledKernel.from_warps([[warp()], [bad]])

    def test_packs_in_cta_then_warp_order(self):
        compiled = CompiledKernel.from_warps([
            [([1, 2], [10, 11], 3, 0.0), ([], [], 0, 2.5)],
            [([4], [12], 1, 7.0)],
        ])
        assert compiled.lines.tolist() == [10, 11, 12]
        assert compiled.compute.tolist() == [1, 2, 4]
        assert compiled.tails.tolist() == [3, 0, 1]
        assert compiled.offsets.tolist() == [0.0, 2.5, 7.0]
        assert compiled.warp_bounds.tolist() == [0, 2, 2, 3]
        assert compiled.cta_bounds.tolist() == [0, 2, 3]


class TestKernelTrace:
    def test_num_ctas_from_cta_bounds(self):
        assert kernel([[warp()]] * 3).num_ctas == 3

    def test_validation(self):
        with pytest.raises(TraceError, match="at least one CTA"):
            kernel([])
        with pytest.raises(TraceError):
            kernel([[warp()]], threads=0)


class TestWorkloadTrace:
    def _workload(self):
        k = kernel([[warp(2), warp(2)]] * 2)
        return WorkloadTrace("w", [k, k])

    def test_counts(self):
        wl = self._workload()
        assert wl.num_ctas == 4
        assert wl.count_accesses() == 4 * 2 * 2
        # each warp: 2 accesses x (2 compute + 1) = 6 warp instructions
        assert wl.count_instructions(32) == 4 * 2 * 6 * 32

    def test_empty_workload_rejected(self):
        with pytest.raises(TraceError):
            WorkloadTrace("w", [])
