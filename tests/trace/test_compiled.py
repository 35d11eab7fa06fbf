"""Compiled traces: the flat per-kernel arrays.

``build_trace`` generates each kernel whole into a
:class:`~repro.trace.kernel.CompiledKernel` on its first ``compiled()``
read; later reads of the same trace share it, and nothing is shared
between two ``build_trace`` calls.
"""

from dataclasses import replace

import pytest

from repro.mrc.interleave import interleaved_stream
from repro.trace import trace_digest
from repro.trace.kernel import CompiledKernel, KernelTrace, WorkloadTrace
from repro.workloads import build_trace, get_benchmark
from tests.workloads.test_determinism_digest import _specs


class TestSlot:
    ARGS = dict(work_scale=0.05, capacity_scale=0.125, seed=3)

    def compiled(self, spec, **changes):
        trace = build_trace(spec, **{**self.ARGS, **changes})
        return [kernel.compiled() for kernel in trace.kernels]

    def test_repeated_reads_of_one_trace_reuse_the_arrays(self):
        trace = build_trace(get_benchmark("gr"), **self.ARGS)  # four kernels
        first = [kernel.compiled() for kernel in trace.kernels]
        again = [kernel.compiled() for kernel in trace.kernels]
        assert all(a is b for a, b in zip(first, again))
        assert trace_digest(trace) == trace_digest(
            build_trace(get_benchmark("gr"), **self.ARGS)
        )

    @pytest.mark.parametrize(
        "changes",
        [dict(work_scale=0.06), dict(capacity_scale=0.25), dict(seed=4)],
    )
    def test_any_differing_argument_misses(self, changes):
        spec = get_benchmark("va")
        first = self.compiled(spec)
        other = self.compiled(spec, **changes)
        assert all(a is not b for a, b in zip(first, other))
        # ...and a fresh identical request generates its own arrays too.
        assert all(a is not b for a, b in zip(first, self.compiled(spec)))

    def test_differing_spec_misses(self):
        first = self.compiled(get_benchmark("va"))
        assert self.compiled(get_benchmark("dct"))[0] is not first[0]
        # Same abbreviation, one parameter apart.
        generated = _specs()["generated"]
        a = self.compiled(generated)
        b = self.compiled(replace(generated, gen_seed=generated.gen_seed + 1))
        assert a[0] is not b[0]

    def test_an_evicted_trace_keeps_working(self):
        spec = get_benchmark("va")
        trace = build_trace(spec, **self.ARGS)
        expected = trace_digest(trace)
        build_trace(get_benchmark("dct"), **self.ARGS).kernels[0].compiled()
        assert trace_digest(trace) == expected


class TestCompiledKernel:
    def ragged(self):
        """Hand-built CTAs with unequal warp counts and lengths."""
        return CompiledKernel.from_warps([
            [([1, 2], [10, 11], 3, 0.0), ([], [], 0, 2.5)],
            [([4], [12], 1, 7.0)],
        ])

    def test_interleaving_reads_the_arrays(self):
        compiled = self.ragged()
        wl = WorkloadTrace("w", [KernelTrace("k", 64, lambda: compiled)])
        vsm, lines = interleaved_stream(wl, 2, 1)
        assert (vsm.tolist(), lines.tolist()) == ([0, 0, 1], [10, 11, 12])
        assert wl.count_instructions(1) == (1 + 2 + 2 + 3) + (4 + 1 + 1)
