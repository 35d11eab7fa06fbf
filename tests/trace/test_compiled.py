"""Compiled traces: flat per-kernel arrays behind ``build_cta``.

``build_trace`` generates each kernel's CTAs once into a
:class:`~repro.trace.kernel.CompiledKernel` and keeps the most recent
trace's kernels in a single-entry slot.  Three things must hold: the
arrays replay exactly what CTA-at-a-time generation produces, the slot
is hit only by an identical request, and nothing handed to a caller
aliases the shared arrays.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.mrc.interleave import StreamStats, iter_interleaved
from repro.trace import trace_digest
from repro.trace.kernel import (
    CompiledKernel, CTATrace, KernelTrace, WarpTrace, WorkloadTrace,
)
from repro.workloads import build_trace, generators, get_benchmark
from tests.workloads.test_determinism_digest import SEED, WORK_SCALE, _specs


def lazy_digest(spec, work_scale, capacity_scale, seed) -> str:
    """``trace_digest`` of CTA-at-a-time generation, no compilation.

    Runs each family's per-CTA builder one CTA at a time and hashes what
    it returns with ``trace_digest``'s scheme — the lazy generator the
    compiled arrays replaced, kept here as the reference.
    """
    ctx = generators._TraceContext(spec, work_scale, capacity_scale, seed)
    hasher = hashlib.sha256()
    for k, shape in enumerate(spec.kernels):
        num_ctas = generators._clamped_ctas(shape, work_scale)
        build = generators._FAMILIES[spec.family](ctx, shape, k, num_ctas)
        name = f"{spec.abbr}-k{k}"
        hasher.update(repr((name, num_ctas, shape.threads_per_cta)).encode())
        for cta_id in range(num_ctas):
            lines, compute, lengths, offsets = build(cta_id)
            start = 0
            for length, offset in zip(lengths, offsets):
                hasher.update(lines[start : start + length].tobytes())
                hasher.update(compute[start : start + length].tobytes())
                hasher.update(repr((0, offset)).encode())
                start += length
    return "sha256:" + hasher.hexdigest()


@pytest.mark.parametrize("family", sorted(generators._FAMILIES))
def test_compiled_trace_digests_like_lazy_generation(family):
    spec = _specs()[family]
    trace = build_trace(spec, work_scale=WORK_SCALE, seed=SEED)
    assert trace_digest(trace) == lazy_digest(spec, WORK_SCALE, 0.125, SEED)


class TestSlot:
    ARGS = dict(work_scale=0.05, capacity_scale=0.125, seed=3)

    def compiled(self, spec, **changes):
        trace = build_trace(spec, **{**self.ARGS, **changes})
        return [kernel.compiled() for kernel in trace.kernels]

    def test_identical_request_reuses_the_arrays(self):
        spec = get_benchmark("gr")  # four kernels
        first = self.compiled(spec)
        again = self.compiled(spec)
        assert all(a is b for a, b in zip(first, again))

    @pytest.mark.parametrize(
        "changes",
        [dict(work_scale=0.06), dict(capacity_scale=0.25), dict(seed=4)],
    )
    def test_any_differing_argument_misses(self, changes):
        spec = get_benchmark("va")
        first = self.compiled(spec)
        other = self.compiled(spec, **changes)
        assert all(a is not b for a, b in zip(first, other))
        # ...and the slot now holds `other`: the first request misses too.
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

    def test_build_cta_never_aliases(self):
        trace = build_trace(get_benchmark("va"), **self.ARGS)
        kernel = trace.kernels[0]
        cta = kernel.build_cta(0)
        pristine = [(list(w.lines), list(w.compute)) for w in cta.warps]
        for warp in cta.warps:
            warp.lines[0] = -1
            warp.compute.clear()
        fresh = kernel.build_cta(0)
        assert [(w.lines, w.compute) for w in fresh.warps] == pristine
        assert all(
            a.lines is not b.lines for a, b in zip(cta.warps, fresh.warps)
        )
        # The slot's next user sees the original arrays too.
        again = build_trace(get_benchmark("va"), **self.ARGS).kernels[0]
        assert [(w.lines, w.compute) for w in again.build_cta(0).warps] == pristine


class TestCompiledKernel:
    def ragged(self):
        """Hand-built CTAs with unequal warp counts and lengths."""
        return [
            CTATrace(0, [WarpTrace([1, 2], [10, 11], tail_compute=3),
                         WarpTrace([], [], start_offset=2.5)]),
            CTATrace(1, [WarpTrace([4], [12], tail_compute=1, start_offset=7.0)]),
        ]

    def test_from_ctas_round_trips(self):
        ctas = self.ragged()
        compiled = CompiledKernel.from_ctas(ctas)
        assert [compiled.build_cta(i) for i in range(2)] == ctas
        assert compiled.warp_instructions == sum(c.warp_instructions for c in ctas)
        assert [w.tolist() for w in compiled.warp_lines(0)] == [[10, 11], []]

    def test_kernel_without_arrays_compiles_from_build_cta(self):
        ctas = self.ragged()
        kernel = KernelTrace("k", 2, 64, ctas.__getitem__)
        assert kernel.compiled().lines.tolist() == [10, 11, 12]

    def test_interleaving_reads_the_arrays(self):
        ctas = self.ragged()
        wl = WorkloadTrace("w", [KernelTrace("k", 2, 64, ctas.__getitem__)])
        stats = StreamStats()
        chunks = list(iter_interleaved(wl, 2, 1, stats=stats))
        assert sorted(np.concatenate([c for __, c in chunks]).tolist()) == [10, 11, 12]
        assert (stats.ctas, stats.accesses) == (2, 3)
        assert stats.warp_instructions == sum(c.warp_instructions for c in ctas)
