"""Compiled traces: flat per-kernel arrays behind ``build_cta``.

``build_trace`` generates each kernel whole into a
:class:`~repro.trace.kernel.CompiledKernel` and keeps the most recent
trace's kernels in a single-entry slot.  Three things must hold:
``build_cta`` replays exactly what the arrays hold, the slot is hit only
by an identical request, and nothing handed to a caller aliases the
shared arrays.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.mrc.interleave import interleaved_stream
from repro.trace import trace_digest
from repro.trace.kernel import (
    CompiledKernel, CTATrace, KernelTrace, WarpTrace, WorkloadTrace,
)
from repro.workloads import build_trace, generators, get_benchmark
from tests.workloads.test_determinism_digest import SEED, WORK_SCALE, _specs


def array_digest(trace) -> str:
    """``trace_digest``'s hash taken straight from the compiled arrays.

    ``trace_digest`` walks ``build_cta`` one CTA at a time; this reads the
    same warps out of the flat arrays without building anything.
    """
    hasher = hashlib.sha256()
    for kernel in trace.kernels:
        hasher.update(
            repr((kernel.name, kernel.num_ctas, kernel.threads_per_cta)).encode()
        )
        compiled = kernel.compiled()
        bounds = compiled.warp_bounds.tolist()
        tails, offsets = compiled.tails.tolist(), compiled.offsets.tolist()
        for warp, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            hasher.update(compiled.lines[lo:hi].tobytes())
            hasher.update(compiled.compute[lo:hi].tobytes())
            hasher.update(repr((tails[warp], offsets[warp])).encode())
    return "sha256:" + hasher.hexdigest()


@pytest.mark.parametrize("family", sorted(generators._FAMILIES))
def test_compiled_trace_digests_like_lazy_generation(family):
    # What the generators themselves must produce is pinned across commits
    # in tests/workloads/test_trace_pins.py; here, CTA-at-a-time
    # materialisation must replay exactly what the arrays hold.
    trace = build_trace(_specs()[family], work_scale=WORK_SCALE, seed=SEED)
    assert trace_digest(trace) == array_digest(trace)


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
        assert compiled.warp_bounds.tolist() == [0, 2, 2, 3]
        assert compiled.cta_bounds.tolist() == [0, 2, 3]

    def test_kernel_without_arrays_compiles_from_build_cta(self):
        ctas = self.ragged()
        kernel = KernelTrace("k", 2, 64, ctas.__getitem__)
        assert kernel.compiled().lines.tolist() == [10, 11, 12]

    def test_interleaving_reads_the_arrays(self):
        ctas = self.ragged()
        wl = WorkloadTrace("w", [KernelTrace("k", 2, 64, ctas.__getitem__)])
        vsm, lines = interleaved_stream(wl, 2, 1)
        assert (vsm.tolist(), lines.tolist()) == ([0, 0, 1], [10, 11, 12])
        assert wl.count_instructions(1) == sum(c.warp_instructions for c in ctas)
