"""Work-counter gate on trace generation.

A kernel is generated in a few sized random draws and whole-array
arithmetic, so the Python calls it takes are a constant of the family,
not a function of the grid: a loop over CTAs or warps, anywhere in
generation, makes the count grow with the CTA count and fails here.
"""

import sys

import pytest

from repro.workloads import build_trace
from tests.workloads.test_determinism_digest import _specs

#: Two work scales whose grids differ by about 5x in CTAs.
SMALL, LARGE = 0.05, 0.25


def calls_to_compile(kernel):
    calls = [0]

    def count(frame, event, arg):
        if event in ("call", "c_call"):
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        kernel.compiled()
    finally:
        sys.setprofile(previous)
    return calls[0]


@pytest.mark.parametrize("family", sorted(_specs()))
def test_calls_to_generate_a_kernel_do_not_grow_with_its_grid(family):
    spec = _specs()[family]
    # Untimed: whatever a first generation imports lazily.
    build_trace(spec, work_scale=SMALL, seed=0).kernels[0].compiled()
    small, large = (
        build_trace(spec, work_scale=scale, seed=1).kernels[0]
        for scale in (SMALL, LARGE)
    )
    # Counted first: reading num_ctas generates the kernel.
    assert calls_to_compile(large) == calls_to_compile(small)
    assert large.num_ctas >= 4 * small.num_ctas
