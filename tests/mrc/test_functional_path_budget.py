"""Work-counter gate on the functional (trace → miss-rate curve) path.

Python calls per L1 access is a deterministic count, so it gates where a
wall-clock timer could not, in the style of
``tests/engine/test_hot_path_budget.py``: the functional path runs on
whole arrays — generation included, which makes a few sized random draws
per kernel — and a change that brings back a Python call per warp or per
access, in generation, interleaving, L1 filtering or stack-distance
counting, fails here instead of hiding in timing noise.
"""

import sys

from repro.analysis.runner import compute_mrc
from repro.workloads import build_trace, get_benchmark

#: Generating the trace and collecting the exact curve measures 0.283
#: calls per L1 access (10.1 when both ran one CTA / one access at a
#: time, 0.84 while the draws were made per CTA and per warp): a fixed
#: ~2,700 calls of array operations (16 virtual SMs x radix levels),
#: which is also what a collection on an already generated trace costs
#: (0.274), plus ~85 to generate the one kernel.  The gate leaves room
#: for another NumPy's Python wrappers — not for one call per warp.
CALLS_PER_ACCESS_BUDGET = 0.33


def test_calls_per_l1_access_within_budget():
    va = get_benchmark("va")
    # Whatever ran before, the collection below generates its own trace:
    # asking for a different one empties the compiled-trace slot, and
    # generating it imports what NumPy loads on first use.
    build_trace(va, work_scale=0.04).kernels[0].compiled()
    calls = [0]

    def count(frame, event, arg):
        if event in ("call", "c_call"):
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        curve = compute_mrc(va, 0.05, "stack", 0)
    finally:
        sys.setprofile(previous)
    # Going array-at-a-time changed how much Python runs per access,
    # never the accesses themselves.
    assert curve.metadata["l1_accesses"] == 9840
    assert calls[0] / curve.metadata["l1_accesses"] <= CALLS_PER_ACCESS_BUDGET
