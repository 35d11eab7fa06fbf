"""Work-counter gate on the functional (trace → miss-rate curve) path.

Python calls per L1 access is a deterministic count, so it gates where a
wall-clock timer could not, in the style of
``tests/engine/test_hot_path_budget.py``: the functional path runs on
whole arrays — per-CTA random draws are the only Python-level loop left —
and a change that brings back a Python call per access, in generation,
interleaving, L1 filtering or stack-distance counting, fails here instead
of hiding in timing noise.
"""

import sys

from repro.analysis.runner import compute_mrc
from repro.workloads import build_trace, get_benchmark

#: Generating the trace and collecting the exact curve measures 1.17
#: calls per L1 access (10.1 when both ran one CTA / one access at a
#: time): 0.9 for the four draws per warp, the rest a fixed ~2,700 calls
#: of array operations (16 virtual SMs x radix levels), which is also all
#: a collection on an already generated trace costs (0.27; was 6.7).  The
#: gate leaves room for another NumPy's Python wrappers — not for one
#: call per access.
CALLS_PER_ACCESS_BUDGET = 1.5


def test_calls_per_l1_access_within_budget():
    va = get_benchmark("va")
    # Whatever ran before, the collection below generates its own trace:
    # asking for a different one empties the compiled-trace slot.
    build_trace(va, work_scale=0.04)
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
