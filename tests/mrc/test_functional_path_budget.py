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

import numpy as np

from repro.analysis.runner import compute_mrc
from repro.mrc.collector import l1_miss_mask
from repro.workloads import build_trace, get_benchmark

#: Generating the trace and collecting the exact curve measures 0.0699
#: calls per L1 access on va (10.1 when both ran one CTA / one access at
#: a time, 0.84 while the draws were made per CTA and per warp, 0.283
#: while the L1 filter ran a radix stack-distance pass per virtual SM):
#: a fixed ~600 calls of array operations — one L1-filter pass for all
#: 16 virtual SMs, its window scan and the LLC stack-distance radix
#: levels — plus ~85 to generate the one kernel.  btree's windows take
#: more scan offsets (0.103).  Each gate is the measurement plus ~15 %,
#: room for another NumPy's Python wrappers — not for one call per warp.
CALLS_PER_ACCESS_BUDGET = 0.08
BTREE_CALLS_PER_ACCESS_BUDGET = 0.12

#: One window of 20,000 references over two lines: the scan stops after
#: a fixed number of offsets (0.014 calls per access), where one pass per
#: window position would make ~0.5.
LONG_WINDOW_CALLS_PER_ACCESS_BUDGET = 0.016


def count_calls(fn):
    """``fn()`` and the Python calls it made."""
    calls = [0]

    def count(frame, event, arg):
        if event in ("call", "c_call"):
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
    return result, calls[0]


def calls_per_l1_access(abbr, accesses):
    spec = get_benchmark(abbr)
    # Whatever ran before, the collection below generates its own trace:
    # asking for a different one empties the compiled-trace slot, and
    # generating it imports what NumPy loads on first use.
    build_trace(spec, work_scale=0.04).kernels[0].compiled()
    curve, calls = count_calls(lambda: compute_mrc(spec, 0.05, "stack", 0))
    # Going array-at-a-time changed how much Python runs per access,
    # never the accesses themselves.
    assert curve.metadata["l1_accesses"] == accesses
    return calls / accesses


def test_calls_per_l1_access_within_budget():
    assert calls_per_l1_access("va", 9840) <= CALLS_PER_ACCESS_BUDGET


def test_btree_calls_per_l1_access_within_budget():
    assert calls_per_l1_access("btree", 9264) <= BTREE_CALLS_PER_ACCESS_BUDGET


def test_long_window_scan_is_bounded():
    # Line 0, 20,000 references to two other lines of its set, line 0:
    # a hit that no fixed number of scan offsets can decide.
    others = np.random.default_rng(0).integers(1, 3, size=20_000) * 8
    lines = np.concatenate(([0], others, [0])).astype(np.int64)
    vsm = np.zeros(len(lines), dtype=np.int16)
    l1_miss_mask(vsm, lines, 8, 6)  # NumPy's first-use imports
    mask, calls = count_calls(lambda: l1_miss_mask(vsm, lines, 8, 6))
    assert not mask[-1]
    assert calls / len(lines) <= LONG_WINDOW_CALLS_PER_ACCESS_BUDGET
