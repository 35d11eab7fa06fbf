"""Cost gate on the exact-LRU reference: an eviction costs O(1).

On a stream with no reuse every access misses and every miss past the
first ``capacity`` evicts, so the reference's time on it may grow with
capacity only if eviction does.  A cache kept as a plain ``dict`` and
evicted with ``del d[next(iter(d))]`` fails here: each deletion leaves a
dummy slot at the front of the dict's entries array until the next
resize, and ``next(iter(d))`` walks past all of them.  The gate compares
two timings taken in one process, interleaved, keeping each side's
minimum, so a busy host slows both sides rather than one.
"""

import time

import numpy as np

from repro.mrc.stack_distance import lru_misses

#: On a 2-vCPU host the plain-dict oracle measured 13.8x (40.0 ms at 16
#: lines, 553.9 ms at 16,384) and the ``OrderedDict`` one 1.06-1.32x.
MAX_RATIO = 3.0


def test_eviction_cost_does_not_grow_with_capacity():
    stream = np.arange(60_000, dtype=np.int64)
    best = {16: float("inf"), 16_384: float("inf")}
    for __ in range(3):
        for capacity in best:
            start = time.perf_counter()
            misses = lru_misses(stream, [capacity])
            best[capacity] = min(best[capacity], time.perf_counter() - start)
            assert misses == [len(stream)]
    assert best[16_384] <= MAX_RATIO * best[16], best
