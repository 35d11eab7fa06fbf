"""Work-counter gate on the simulator's per-event path.

Python calls per simulated event is a deterministic count — it repeats
exactly on every host — so it gates at ±0 where a wall-clock timer could
not: a change that puts a layer back between the event loop and the
memory model fails here instead of hiding in timing noise.  The count is
taken the way the perf benchmark's ``engine.calls_per_event`` probe
takes it (``call`` and ``c_call`` profile events over one
``compute_sim(va, 8, 0.05, 0)``, trace generation included).
"""

import sys

from repro.analysis.runner import compute_sim
from repro.workloads import build_trace, get_benchmark

#: The simulator's own event loop measures 6.71 when the trace has to be
#: generated inside the run (8.77 while each step was a callback posted
#: on a separate event kernel, 28.0 before the path was flattened, 13.2
#: while traces were generated CTA by CTA, 11.09 while the random draws
#: were made per CTA and per warp, 10.62 with the event-queue objects and
#: per-access hashing and jitter).  The gate leaves room for another
#: NumPy's wrappers — not for one more call per event.
CALLS_PER_EVENT_BUDGET = 7.0


def test_calls_per_event_within_budget():
    va = get_benchmark("va")
    # Whatever ran before, the run below generates its own trace: asking
    # for a different one empties the compiled-trace slot, and generating
    # it imports what NumPy loads on first use.
    build_trace(va, work_scale=0.04).kernels[0].compiled()
    calls = [0]

    def count(frame, event, arg):
        if event in ("call", "c_call"):
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = compute_sim(va, 8, 0.05, 0)
    finally:
        sys.setprofile(previous)
    # The flattening changed how much Python runs per event, never the
    # events themselves.
    assert result.events == 11480
    assert calls[0] / result.events <= CALLS_PER_EVENT_BUDGET
