"""The simulation kernel: clock plus event loop.

The event queue is a heap of ``(time, seq, callback, arg)`` tuples owned
by the kernel.  The unique ``seq`` keeps tuple comparison from ever
reaching the callback and gives deterministic FIFO order among
same-time events.  Every pushed event is popped — nothing is cancelled —
so the number of events fired is ``seq - len(heap)``.

There is one run loop.  Observability is a site in it — per-``run()``
accounting behind ``get_tracer().enabled``, read once per call, never
per event.  Paranoia mode is bound at construction: a kernel built while
``repro.verify.runtime.paranoid`` is on posts through a checked ``post``
that refuses a past time and scans the heap every
:data:`QUEUE_CHECK_INTERVAL` posts, and its loop scans once more when it
drains.  An unchecked kernel carries no verification code per event.
"""

from __future__ import annotations

import time as _time
from heapq import heappop, heappush
from typing import Any, Callable, List, Tuple

from repro.exceptions import InvariantError, SimulationError
from repro.obs.metrics import get_registry
from repro.obs.tracing import get_tracer
from repro.verify import runtime as verify_runtime

#: Posts between full O(n) heap scans of a checked kernel.  Small enough
#: to localize a corruption to a tight event window, large enough that
#: paranoia mode stays usable on the quick tier.
QUEUE_CHECK_INTERVAL = 2048

Callback = Callable[[Any], None]


class SimulationKernel:
    """A discrete-event simulation clock.

    The kernel owns the global clock (in cycles, as a float so fractional
    service times compose without rounding drift) and the event heap.
    Model components schedule ``callback(arg)`` with :meth:`post`
    (absolute time) or :meth:`schedule` (relative delay) and :meth:`run`
    fires them in deterministic time order.
    """

    def __init__(self) -> None:
        self.heap: List[Tuple[float, int, Callback, Any]] = []
        #: Sequence number of the next posted event (boundary state).
        self.seq = 0
        #: Current simulation time in cycles.  A plain attribute, not a
        #: property: every model callback reads it once per event.
        self.now = 0.0
        # Picked once: a kernel is checked iff paranoia mode is on now.
        # The bound method makes a checked kernel a reference cycle;
        # paranoia mode is a debugging mode, and the collector frees it.
        self._checked = verify_runtime.paranoid
        if self._checked:
            self.post = self._checked_post

    @property
    def events_processed(self) -> int:
        """Number of events fired so far; a deterministic work proxy.

        Counted before the callback runs: boundary state is read inside a
        callback, and it includes the event that carried the simulation
        there.
        """
        return self.seq - len(self.heap)

    # --- scheduling ------------------------------------------------------------
    def post(self, time: float, callback: Callback, arg: Any = None) -> None:
        """Schedule ``callback(arg)`` at absolute ``time``.

        No past-time check: the model's event times are monotone by
        construction, and a checked kernel verifies that claim.
        """
        seq = self.seq
        self.seq = seq + 1
        heappush(self.heap, (time, seq, callback, arg))

    def _checked_post(self, time: float, callback: Callback, arg: Any = None) -> None:
        if time < self.now:
            raise InvariantError(
                f"clock would run backwards: event (time={time}, "
                f"seq={self.seq}) posted at now={self.now}"
            )
        SimulationKernel.post(self, time, callback, arg)
        verify_runtime.VERIFY_STATS["events_checked"] += 1
        if self.seq % QUEUE_CHECK_INTERVAL == 0:
            self._scan()

    def _scan(self) -> None:
        from repro.verify import invariants

        invariants.check_queue(self.heap)
        verify_runtime.VERIFY_STATS["queue_scans"] += 1

    def schedule(self, delay: float, callback: Callback, arg: Any = None) -> None:
        """Schedule ``callback(arg)`` to fire ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self.post(self.now + delay, callback, arg)

    # --- execution ------------------------------------------------------------
    def run(self) -> None:
        """Fire events in time order until the heap drains."""
        heap = self.heap
        tracer = get_tracer()
        recording = tracer.enabled
        if recording:
            start = _time.perf_counter()
            before = self.events_processed
        try:
            while heap:
                time, __, callback, arg = heappop(heap)
                self.now = time
                callback(arg)
        finally:
            if recording:
                duration_us = (_time.perf_counter() - start) * 1e6
                fired = self.events_processed - before
                registry = get_registry()
                registry.inc("engine.events", fired)
                registry.observe("engine.run_us", duration_us)
                tracer.complete(
                    "engine.run", "kernel",
                    tracer.now_us() - duration_us, duration_us,
                    args={"events": fired},
                )
        if self._checked:
            self._scan()
            verify_runtime.VERIFY_STATS["runs_checked"] += 1

    # --- boundary state ---------------------------------------------------------
    def state_dict(self) -> dict:
        """Clock state, read with an *empty* event heap.

        Callbacks cannot be serialized, so boundary state is only defined
        at points where no events are pending (kernel boundaries in the
        GPU model); the seq counter is included because it decides the
        order of every later same-time event.
        """
        if self.heap:
            raise SimulationError(
                f"cannot snapshot the clock with {len(self.heap)} "
                "events pending"
            )
        return {
            "now": self.now,
            "events_processed": self.events_processed,
            "queue_seq": self.seq,
        }
