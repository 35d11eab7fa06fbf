"""The simulation kernel: clock plus event loop.

There is one run loop.  Observability is a site in it — per-``run()``
accounting behind ``get_tracer().enabled``, read once per call, never
per event — and paranoia mode is the queue the kernel picks at
construction: a :class:`~repro.engine.event.CheckedEventQueue` when
``repro.verify.runtime.paranoid`` is on, whose ``pop_entry`` carries the
per-event checks, and the plain queue otherwise.
"""

from __future__ import annotations

import time as _time
from typing import Any, Callable, Optional

from repro.engine.event import CheckedEventQueue, Event, EventQueue
from repro.exceptions import SimulationError
from repro.obs.metrics import get_registry
from repro.obs.tracing import get_tracer
from repro.verify import runtime as verify_runtime


class SimulationKernel:
    """A discrete-event simulation clock.

    The kernel owns the global clock (in cycles, as a float so fractional
    service times compose without rounding drift) and the event queue.
    Model components schedule callbacks with :meth:`schedule` (relative
    delay) or :meth:`schedule_at` (absolute time) and the loop in
    :meth:`run` fires them in deterministic time order.
    """

    def __init__(self) -> None:
        # Picked once: a kernel is checked iff paranoia mode is on now.
        self._queue = (
            CheckedEventQueue(self) if verify_runtime.paranoid else EventQueue()
        )
        #: Current simulation time in cycles.  A plain attribute, not a
        #: property: every model callback reads it once per event.
        self.now = 0.0
        self._events_processed = 0
        self._running = False
        #: Handle-free ``post(time, callback, args)`` at an absolute time,
        #: for model components whose event times are monotone by
        #: construction: no past-time check, no :class:`Event` allocated.
        self.post = self._queue.post

    # --- clock ---------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Number of events fired so far; a deterministic work proxy."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    # --- scheduling ------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback`` to fire ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._queue.push(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback`` at absolute ``time`` cycles."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        return self._queue.push(time, callback, *args)

    # --- execution ------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Fire events until the queue drains, ``until`` passes, or
        ``max_events`` have been processed this call.

        ``until`` is inclusive: an event at exactly ``until`` still fires.
        """
        self._running = True
        fired = 0
        queue = self._queue
        tracer = get_tracer()
        recording = tracer.enabled
        start = _time.perf_counter() if recording else 0.0
        try:
            while self._running:
                if max_events is not None and fired >= max_events:
                    break
                popped = queue.pop_entry()
                if popped is None:
                    break
                time = popped[0]
                if until is not None and time > until:
                    # Re-insert the *same* entry list: its seq keeps the
                    # FIFO slot among same-time events, and Event handles
                    # wrapping it stay live (cancellable) across the pause.
                    queue.push_entry(
                        time, popped[2], popped[3], seq=popped[1], entry=popped
                    )
                    self.now = until
                    break
                self.now = time
                # Count before firing: boundary state is read *inside* a
                # callback (kernel boundaries), and it must include the
                # event that carried the simulation there.
                self._events_processed += 1
                popped[2](*popped[3])
                fired += 1
        finally:
            self._running = False
            if recording:
                duration_us = (_time.perf_counter() - start) * 1e6
                registry = get_registry()
                registry.inc("engine.events", fired)
                registry.observe("engine.run_us", duration_us)
                tracer.complete(
                    "engine.run", "kernel",
                    tracer.now_us() - duration_us, duration_us,
                    args={"events": fired},
                )

    def stop(self) -> None:
        """Ask a running :meth:`run` loop to return after the current event."""
        self._running = False

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero.

        The event queue's sequence counter rewinds with it: a reset
        kernel must be indistinguishable from a fresh one, or boundary
        state read after a reset carries a different ``queue_seq`` and
        bit-identical state comparison across resets breaks.
        """
        self._queue.reset()
        self.now = 0.0
        self._events_processed = 0

    # --- boundary state ---------------------------------------------------------
    def state_dict(self) -> dict:
        """Clock state, read with an *empty* event queue.

        Callbacks cannot be serialized, so boundary state is only defined
        at points where no events are pending (kernel boundaries in the
        GPU model); the queue's seq counter is included because it
        decides the order of every later same-time event.
        """
        if len(self._queue):
            raise SimulationError(
                f"cannot snapshot the clock with {len(self._queue)} "
                "events pending"
            )
        return {
            "now": self.now,
            "events_processed": self._events_processed,
            "queue_seq": self._queue.seq,
        }
