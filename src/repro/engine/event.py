"""Event and event-queue primitives for the simulation kernel.

Heap entries are plain lists ``[time, seq, callback, args, in_heap]`` so
ordering comparisons run in C (tuple/list lexicographic compare); the
unique ``seq`` guarantees the comparison never reaches the callback and
gives deterministic FIFO ordering among same-time events.  :class:`Event`
is a thin handle wrapping the entry, kept for cancellation and
introspection.

Cancellation is lazy: a cancelled entry stays in the heap (marked dead
by a ``None`` callback) until a pop or peek compacts past it.  The queue
therefore tracks the *live* entry count separately — ``len(queue)``
reports only events that will still fire, so a queue holding nothing but
cancelled corpses is empty for every caller that matters (the kernel's
snapshot gate above all).

:class:`CheckedEventQueue` is the same queue with paranoia mode's
per-event checks in its ``pop_entry``; a kernel constructed while
``repro.verify.runtime.paranoid`` is on pops from one, so the kernel has
one run loop and the unchecked queue carries no verification code.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.exceptions import InvariantError
from repro.verify.runtime import VERIFY_STATS

#: Pops between full O(n) consistency scans of a :class:`CheckedEventQueue`.
#: Small enough to localize a corruption to a tight event window, large
#: enough that paranoia mode stays usable on the quick tier.
QUEUE_CHECK_INTERVAL = 2048

_TIME = 0
_SEQ = 1
_CALLBACK = 2
_ARGS = 3
# Whether the entry list currently sits in a queue's heap.  The unique
# seq at index 1 guarantees lexicographic comparison never reads this
# far, so the extra slot cannot affect heap ordering.  It lets
# ``Event.cancel`` decide whether the owning queue's live count must
# drop: cancelling an entry that was already popped (fired, or re-owned
# by the caller) must not touch the count.
_IN_HEAP = 4


class Event:
    """Handle to a scheduled callback; supports cancellation."""

    __slots__ = ("_entry", "_queue")

    def __init__(self, entry: list, queue: Optional["EventQueue"] = None) -> None:
        self._entry = entry
        self._queue = queue

    @property
    def time(self) -> float:
        return self._entry[_TIME]

    @property
    def seq(self) -> int:
        return self._entry[_SEQ]

    @property
    def cancelled(self) -> bool:
        return self._entry[_CALLBACK] is None

    def cancel(self) -> None:
        """Mark the event dead; the queue drops it instead of firing it."""
        entry = self._entry
        if entry[_CALLBACK] is None:
            return  # already cancelled; never double-decrement
        entry[_CALLBACK] = None
        entry[_ARGS] = ()
        if self._queue is not None and entry[_IN_HEAP]:
            self._queue._discard_live()

    def fire(self) -> None:
        """Invoke the callback now, unless the event was cancelled.

        An event cancelled *between* being popped and being fired (the
        pop hands ownership to the caller, so a model component may still
        hold a handle and cancel it) is a counted no-op — the owning
        queue's ``cancelled_fires`` tally — or, on a
        :class:`CheckedEventQueue`, a hard
        :class:`repro.exceptions.InvariantError`: the simulation kernel
        never fires through :class:`Event`, so a cancelled fire here
        means a model component is replaying a handle it gave up.
        """
        entry = self._entry
        callback = entry[_CALLBACK]
        if callback is None:
            if self._queue is not None:
                self._queue._cancelled_fire(entry)
            return
        callback(*entry[_ARGS])


class EventQueue:
    """A deterministic min-heap of scheduled callbacks.

    ``len(queue)`` counts *live* (uncancelled) events only; cancelled
    entries linger in the heap until compacted past but are invisible to
    every observer.
    """

    def __init__(self) -> None:
        self._heap: List[list] = []
        self._seq = 0
        self._live = 0
        #: Cancelled events whose handles were fired anyway (no-op'd).
        #: Telemetry only — never part of checkpoint state.
        self.cancelled_fires = 0

    def __len__(self) -> int:
        return self._live

    @property
    def seq(self) -> int:
        """Next sequence number to be assigned (checkpointable state)."""
        return self._seq

    @seq.setter
    def seq(self, value: int) -> None:
        self._seq = int(value)

    def _discard_live(self) -> None:
        """A live in-heap entry was cancelled; forget it from the count."""
        self._live -= 1

    def _cancelled_fire(self, entry: list) -> None:
        """A handle to a cancelled entry was fired anyway: count it."""
        self.cancelled_fires += 1

    def post(self, time: float, callback: Callable[..., None], args: tuple) -> list:
        """Schedule ``callback(*args)`` at absolute ``time`` without a handle.

        The push the simulator's per-event path uses: no :class:`Event`
        is allocated for callers that never cancel.  Returns the raw
        heap entry.
        """
        entry = [time, self._seq, callback, args, True]
        self._seq += 1
        heapq.heappush(self._heap, entry)
        self._live += 1
        return entry

    def push(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``; return a handle."""
        return Event(self.post(time, callback, args), self)

    def pop_entry(self) -> Optional[list]:
        """Remove and return the earliest live entry
        ``[time, seq, callback, args, ...]``, or ``None`` when the queue
        is empty.

        The *live* entry list is returned (its first four slots unpack
        exactly like the old ``(time, seq, callback, args)`` tuple) so a
        caller that re-inserts it (e.g. a horizon pause) can hand the
        same list back to :meth:`push_entry`; any :class:`Event` handle
        wrapping the entry then stays valid across the re-insert —
        ``cancel()`` keeps working.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            entry[_IN_HEAP] = False
            if entry[_CALLBACK] is not None:
                self._live -= 1
                return entry
        return None

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` when empty."""
        entry = self.pop_entry()
        if entry is None:
            return None
        return Event(entry, self)

    def push_entry(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple,
        seq: Optional[int] = None,
        entry: Optional[list] = None,
    ) -> None:
        """Re-insert a popped entry (used when a run stops at a horizon).

        Pass the entry's original ``seq`` to preserve its FIFO position:
        a fresh seq would sort the entry *behind* same-time events pushed
        since it was popped, leaking scheduling nondeterminism across
        horizon pauses.

        Pass the popped ``entry`` list itself (as returned by
        :meth:`pop_entry`) to re-insert it in place.  Building a fresh
        list would orphan any :class:`Event` handle still wrapping the
        old one — ``cancel()`` on such a handle would silently mutate a
        discarded list and the event would fire anyway.
        """
        if entry is not None:
            entry[_IN_HEAP] = True
            heapq.heappush(self._heap, entry)
            if entry[_CALLBACK] is not None:
                self._live += 1
            return
        if seq is None:
            self.post(time, callback, args)
            return
        heapq.heappush(self._heap, [time, seq, callback, args, True])
        self._live += 1

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event without removing it."""
        heap = self._heap
        while heap and heap[0][_CALLBACK] is None:
            heapq.heappop(heap)[_IN_HEAP] = False
        if not heap:
            return None
        return heap[0][_TIME]

    def clear(self) -> None:
        """Drop every pending entry (live or cancelled)."""
        for entry in self._heap:
            entry[_IN_HEAP] = False
        self._heap.clear()
        self._live = 0

    def reset(self) -> None:
        """Return the queue to its just-constructed state.

        Unlike :meth:`clear`, the sequence counter rewinds too, so a
        reset queue schedules events with the same seqs as a fresh one —
        checkpoints taken after a reset compare bit-identical to those
        from a new kernel.
        """
        self.clear()
        self._seq = 0
        self.cancelled_fires = 0

    def consistency_check(self) -> None:
        """Assert the live count and heap bookkeeping agree (paranoia).

        O(heap size); called by :class:`CheckedEventQueue` and the
        kernel-boundary sweep, never on the fast path.
        Verifies three facts the event loop's correctness rests on:
        every heap member is marked in-heap, the tracked live count
        equals the number of uncancelled heap members, and the heap
        ordering property holds (a corrupted entry list — e.g. a time
        mutated after push — would silently reorder event delivery).
        """
        heap = self._heap
        live = 0
        for index, entry in enumerate(heap):
            if not entry[_IN_HEAP]:
                raise InvariantError(
                    f"heap entry at index {index} (seq={entry[_SEQ]}) is "
                    "marked out-of-heap but still sits in the heap"
                )
            if entry[_CALLBACK] is not None:
                live += 1
            parent = (index - 1) >> 1
            if index > 0 and heap[index] < heap[parent]:
                raise InvariantError(
                    f"heap property violated at index {index}: entry "
                    f"(time={entry[_TIME]}, seq={entry[_SEQ]}) sorts "
                    f"before its parent (time={heap[parent][_TIME]}, "
                    f"seq={heap[parent][_SEQ]})"
                )
        if live != self._live:
            raise InvariantError(
                f"event-queue live count drifted: tracked {self._live}, "
                f"heap scan found {live} live of {len(heap)} entries"
            )


class CheckedEventQueue(EventQueue):
    """Paranoia mode's queue: every pop is checked.

    ``clock`` is the owning kernel, read for ``now``.  Each pop asserts
    that the entry is live and would not run the clock backwards; every
    :data:`QUEUE_CHECK_INTERVAL` pops, and once when the queue drains
    (the end of a run), the whole heap is scanned.  Delivery order and
    bookkeeping are the base queue's — differential replay diffs checked
    runs against unchecked ones and any drift here would read as an
    engine bug.
    """

    def __init__(self, clock) -> None:
        super().__init__()
        self._clock = clock
        self._pops = 0

    def _scan(self) -> None:
        self.consistency_check()
        VERIFY_STATS["queue_scans"] += 1

    def pop_entry(self) -> Optional[list]:
        entry = super().pop_entry()
        if entry is None:
            self._scan()
            VERIFY_STATS["runs_checked"] += 1
            return None
        if entry[_CALLBACK] is None:
            raise InvariantError(
                f"pop_entry returned a cancelled entry (time={entry[_TIME]}, "
                f"seq={entry[_SEQ]}); the queue's lazy-cancellation "
                "compaction is broken"
            )
        if entry[_TIME] < self._clock.now:
            raise InvariantError(
                f"clock would run backwards: event (time={entry[_TIME]}, "
                f"seq={entry[_SEQ]}) fired at now={self._clock.now}"
            )
        VERIFY_STATS["events_checked"] += 1
        self._pops += 1
        if self._pops % QUEUE_CHECK_INTERVAL == 0:
            self._scan()
        return entry

    def _cancelled_fire(self, entry: list) -> None:
        raise InvariantError(
            f"fired a cancelled event (time={entry[_TIME]}, "
            f"seq={entry[_SEQ]})"
        )
