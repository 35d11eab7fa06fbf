"""FIFO queue state as plain numbers.

Every contended resource of the GPU model — SM issue pipelines, NoC
channels, LLC ports, memory controllers, MCM links — is a
non-preemptive FIFO server: a request arriving at ``now`` starts at
``max(now, next_free)`` and holds the server for its service time.
The simulator's event loop delivers requests in time order, so this
next-free-time recurrence is an exact queueing model.

A queue is a ``[next_free, busy_time, requests]`` list owned by the
module that serves it.  The per-access paths
(``MemorySubsystem.shared_path`` and ``GPUSimulator._event_loop``) write
the recurrence inline; the cold paths (SM tails, MCM links) call
:func:`serve`.
"""

from __future__ import annotations

from typing import List, Optional


def new_queue() -> List:
    """An idle queue: ``[next_free, busy_time, requests]``."""
    return [0.0, 0.0, 0]


def serve(queue: List, now: float, service: float) -> float:
    """Enqueue one request arriving at ``now``; return its finish time."""
    start = queue[0]
    if now > start:
        start = now
    finish = start + service
    queue[0] = finish
    queue[1] += service
    queue[2] += 1
    return finish


def queue_state(queue: List, size: Optional[int] = None) -> dict:
    """JSON-able snapshot of a queue.

    A link or controller moves ``size`` bytes per request, so its
    ``bytes_moved`` is ``requests * size``.
    """
    next_free, busy_time, requests = queue
    state = {"next_free": next_free, "busy_time": busy_time, "requests": requests}
    if size is not None:
        state["bytes_moved"] = float(requests * size)
    return state


def utilization(queue: List, total_time: float) -> float:
    """Fraction of ``total_time`` the queue's server was busy."""
    if total_time <= 0:
        return 0.0
    return min(1.0, queue[1] / total_time)
