"""Contended-resource primitives with next-free-time accounting.

The GPU model computes a memory request's end-to-end latency analytically
at issue time by walking a chain of resources.  Because the simulation
kernel fires events in global time order, successive ``acquire`` calls on a
resource arrive with non-decreasing timestamps, which makes simple
next-free-time bookkeeping an exact FIFO queueing model (not an
approximation) for non-preemptive servers.
"""

from __future__ import annotations

import heapq
from typing import List

from repro.exceptions import SimulationError


class FifoServer:
    """A single non-preemptive FIFO server.

    A request arriving at ``now`` with a given ``service_time`` starts at
    ``max(now, next_free)`` and finishes ``service_time`` later.  Busy time
    is tracked so utilization can be reported.
    """

    def __init__(self, name: str = "server") -> None:
        self.name = name
        self._next_free = 0.0
        self._busy_time = 0.0
        self._requests = 0

    @property
    def next_free(self) -> float:
        return self._next_free

    @property
    def busy_time(self) -> float:
        return self._busy_time

    @property
    def requests(self) -> int:
        return self._requests

    def service(self, now: float, service_time: float) -> float:
        """Enqueue a request; return its completion time."""
        if service_time < 0:
            raise SimulationError(
                f"{self.name}: negative service time {service_time}"
            )
        start = now if now > self._next_free else self._next_free
        finish = start + service_time
        self._next_free = finish
        self._busy_time += service_time
        self._requests += 1
        return finish

    def utilization(self, total_time: float) -> float:
        """Fraction of ``total_time`` the server was busy."""
        if total_time <= 0:
            return 0.0
        return min(1.0, self._busy_time / total_time)

    def reset(self) -> None:
        self._next_free = 0.0
        self._busy_time = 0.0
        self._requests = 0

    def state_dict(self) -> dict:
        """JSON-able snapshot of the server's accounting state."""
        return {
            "next_free": self._next_free,
            "busy_time": self._busy_time,
            "requests": self._requests,
        }


class BandwidthResource(FifoServer):
    """A link or channel with a fixed transfer rate in bytes per cycle.

    Transfers serialize FIFO; a transfer of ``nbytes`` occupies the link
    for ``nbytes / bytes_per_cycle`` cycles.  This models bisection
    bandwidth for the NoC and per-controller DRAM bandwidth.
    """

    def __init__(self, bytes_per_cycle: float, name: str = "link") -> None:
        super().__init__(name=name)
        if bytes_per_cycle <= 0:
            raise SimulationError(
                f"{name}: bytes/cycle must be positive, got {bytes_per_cycle}"
            )
        self.bytes_per_cycle = bytes_per_cycle
        self._bytes_moved = 0.0

    @property
    def bytes_moved(self) -> float:
        return self._bytes_moved

    def transfer(self, now: float, nbytes: float) -> float:
        """Enqueue a transfer; return the cycle at which it completes."""
        if nbytes < 0:
            raise SimulationError(f"{self.name}: negative transfer size {nbytes}")
        self._bytes_moved += nbytes
        return self.service(now, nbytes / self.bytes_per_cycle)

    def reset(self) -> None:
        super().reset()
        self._bytes_moved = 0.0

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["bytes_moved"] = self._bytes_moved
        return state


class TokenPool:
    """A counted resource (e.g. an MSHR file) held for a time interval.

    ``acquire(now)`` returns the earliest time a token is available; the
    caller then calls ``hold(start, release_time)`` once it knows when the
    token frees.  Internally a min-heap of release times models "wait for
    the earliest slot" semantics exactly, again relying on time-ordered
    arrivals.
    """

    def __init__(self, capacity: int, name: str = "tokens") -> None:
        if capacity < 1:
            raise SimulationError(f"{name}: capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._releases: List[float] = []
        self._acquired = 0
        self._wait_time = 0.0

    @property
    def acquired(self) -> int:
        return self._acquired

    @property
    def total_wait_time(self) -> float:
        """Aggregate cycles requests spent waiting for a free token."""
        return self._wait_time

    def acquire(self, now: float) -> float:
        """Return the earliest time a token is free for a request arriving now."""
        if len(self._releases) < self.capacity:
            return now
        earliest = self._releases[0]
        start = now if now > earliest else earliest
        self._wait_time += start - now
        return start

    def hold(self, release_time: float) -> None:
        """Commit a token acquisition that frees at ``release_time``."""
        if len(self._releases) >= self.capacity:
            heapq.heappop(self._releases)
        heapq.heappush(self._releases, release_time)
        self._acquired += 1

    def in_flight(self, now: float) -> int:
        """Number of tokens still held at time ``now``."""
        return sum(1 for t in self._releases if t > now)

    def reset(self) -> None:
        self._releases.clear()
        self._acquired = 0
        self._wait_time = 0.0

    def state_dict(self) -> dict:
        """JSON-able snapshot; the release heap serializes as a list."""
        return {
            "releases": list(self._releases),
            "acquired": self._acquired,
            "wait_time": self._wait_time,
        }
