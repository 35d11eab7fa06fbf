"""Statistics helpers: counters, busy trackers and time-weighted states."""

from __future__ import annotations

from typing import Dict

from repro.obs.metrics import CounterBag


class Counter(CounterBag):
    """A named bag of integer counters with dict-like access.

    Thin shim over :class:`repro.obs.metrics.CounterBag`, the shared
    stat-bag primitive of the observability subsystem; kept so existing
    engine components and callers are untouched.
    """

    def get(self, key: str, default: int = 0) -> int:
        return int(super().get(key, default))


class BusyTracker:
    """Accumulates busy time from explicit (start, end) intervals.

    Overlapping intervals are the caller's responsibility to avoid; the GPU
    model only reports disjoint per-warp service intervals per resource.
    """

    def __init__(self) -> None:
        self._busy = 0.0
        self._last_end = 0.0

    @property
    def busy_time(self) -> float:
        return self._busy

    @property
    def last_end(self) -> float:
        return self._last_end

    def record(self, start: float, end: float) -> None:
        if end < start:
            raise ValueError(f"interval ends before it starts: [{start}, {end}]")
        self._busy += end - start
        if end > self._last_end:
            self._last_end = end

    def utilization(self, total_time: float) -> float:
        if total_time <= 0:
            return 0.0
        return min(1.0, self._busy / total_time)

    def reset(self) -> None:
        self._busy = 0.0
        self._last_end = 0.0


class StateTimeTracker:
    """Tracks how long an entity spends in each named state.

    Used for SM memory-stall accounting: the SM is in state ``"mem_stall"``
    whenever every resident warp is waiting on a memory response, and the
    fraction of time in that state is the paper's ``f_mem``.
    """

    def __init__(self, initial_state: str, start_time: float = 0.0) -> None:
        self._state = initial_state
        self._since = start_time
        self._time_in: Dict[str, float] = {}

    @property
    def state(self) -> str:
        return self._state

    def transition(self, now: float, new_state: str) -> None:
        """Leave the current state at ``now`` and enter ``new_state``."""
        if now < self._since:
            raise ValueError(
                f"time went backwards: now={now} < since={self._since}"
            )
        self._time_in[self._state] = self._time_in.get(self._state, 0.0) + (
            now - self._since
        )
        self._state = new_state
        self._since = now

    def finish(self, now: float) -> None:
        """Close the open interval at end of simulation."""
        self.transition(now, self._state)

    def time_in(self, state: str) -> float:
        return self._time_in.get(state, 0.0)

    def fraction_in(self, state: str, total_time: float) -> float:
        if total_time <= 0:
            return 0.0
        return self.time_in(state) / total_time

    def as_dict(self) -> Dict[str, float]:
        return dict(self._time_in)

    def state_dict(self) -> dict:
        """JSON-able snapshot of the tracker (state, since, accumulators)."""
        return {
            "state": self._state,
            "since": self._since,
            "time_in": dict(self._time_in),
        }
