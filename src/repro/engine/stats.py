"""Statistics helpers: time-weighted state tracking."""

from __future__ import annotations

from typing import Dict


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

    def as_dict(self) -> Dict[str, float]:
        return dict(self._time_in)

    def state_dict(self) -> dict:
        """JSON-able snapshot of the tracker (state, since, accumulators)."""
        return {
            "state": self._state,
            "since": self._since,
            "time_in": dict(self._time_in),
        }
