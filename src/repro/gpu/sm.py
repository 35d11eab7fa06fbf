"""The streaming-multiprocessor (SM) model.

An SM is modelled as an issue pipeline (a FIFO server with a peak rate of
``issue_width`` warp instructions per cycle) shared by all resident warps.
A warp occupies the pipeline for its whole compute burst and then stalls on
its memory access — a greedy-then-oldest-flavoured policy: the running
warp proceeds until it stalls, at which point the longest-waiting ready
warp (FIFO order) takes over.

Stall accounting follows the paper's definition of ``f_mem``: the
fraction of time the SM cannot issue because every live warp is waiting
on memory.  With a work-conserving FIFO pipeline, "cannot issue" is
exactly "pipeline idle"; the memory-stall share of that idle excludes
periods where the SM simply has no *live* warp (launch stagger before
warps start, gaps with no resident CTA).  That matters because Eq. 3 of
the paper multiplies performance by ``1 / (1 - f_mem)`` on the
assumption that the counted stall disappears once the working set fits
in the LLC; idle that is not memory stall must not be amplified.
"""

from __future__ import annotations

from typing import Dict

from repro.exceptions import SimulationError
from repro.gpu.config import GPUConfig
from repro.gpu.fifo import new_queue, queue_state, serve

ACTIVE = "active"
IDLE = "idle"


class StateTimeTracker:
    """How long an entity spends in each named state (SM occupancy)."""

    def __init__(self, initial_state: str) -> None:
        self._state = initial_state
        self._since = 0.0
        self._time_in: Dict[str, float] = {}

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

    def state_dict(self) -> dict:
        """JSON-able snapshot of the tracker (state, since, accumulators)."""
        return {
            "state": self._state,
            "since": self._since,
            "time_in": dict(self._time_in),
        }


class StreamingMultiprocessor:
    """Runtime state of one SM during a simulation."""

    def __init__(self, sm_id: int, config: GPUConfig) -> None:
        self.sm_id = sm_id
        self.config = config
        # The issue pipeline's queue (repro.gpu.fifo); the simulator's
        # per-access step writes it inline.
        self.pipeline = new_queue()
        self.resident_ctas = 0
        self.max_resident = 1  # set per kernel by the dispatcher
        self.warp_instructions = 0
        self.accesses = 0
        self._occupancy = StateTimeTracker(IDLE)
        self._last_time = 0.0
        # Live-warp tracking: excludes launch-stagger idle from f_mem.
        self._live_warps = 0
        self._no_live_time = 0.0
        self._no_live_since = 0.0  # live count is 0 at construction

    # --- occupancy tracking --------------------------------------------------
    def cta_started(self, now: float) -> None:
        if self.resident_ctas >= self.max_resident:
            raise SimulationError(
                f"SM {self.sm_id}: CTA dispatched beyond residency limit "
                f"({self.resident_ctas} >= {self.max_resident})"
            )
        if self.resident_ctas == 0:
            self._occupancy.transition(now, ACTIVE)
        self.resident_ctas += 1
        self._last_time = max(self._last_time, now)

    def cta_finished(self, now: float) -> None:
        if self.resident_ctas <= 0:
            raise SimulationError(f"SM {self.sm_id}: CTA finished with none resident")
        self.resident_ctas -= 1
        if self.resident_ctas == 0:
            self._occupancy.transition(now, IDLE)
        self._last_time = max(self._last_time, now)

    @property
    def has_room(self) -> bool:
        return self.resident_ctas < self.max_resident

    # --- issue ------------------------------------------------------------------
    def issue(self, now: float, warp_instructions: int) -> float:
        """Issue a compute burst; return the cycle it leaves the pipeline."""
        if warp_instructions < 0:
            raise SimulationError(
                f"SM {self.sm_id}: negative burst {warp_instructions}"
            )
        self.warp_instructions += warp_instructions
        service = warp_instructions / self.config.issue_width
        return serve(self.pipeline, now, service)

    # --- warp-state tracking ----------------------------------------------
    def warp_started(self, now: float) -> None:
        """A warp issues its first instruction (launch stagger is over)."""
        if self._live_warps == 0:
            self._no_live_time += now - self._no_live_since
        self._live_warps += 1

    def warp_finished(self, now: float) -> None:
        """A live warp retires."""
        if self._live_warps <= 0:
            raise SimulationError(f"SM {self.sm_id}: retire without live warp")
        self._live_warps -= 1
        if self._live_warps == 0:
            self._no_live_since = now

    # --- end-of-run statistics ----------------------------------------------
    def close(self, end_time: float) -> None:
        """Finalize occupancy and stall tracking at the end of simulation."""
        end = max(end_time, self._last_time)
        self._occupancy.finish(end)
        if self._live_warps == 0:
            self._no_live_time += max(0.0, end - self._no_live_since)
            self._no_live_since = end

    @property
    def active_time(self) -> float:
        return self._occupancy.time_in(ACTIVE)

    @property
    def no_live_time(self) -> float:
        """Total time with zero live warps (includes inactive periods)."""
        return self._no_live_time

    # --- boundary state --------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able snapshot, taken at a kernel boundary.

        At a boundary no CTA is resident and no warp is live, so only the
        accumulated counters and trackers carry state; ``max_resident``
        is re-derived by the dispatcher when the next kernel loads.
        """
        if self.resident_ctas or self._live_warps:
            raise SimulationError(
                f"SM {self.sm_id}: snapshot requested mid-kernel "
                f"({self.resident_ctas} CTAs, {self._live_warps} warps live)"
            )
        return {
            "pipeline": queue_state(self.pipeline),
            "warp_instructions": self.warp_instructions,
            "accesses": self.accesses,
            "occupancy": self._occupancy.state_dict(),
            "last_time": self._last_time,
            "no_live_time": self._no_live_time,
            "no_live_since": self._no_live_since,
        }

    def memory_stall_fraction(self) -> float:
        """Fraction of active time all live warps wait on memory (f_mem).

        With the work-conserving pipeline, memory stall = active time
        minus pipeline-busy time minus active-but-no-live-warp time (the
        launch-stagger window before an initial wave starts issuing).
        """
        active = self.active_time
        if active <= 0:
            return 0.0
        idle = self._occupancy.time_in(IDLE)
        no_live_active = max(0.0, self._no_live_time - idle)
        stall = active - min(self.pipeline[1], active) - no_live_active
        return min(1.0, max(0.0, stall / active))
