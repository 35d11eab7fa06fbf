"""CTA dispatch: round-robin initial placement, greedy backfill.

Matches the paper's Table III ("CTA scheduling: round-robin"): CTAs are
handed to SMs in round-robin order up to the residency limit implied by
the CTA's thread count; when a CTA retires, the freed SM immediately
receives the next pending CTA.  Load imbalance and kernel-tail effects —
one of the paper's two sub-linear-scaling mechanisms — emerge naturally.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.gpu.sm import StreamingMultiprocessor


class CTADispatcher:
    """Tracks pending CTAs of the current kernel and places them on SMs."""

    def __init__(self, sms: List[StreamingMultiprocessor]) -> None:
        self._sms = sms
        self._pending: Deque[int] = deque()

    def load_kernel(self, num_ctas: int, max_resident: int) -> None:
        """Queue a kernel's CTAs and set the per-SM residency limit."""
        self._pending = deque(range(num_ctas))
        for sm in self._sms:
            sm.max_resident = max_resident

    @property
    def pending(self) -> int:
        return len(self._pending)

    def initial_placements(self) -> List[tuple]:
        """Place the initial wave; returns (cta_id, sm_id) pairs.

        SMs are visited round-robin in waves, so CTA ``i`` lands on SM
        ``i % num_sms`` first (Table III's policy).
        """
        placements = []
        progress = True
        while self._pending and progress:
            progress = False
            for sm in self._sms:
                if not self._pending:
                    break
                if sm.has_room:
                    cta_id = self._pending.popleft()
                    placements.append((cta_id, sm.sm_id))
                    sm.resident_ctas += 1  # reserve the slot
                    progress = True
        # Roll back the reservations; the simulator performs the real
        # cta_started() calls (which also drive occupancy tracking).
        for __, sm_id in placements:
            self._sms[sm_id].resident_ctas -= 1
        return placements

    def next_for(self, sm_id: int) -> Optional[int]:
        """Pop the next pending CTA for a freed SM, if any."""
        if not self._pending:
            return None
        return self._pending.popleft()
