"""Cliff detection and region analysis on miss-rate curves (Section V-C).

The prediction model splits the capacity axis into three regions:

* **pre-cliff** — the miss rate evolves at a steady pace;
* **cliff** — the miss rate drops by more than
  :data:`CLIFF_DROP_THRESHOLD` when doubling the cache (the working set
  starts fitting);
* **post-cliff** — mostly cold misses, flat again.

The paper observes at most one cliff for its workloads and system setup
(a single shared cache level); this analysis mirrors that by reporting
the *first* qualifying drop and treating everything beyond it as
post-cliff.  The ratio of every step stays in
:attr:`CliffAnalysis.drop_ratios` for callers that look past the first
cliff (:mod:`repro.core.multicliff`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.exceptions import PredictionError
from repro.mrc.curve import MissRateCurve

#: "the miss rate reduces by more than 2x when doubling cache size"
CLIFF_DROP_THRESHOLD = 2.0

#: MPKI below this is considered effectively zero (all-cold region); a
#: drop into this region always qualifies as a cliff.
NEGLIGIBLE_MPKI = 0.05


class Region(enum.Enum):
    PRE_CLIFF = "pre-cliff"
    CLIFF = "cliff"
    POST_CLIFF = "post-cliff"


@dataclass(frozen=True)
class CliffAnalysis:
    """Result of region analysis over one miss-rate curve."""

    curve: MissRateCurve
    cliff_step: Optional[int]  # drop between capacities [i] and [i+1]
    drop_ratios: Tuple[float, ...]

    @property
    def has_cliff(self) -> bool:
        return self.cliff_step is not None

    @property
    def cliff_capacities(self) -> Optional[Tuple[int, int]]:
        """(last pre-cliff capacity, first post-cliff capacity) in bytes."""
        if self.cliff_step is None:
            return None
        caps = self.curve.capacities_bytes
        return caps[self.cliff_step], caps[self.cliff_step + 1]

    def region_of(self, capacity_bytes: int) -> Region:
        """Region of a sampled capacity point."""
        caps = self.curve.capacities_bytes
        if capacity_bytes not in caps:
            raise PredictionError(
                f"{capacity_bytes} is not a sampled capacity: {caps}"
            )
        if self.cliff_step is None:
            return Region.PRE_CLIFF
        index = caps.index(capacity_bytes)
        if index <= self.cliff_step:
            return Region.PRE_CLIFF
        if index == self.cliff_step + 1:
            return Region.CLIFF
        return Region.POST_CLIFF


def analyze_regions(
    curve: MissRateCurve, threshold: float = CLIFF_DROP_THRESHOLD
) -> CliffAnalysis:
    """Locate the (first) cliff in a miss-rate curve, if any.

    A step qualifies when MPKI shrinks by more than ``threshold`` while the
    pre-drop MPKI is non-negligible — a drop from 0.02 to 0.005 is noise,
    not a cliff.
    """
    if threshold <= 1.0:
        raise PredictionError(f"threshold must exceed 1.0, got {threshold}")
    drops = curve.drop_ratios()
    cliff_step = None
    for i, ratio in enumerate(drops):
        if curve.mpki[i] <= NEGLIGIBLE_MPKI:
            continue
        if ratio > threshold:
            cliff_step = i
            break
    return CliffAnalysis(
        curve=curve, cliff_step=cliff_step, drop_ratios=tuple(drops)
    )
