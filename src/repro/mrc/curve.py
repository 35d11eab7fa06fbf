"""The miss-rate-curve data type."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.exceptions import PredictionError
from repro.units import MB


@dataclass(frozen=True)
class MissRateCurve:
    """MPKI as a function of LLC capacity (Figure 2 of the paper).

    ``capacities_bytes`` are nominal (paper-scale) LLC capacities in
    ascending order; ``mpki[i]`` is the number of LLC misses per thousand
    thread instructions at that capacity.  ``miss_ratio`` (misses per LLC
    access) is kept for diagnostics.
    """

    workload: str
    capacities_bytes: Tuple[int, ...]
    mpki: Tuple[float, ...]
    miss_ratio: Tuple[float, ...] = ()
    metadata: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.capacities_bytes) != len(self.mpki):
            raise PredictionError("capacities and mpki must have equal length")
        if len(self.capacities_bytes) < 2:
            raise PredictionError("a miss rate curve needs at least two points")
        if any(
            b <= a
            for a, b in zip(self.capacities_bytes, self.capacities_bytes[1:])
        ):
            raise PredictionError(
                f"capacities must be strictly increasing: {self.capacities_bytes}"
            )
        if any(m < 0 for m in self.mpki):
            raise PredictionError(f"MPKI values must be non-negative: {self.mpki}")
        if self.miss_ratio and len(self.miss_ratio) != len(self.mpki):
            raise PredictionError(
                f"{self.workload}: miss_ratio has {len(self.miss_ratio)} "
                f"entries for {len(self.mpki)} curve points; diagnostics "
                "must align with the sampled capacities"
            )

    def __len__(self) -> int:
        return len(self.capacities_bytes)

    @property
    def capacities_mb(self) -> Tuple[float, ...]:
        return tuple(c / MB for c in self.capacities_bytes)

    def drop_ratios(self) -> List[float]:
        """``mpki[i] / mpki[i+1]`` per capacity step (>= 1 means improving).

        A step whose next MPKI is ~zero yields ``inf``; the cliff detector
        treats that as the sharpest possible drop.
        """
        ratios = []
        for a, b in zip(self.mpki, self.mpki[1:]):
            if b <= 1e-12:
                ratios.append(float("inf") if a > 1e-12 else 1.0)
            else:
                ratios.append(a / b)
        return ratios

    def as_rows(self) -> List[Tuple[float, float]]:
        """(capacity_mb, mpki) rows for table rendering."""
        return list(zip(self.capacities_mb, self.mpki))

