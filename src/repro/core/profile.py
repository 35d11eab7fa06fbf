"""Scale-model performance profiles: the predictor's measured inputs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.exceptions import PredictionError
from repro.mrc.curve import MissRateCurve


@dataclass(frozen=True)
class ScaleModelProfile:
    """Everything measured on the scale models for one workload.

    ``sizes`` and ``ipcs`` hold the two (or more) scale-model points in
    ascending size order.  ``f_mem`` is the memory-stall fraction of the
    *largest* scale model (needed only when a cliff must be crossed);
    ``curve`` is the LLC miss-rate curve (needed only under strong
    scaling).
    """

    workload: str
    sizes: Tuple[int, ...]
    ipcs: Tuple[float, ...]
    f_mem: Optional[float] = None
    curve: Optional[MissRateCurve] = None
    metadata: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.ipcs):
            raise PredictionError("sizes and ipcs must have equal length")
        if len(self.sizes) < 2:
            raise PredictionError(
                f"{self.workload}: need at least two scale models, "
                f"got {len(self.sizes)}"
            )
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise PredictionError(f"sizes must be strictly increasing: {self.sizes}")
        if not all(math.isfinite(ipc) and ipc > 0 for ipc in self.ipcs):
            raise PredictionError(
                f"IPCs must be finite and positive: {self.ipcs}"
            )
        if self.f_mem is not None and not 0.0 <= self.f_mem < 1.0:
            raise PredictionError(
                f"f_mem must be in [0, 1), got {self.f_mem}"
            )

    @property
    def smallest(self) -> Tuple[int, float]:
        return self.sizes[0], self.ipcs[0]

    @property
    def largest(self) -> Tuple[int, float]:
        return self.sizes[-1], self.ipcs[-1]

    def correction_factor(self) -> float:
        """Eq. 1: deviation from ideal scaling between the two extremes."""
        (s, ipc_s), (l, ipc_l) = self.smallest, self.largest
        return (ipc_l / ipc_s) / (l / s)
