"""The scale-model predictor: Equations 1-4 of the paper."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.exceptions import PredictionError
from repro.mrc.cliff import CliffAnalysis, Region, analyze_regions
from repro.core.profile import ScaleModelProfile
from repro.validate import degenerate_curve_reason
from repro.verify import runtime as verify_runtime


@dataclass(frozen=True)
class PredictionResult:
    """One target-system prediction."""

    workload: str
    target_size: int
    ipc: float
    region: Region
    correction_factor: float
    details: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.ipc) and self.ipc > 0):
            raise PredictionError(
                f"{self.workload}@{self.target_size}: prediction "
                f"{self.ipc} is not a finite positive IPC"
            )


class ScaleModelPredictor:
    """Per-workload GPU scale-model prediction (Section V-C).

    The predictor is stateless beyond its inputs: no training phase, no
    cross-workload regression.  Capacities are assumed proportional to
    system size (the proportional-scaling design rule), so the LLC
    capacity of a size-``n`` system is ``capacity_per_unit * n``.

    When no miss-rate curve is supplied (the weak-scaling scenario, where
    the working set scales with the system and no cliff can occur), every
    target is treated as pre-cliff.
    """

    def __init__(
        self,
        profile: ScaleModelProfile,
        capacity_per_unit: Optional[float] = None,
    ) -> None:
        self.profile = profile
        curve = profile.curve
        if curve is not None:
            reason = degenerate_curve_reason(curve)
            if reason is not None:
                warnings.warn(
                    f"{profile.workload}: {reason}; degrading to "
                    "proportional scaling (Eq. 2)"
                )
                curve = None
        self.analysis: Optional[CliffAnalysis] = (
            analyze_regions(curve) if curve is not None else None
        )
        if curve is not None and capacity_per_unit is None:
            # Infer bytes-of-LLC per SM from the curve: under proportional
            # scaling the smallest sampled capacity belongs to the smallest
            # scale model.
            capacity_per_unit = (
                profile.curve.capacities_bytes[0] / profile.sizes[0]
            )
        self.capacity_per_unit = capacity_per_unit

    # --- helpers -----------------------------------------------------------
    def capacity_of(self, size: int) -> int:
        if self.capacity_per_unit is None:
            raise PredictionError(
                "capacity mapping unavailable; supply capacity_per_unit"
            )
        return round(self.capacity_per_unit * size)

    def _region_of(self, size: int) -> Region:
        if self.analysis is None:
            return Region.PRE_CLIFF
        return self.analysis.region_of(self.capacity_of(size))

    def _require_f_mem(self) -> float:
        if self.profile.f_mem is None:
            raise PredictionError(
                f"{self.profile.workload}: crossing the miss-rate cliff "
                "requires f_mem of the largest scale model (Eq. 3)"
            )
        return self.profile.f_mem

    # --- the model -----------------------------------------------------------
    def predict(self, target_size: int) -> PredictionResult:
        """Predict target-system IPC (Eqs. 2-4 by region)."""
        profile = self.profile
        large_size, ipc_l = profile.largest
        if target_size < large_size:
            raise PredictionError(
                f"target ({target_size}) must be at least as large as the "
                f"largest scale model ({large_size})"
            )
        correction = profile.correction_factor()
        region = self._region_of(target_size)

        if region is Region.PRE_CLIFF:
            # Eq. 2: performance keeps scaling as it did across the models.
            ipc = ipc_l * (target_size / large_size) * correction
            details = {"ipc_large": ipc_l, "scale": target_size / large_size}
        elif region is Region.CLIFF:
            # Eq. 3: crossing the cliff removes the memory-stall fraction.
            f_mem = self._require_f_mem()
            ipc = ipc_l * (target_size / large_size) / (1.0 - f_mem)
            details = {"f_mem": f_mem, "scale": target_size / large_size}
        else:
            # Eq. 4: extrapolate from the smallest post-... system beyond
            # the cliff, whose performance is itself an Eq. 3 prediction.
            f_mem = self._require_f_mem()
            cliff_size = self._first_size_beyond_cliff()
            ipc_k = ipc_l * (cliff_size / large_size) / (1.0 - f_mem)
            ipc = ipc_k * (target_size / cliff_size) * correction
            details = {
                "f_mem": f_mem,
                "anchor_size": float(cliff_size),
                "anchor_ipc": ipc_k,
            }
        result = PredictionResult(
            workload=profile.workload,
            target_size=target_size,
            ipc=ipc,
            region=region,
            correction_factor=correction,
            details=details,
        )
        if verify_runtime.paranoid:
            from repro.verify import invariants

            invariants.check_prediction(self, result)
        return result

    def _first_size_beyond_cliff(self) -> int:
        """System size whose LLC is the first capacity past the cliff."""
        assert self.analysis is not None and self.analysis.has_cliff
        __, first_after = self.analysis.cliff_capacities
        size = first_after / self.capacity_per_unit
        rounded = round(size)
        if rounded < 1:
            raise PredictionError(
                f"{self.profile.workload}: cliff capacity maps to size {size}"
            )
        return rounded
