"""Prediction-error metrics and summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.exceptions import PredictionError


def prediction_error(predicted: float, actual: float) -> float:
    """Relative absolute error, the paper's metric: |pred - real| / real."""
    if actual <= 0:
        raise PredictionError(f"actual IPC must be positive, got {actual}")
    return abs(predicted - actual) / actual


def prediction_error_pct(predicted: float, actual: float) -> float:
    """:func:`prediction_error` in percent — the one percent spelling.

    Evaluated left to right, ``(100 * |pred - real|) / real``, which is
    not ``100 * prediction_error(...)`` in the last bit: zoo artifacts
    have carried this form since schema 1 and stay bit-identical.
    """
    if actual <= 0:
        raise PredictionError(f"actual IPC must be positive, got {actual}")
    return 100.0 * abs(predicted - actual) / actual


@dataclass(frozen=True)
class ErrorSummary:
    """Average and maximum error of one method across benchmarks."""

    method: str
    mean: float
    maximum: float
    worst_benchmark: str
    count: int

    def as_row(self) -> Tuple[str, str, str, str]:
        return (
            self.method,
            f"{100 * self.mean:.1f}%",
            f"{100 * self.maximum:.1f}%",
            self.worst_benchmark,
        )


def summarize_errors(errors: Mapping[str, Mapping[str, float]]) -> List[ErrorSummary]:
    """Summarize ``{method: {benchmark: error}}`` into per-method rows."""
    summaries = []
    for method, per_bench in errors.items():
        if not per_bench:
            raise PredictionError(f"method {method!r} has no errors to summarize")
        worst = max(per_bench, key=per_bench.get)
        values = list(per_bench.values())
        summaries.append(
            ErrorSummary(
                method=method,
                mean=sum(values) / len(values),
                maximum=per_bench[worst],
                worst_benchmark=worst,
                count=len(values),
            )
        )
    return summaries


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (used for speedup aggregation)."""
    if not values:
        raise PredictionError("geometric mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise PredictionError(f"geometric mean needs positive values: {values}")
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))
