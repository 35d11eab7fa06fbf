"""StatStack-flavoured statistical miss-ratio estimation.

Eklov and Hagersten's StatStack [23] estimates stack distances from plain
*reuse distances* (the number of references — not unique lines — between
two accesses to the same line), which are far cheaper to collect.  The
key identity for a stationary reference stream: the expected number of
distinct lines in a window of r references is

    E[unique(r)] = sum_{d=1..r} P(RD > d)

because the reference d positions before the window end is the *last*
occurrence of its line within the window iff its forward reuse distance
exceeds d.  Inverting the (monotone) mapping ``r -> E[unique(r)]`` turns
a cache capacity into a reuse-distance threshold, and the miss ratio at
capacity C is simply ``P(RD > r*(C))`` plus cold misses.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.exceptions import PredictionError


class ReuseDistanceSampler:
    """Collects forward reuse distances in one cheap pass."""

    def __init__(self) -> None:
        self._last_pos: Dict[int, int] = {}
        self._pos = 0
        self.reuse_distances: List[int] = []
        self.cold_misses = 0

    def access(self, line: int) -> None:
        self._pos += 1
        last = self._last_pos.get(line)
        if last is None:
            self.cold_misses += 1
        else:
            self.reuse_distances.append(self._pos - last - 1)
        self._last_pos[line] = self._pos

    def consume(self, lines: Iterable[int]) -> None:
        for line in lines:
            self.access(line)

    @property
    def accesses(self) -> int:
        return self._pos


def expected_unique(reuse_distances: np.ndarray, max_window: int) -> np.ndarray:
    """``E[unique(r)]`` for r = 0..max_window from a reuse-distance sample."""
    if max_window < 0:
        raise PredictionError(f"max_window must be >= 0, got {max_window}")
    n = len(reuse_distances)
    if n == 0:
        return np.zeros(max_window + 1)
    clipped = np.minimum(reuse_distances, max_window)
    counts = np.bincount(clipped, minlength=max_window + 1)
    # P(RD > d) for d = 0..max_window (sample CCDF).
    ccdf = 1.0 - np.cumsum(counts) / n
    ccdf = np.clip(ccdf, 0.0, 1.0)
    # E[unique(r)] = sum_{d=1..r} P(RD > d-1)  (distinct-last-occurrence
    # argument, see module docstring; P(RD >= d) = P(RD > d-1)).
    unique = np.concatenate(([0.0], np.cumsum(ccdf[:max_window])))
    return unique


def statstack_miss_ratios(
    sampler: ReuseDistanceSampler,
    capacities_lines: Sequence[int],
    max_window: int = 1 << 20,
) -> List[float]:
    """Estimated miss ratios (misses per access) at the given capacities."""
    return reuse_miss_ratios(
        np.asarray(sampler.reuse_distances, dtype=np.int64),
        sampler.cold_misses, sampler.accesses, capacities_lines, max_window,
    )


def reuse_miss_ratios(
    rds: np.ndarray, cold: int, total: int,
    capacities_lines: Sequence[int], max_window: int = 1 << 20,
) -> List[float]:
    """:func:`statstack_miss_ratios` of a stream of ``total`` references,
    ``cold`` first ones and the rest with forward reuse distances ``rds``."""
    if total == 0:
        raise PredictionError("no accesses sampled")
    if len(rds):
        max_window = int(min(max_window, max(int(rds.max()) + 1, 2)))
    else:
        max_window = 2
    unique = expected_unique(rds, max_window)
    out = []
    for capacity in capacities_lines:
        if capacity < 1:
            raise PredictionError(f"capacity must be >= 1, got {capacity}")
        # Smallest window whose expected unique content reaches the capacity.
        idx = int(np.searchsorted(unique, capacity, side="left"))
        if idx >= len(unique):
            conflict = 0  # cache larger than any working set seen
        else:
            conflict = int(np.count_nonzero(rds > idx))
        out.append((conflict + cold) / total)
    return out
