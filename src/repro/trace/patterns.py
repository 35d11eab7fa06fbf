"""Address-pattern generators.

Each generator returns a numpy array of cache-line numbers or of
compute-burst lengths.  The benchmark miniatures in
:mod:`repro.workloads` compose these primitives to match the published
footprint, reuse and sharing behaviour of each benchmark:

* :func:`sequential` — streaming, no temporal reuse (cold misses only);
* :func:`cyclic_sweep` — repeated passes over a working set; under LRU this
  produces the textbook cliff at the working-set size, the mechanism behind
  the paper's super-linearly scaling workloads (dct, fwt, ...);
* :func:`zipf_weights` — skewed popularity for Zipf references;
* :func:`pointer_chase_tree` / :func:`tree_paths` — root-to-leaf walks in
  a B-tree-like structure whose top levels are shared and hot (camping on
  LLC slices);
* :func:`interleave_compute` / :func:`burst_range` /
  :func:`round_bursts` — compute-burst lengths between accesses.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import TraceError


def _check_positive(**kwargs: int) -> None:
    for name, value in kwargs.items():
        if value <= 0:
            raise TraceError(f"{name} must be positive, got {value}")


def sequential(start: int, count: int, stride: int = 1) -> np.ndarray:
    """``count`` line addresses starting at ``start`` with a fixed stride."""
    _check_positive(count=count)
    if stride == 0:
        raise TraceError("stride must be non-zero")
    return start + stride * np.arange(count, dtype=np.int64)


def cyclic_sweep(base: int, ws_lines: int, count: int, offset: int = 0) -> np.ndarray:
    """Repeated in-order passes over a working set of ``ws_lines`` lines.

    Under LRU a cyclic sweep yields 0% hits while the cache is smaller than
    the working set and ~100% hits (after warm-up) once it fits — a sharp
    miss-rate cliff exactly at the working-set size.
    """
    _check_positive(ws_lines=ws_lines, count=count)
    idx = (offset + np.arange(count, dtype=np.int64)) % ws_lines
    return base + idx


def zipf_weights(ws_lines: int, exponent: float) -> np.ndarray:
    """Zipf popularity: line ``k`` has weight ``(k+1)**-exponent``."""
    _check_positive(ws_lines=ws_lines)
    if exponent <= 0:
        raise TraceError(f"zipf exponent must be positive, got {exponent}")
    ranks = np.arange(1, ws_lines + 1, dtype=np.float64)
    weights = ranks**-exponent
    weights /= weights.sum()
    return weights


def pointer_chase_tree(
    base: int,
    levels: int,
    fanout: int,
    walks: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Root-to-leaf walks: level ``k`` holds ``fanout**k`` one-line nodes.

    The root and top levels are touched by every walk — the shared hot
    data that causes LLC-slice camping in B-tree style workloads.
    """
    _check_positive(levels=levels, fanout=fanout, walks=walks)
    picks = [
        rng.integers(0, fanout, size=walks, dtype=np.int64)
        for __ in range(levels - 1)
    ]
    return tree_paths(base, fanout, walks, picks)


def tree_paths(
    base: int, fanout: int, walks: int, picks: Sequence[np.ndarray]
) -> np.ndarray:
    """Lines of ``walks`` root-to-leaf walks, one walk after the other.

    ``picks[k][i]`` is the child walk ``i`` takes below level ``k``; the
    tree has ``len(picks) + 1`` levels.
    """
    out = np.empty((walks, len(picks) + 1), dtype=np.int64)
    out[:, 0] = base
    level_base = 1  # nodes above the level being filled
    node = 0
    for level, pick in enumerate(picks, start=1):
        node = node * fanout + pick
        out[:, level] = base + level_base + node
        level_base += fanout**level
    return out.reshape(-1)


def interleave_compute(
    num_accesses: int,
    mean_compute: float,
    rng: np.random.Generator,
    jitter: float = 0.25,
) -> np.ndarray:
    """Per-access compute-burst lengths around ``mean_compute`` instructions.

    Jitter decorrelates warps so they do not issue memory in lockstep;
    bursts are clamped to be non-negative integers.
    """
    if num_accesses <= 0:
        raise TraceError(f"num_accesses must be positive, got {num_accesses}")
    low, high = burst_range(mean_compute, jitter)
    if jitter <= 0:
        return np.full(num_accesses, int(round(mean_compute)), dtype=np.int64)
    return round_bursts(rng.uniform(low, high, size=num_accesses))


def burst_range(mean_compute: float, jitter: float = 0.25) -> Tuple[float, float]:
    """The interval :func:`interleave_compute` draws burst lengths from."""
    if mean_compute < 0:
        raise TraceError(f"mean_compute must be >= 0, got {mean_compute}")
    return mean_compute * (1.0 - jitter), mean_compute * (1.0 + jitter)


def round_bursts(bursts: np.ndarray) -> np.ndarray:
    """Drawn burst lengths as non-negative whole instruction counts."""
    return np.maximum(0, np.rint(bursts)).astype(np.int64)
