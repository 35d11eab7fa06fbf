"""Address-pattern generators.

Each generator returns a numpy array of cache-line numbers.  The
benchmark miniatures in :mod:`repro.workloads` compose these primitives to
match the published footprint, reuse and sharing behaviour of each
benchmark:

* :func:`sequential` — streaming, no temporal reuse (cold misses only);
* :func:`cyclic_sweep` — repeated passes over a working set; under LRU this
  produces the textbook cliff at the working-set size, the mechanism behind
  the paper's super-linearly scaling workloads (dct, fwt, ...);
* :func:`uniform_random` — uniform references in a region, giving a smooth,
  gradually decaying miss-rate curve (bfs-like);
* :func:`zipf` — skewed popularity, concave miss-rate curve;
* :func:`strided` — fixed-stride walks;
* :func:`stencil_rows` — neighbour reuse along rows (stencil codes);
* :func:`pointer_chase_tree` — root-to-leaf walks in a B-tree-like
  structure whose top levels are shared and hot (camping on LLC slices);
* :func:`hot_cold` — a mix of hot shared lines and cold private lines.
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


def strided(start: int, count: int, stride: int) -> np.ndarray:
    """Alias of :func:`sequential` with a mandatory stride argument."""
    return sequential(start, count, stride)


def cyclic_sweep(base: int, ws_lines: int, count: int, offset: int = 0) -> np.ndarray:
    """Repeated in-order passes over a working set of ``ws_lines`` lines.

    Under LRU a cyclic sweep yields 0% hits while the cache is smaller than
    the working set and ~100% hits (after warm-up) once it fits — a sharp
    miss-rate cliff exactly at the working-set size.
    """
    _check_positive(ws_lines=ws_lines, count=count)
    idx = (offset + np.arange(count, dtype=np.int64)) % ws_lines
    return base + idx


def uniform_random(
    base: int, ws_lines: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniformly random references within a region of ``ws_lines`` lines."""
    _check_positive(ws_lines=ws_lines, count=count)
    return base + rng.integers(0, ws_lines, size=count, dtype=np.int64)


def zipf(
    base: int,
    ws_lines: int,
    count: int,
    rng: np.random.Generator,
    exponent: float = 1.2,
) -> np.ndarray:
    """Zipf-distributed references: line ``k`` has weight ``(k+1)**-exponent``.

    A random per-call permutation would break determinism of repeated
    builds, so popularity rank equals line index; callers who want hot
    lines spread across LLC slices should pass a scattered ``base`` or
    post-process.
    """
    _check_positive(count=count)
    weights = zipf_weights(ws_lines, exponent)
    return base + rng.choice(ws_lines, size=count, p=weights).astype(np.int64)


def zipf_weights(ws_lines: int, exponent: float) -> np.ndarray:
    """Popularity of each of ``ws_lines`` lines under :func:`zipf`."""
    _check_positive(ws_lines=ws_lines)
    if exponent <= 0:
        raise TraceError(f"zipf exponent must be positive, got {exponent}")
    ranks = np.arange(1, ws_lines + 1, dtype=np.float64)
    weights = ranks**-exponent
    weights /= weights.sum()
    return weights


def stencil_rows(
    base: int,
    row_lines: int,
    num_rows: int,
    count: int,
    offset_row: int = 0,
) -> np.ndarray:
    """Row-sweep with neighbour reuse: each step touches the line above.

    Models 2D stencils (hotspot, srad): the sweep reads row ``r`` and row
    ``r-1``, so each line is reused once with a short reuse distance
    (captured by a cache of about one row).
    """
    _check_positive(row_lines=row_lines, num_rows=num_rows, count=count)
    pos = np.arange(count, dtype=np.int64)
    row = (offset_row + pos // (2 * row_lines)) % num_rows
    col = (pos // 2) % row_lines
    is_north = pos % 2 == 1
    north_row = np.where(row > 0, row - 1, row)
    eff_row = np.where(is_north, north_row, row)
    return base + eff_row * row_lines + col


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


def hot_cold(
    hot_base: int,
    hot_lines: int,
    cold_base: int,
    cold_lines: int,
    count: int,
    hot_fraction: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Mix of hot shared lines and a cold streaming region.

    ``hot_fraction`` of references go to the hot region (uniform over
    ``hot_lines``); the rest stream sequentially through the cold region.
    """
    _check_positive(hot_lines=hot_lines, cold_lines=cold_lines, count=count)
    if not 0.0 <= hot_fraction <= 1.0:
        raise TraceError(f"hot_fraction must be in [0, 1], got {hot_fraction}")
    is_hot = rng.random(count) < hot_fraction
    hot = hot_base + rng.integers(0, hot_lines, size=count, dtype=np.int64)
    cold_idx = np.cumsum(~is_hot) - 1
    cold = cold_base + np.mod(cold_idx, cold_lines, dtype=np.int64)
    return np.where(is_hot, hot, cold)


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
