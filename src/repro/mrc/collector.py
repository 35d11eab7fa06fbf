"""End-to-end miss-rate-curve collection from a workload trace.

Pipeline (Section V-A of the paper): functional trace → GPU-aware
interleaving (:mod:`repro.mrc.interleave`) → functional L1 filtering (one
pass for all virtual SMs) → LLC reference stream → stack distances → MPKI
at every LLC capacity of interest.  Each stage handles whole arrays.

This path involves no timing simulation, which is what makes miss-rate
curves orders of magnitude cheaper to collect than scale-model
performance profiles.
"""

from __future__ import annotations

import time as _time
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import PredictionError
from repro.gpu.config import GPUConfig
from repro.memory_regions import BYPASS_BASE
from repro.mrc.curve import MissRateCurve
from repro.mrc.interleave import interleaved_stream
from repro.mrc.stack_distance import (
    COLD, lru_misses, previous_occurrences, stack_distances,
)
from repro.mrc.statstack import reuse_miss_ratios
from repro.trace.kernel import WorkloadTrace
from repro.verify import runtime as verify_runtime


def paper_capacity_points(
    baseline: Optional[GPUConfig] = None,
    sizes: Sequence[int] = (8, 16, 32, 64, 128),
) -> List[int]:
    """Nominal LLC capacities of the paper's systems (2.125 ... 34 MB)."""
    base = baseline if baseline is not None else GPUConfig.paper_baseline()
    return [base.scaled(n).llc_size for n in sizes]


#: Offsets scanned before groups with windows still open get stack distances.
_WINDOW_STEPS = 32


def l1_miss_mask(
    vsm: np.ndarray, lines: np.ndarray, num_sets: int, assoc: int
) -> np.ndarray:
    """Which accesses of an interleaved stream miss their virtual SM's L1.

    An ``assoc``-way LRU set holds the ``assoc`` lines of the set touched
    most recently, so an access hits iff fewer than ``assoc`` distinct
    lines of its set were touched since the last access to its line: a
    stack distance below ``assoc`` on the stream regrouped, in order, by
    ``(vsm, set)``.  No cache is simulated; one pass serves every virtual
    SM.  A repeat of the reference before it in its group hits and adds
    no distinct line to any window, so it is dropped.  Reuse ``i`` of ``p``
    hits if its window ``(p, i)`` is shorter than ``assoc``; else the first
    occurrences in it (``previous[j] < p``) are counted offset by offset
    until they reach ``assoc`` (a miss) or the window ends (a hit).
    """
    group = lines % num_sets + vsm.astype(np.int64) * num_sets
    group = group.astype(np.min_scalar_type(group.max(initial=0)))
    order = np.argsort(group, kind="stable")  # a radix sort when 16-bit
    group, grouped = group[order], lines[order]
    keep = np.ones(len(lines), dtype=bool)
    keep[1:] = (grouped[1:] != grouped[:-1]) | (group[1:] != group[:-1])
    group, grouped = group[keep], grouped[keep]
    previous = previous_occurrences(grouped)
    previous[group[previous] != group] = COLD  # last seen by another group
    hit = previous >= 0  # until a window shows ``assoc`` other lines
    reuse = np.flatnonzero(hit)
    reuse = reuse[reuse - previous[reuse] > assoc]
    start, seen = previous[reuse], np.zeros(len(reuse), dtype=np.int32)
    for step in range(1, _WINDOW_STEPS + 1):
        if not len(reuse):
            break
        seen += previous[start + step] < start
        if step >= assoc:  # before that, no count or window can be done
            hit[reuse[seen >= assoc]] = False
            open_ = (seen < assoc) & (reuse - start > step + 1)
            reuse, start, seen = reuse[open_], start[open_], seen[open_]
    if len(reuse):  # whole groups, so every window stays inside
        runs = np.flatnonzero(np.isin(group, group[reuse]))
        last = previous[runs] - runs + np.arange(len(runs))
        distances = stack_distances(np.where(previous[runs] >= 0, last, COLD))
        hit[runs] = (distances >= 0) & (distances < assoc)
    misses = np.zeros(len(lines), dtype=bool)  # a dropped repeat hits
    misses[order[keep]] = ~hit
    return misses


def collect_miss_rate_curve(
    workload: WorkloadTrace,
    capacities_bytes: Optional[Sequence[int]] = None,
    config: Optional[GPUConfig] = None,
    method: str = "stack",
    num_virtual_sms: int = 16,
) -> MissRateCurve:
    """Collect the LLC miss-rate curve of ``workload``.

    ``capacities_bytes`` are nominal capacities (default: the paper's five
    system points); the configured ``capacity_scale`` converts them to
    simulated lines.  ``method`` selects the profiler:

    * ``"stack"`` — exact stack distances, counted offline (default);
    * ``"lru"`` — exact multi-capacity LRU simulation, the independent
      reference for ``"stack"``;
    * ``"statstack"`` — statistical estimate from reuse distances.
    """
    if method not in ("stack", "lru", "statstack"):
        raise PredictionError(
            f"unknown MRC method {method!r}; use stack, lru or statstack"
        )
    cfg = config if config is not None else GPUConfig.paper_baseline()
    # Any sequence, NumPy arrays included; elements become Python numbers.
    caps = np.asarray(() if capacities_bytes is None else capacities_bytes).tolist()
    if not caps:
        caps = paper_capacity_points(cfg)
    if any(c <= 0 for c in caps):
        raise PredictionError(f"capacities must be positive: {caps}")
    cap_lines = [
        max(1, int(c * cfg.capacity_scale) // cfg.line_size) for c in caps
    ]

    start = _time.perf_counter()
    vsm, lines = interleaved_stream(workload, num_virtual_sms, ctas_per_sm=6)
    l1_accesses = len(lines)
    llc = lines[l1_miss_mask(vsm, lines, cfg.l1_sets, cfg.l1_assoc)]
    llc_accesses = len(llc)
    if llc_accesses == 0:
        raise PredictionError(
            f"{workload.name}: no LLC accesses reached the profiler"
        )
    # No-allocate streaming hint: bypass lines miss at every capacity.
    profiled = llc[llc < BYPASS_BASE]
    bypass_misses = llc_accesses - len(profiled)
    del vsm, lines, llc  # the largest arrays alive; the counting needs room
    if method == "lru":
        misses = lru_misses(profiled, cap_lines)
    else:
        previous = previous_occurrences(profiled)
        cold = np.count_nonzero(previous < 0)
        if method == "stack":
            distances = stack_distances(previous)  # COLD is below any capacity
            misses = [cold + np.count_nonzero(distances >= c) for c in cap_lines]
        else:
            warm = np.flatnonzero(previous >= 0)
            ratios = reuse_miss_ratios(
                warm - previous[warm] - 1, cold, len(profiled), cap_lines
            )
            misses = [r * len(profiled) for r in ratios]
    misses = [float(m) + bypass_misses for m in misses]
    ratios = [m / llc_accesses for m in misses]

    thread_instructions = workload.count_instructions(32)
    kilo_instructions = thread_instructions / 1000.0
    mpki = [m / kilo_instructions for m in misses]
    elapsed = _time.perf_counter() - start
    curve = MissRateCurve(
        workload=workload.name,
        capacities_bytes=tuple(caps),
        mpki=tuple(mpki),
        miss_ratio=tuple(ratios),
        metadata={
            "method_stack": 1.0 if method == "stack" else 0.0,
            "l1_accesses": float(l1_accesses),
            "llc_accesses": float(llc_accesses),
            "thread_instructions": float(thread_instructions),
            "collection_seconds": elapsed,
        },
    )
    if verify_runtime.paranoid:
        # Every curve is built here, whoever asked for it.
        from repro.verify import invariants

        invariants.check_curve(curve)
    return curve
