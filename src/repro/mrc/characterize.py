"""Workload characterization from reuse behaviour.

Table II of the paper characterizes each benchmark by its memory footprint
and (implicitly, via Section IV) its data reuse; this module measures both
from a trace, closing the loop between the catalog's *declared* properties
and what the generated streams actually do:

* :func:`footprint_lines` — distinct lines touched (the footprint column);
* :func:`reuse_factor` — mean touches per distinct line (the "high data
  reuse" property that separates super-linear dct from zero-reuse ht);
* :func:`working_set_knees` — capacities where the miss ratio improves
  fastest, i.e. the working-set hierarchy visible in the stack-distance
  histogram.

Used by the Table II verification harness and available to users
characterizing their own workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import TraceError
from repro.memory_regions import BYPASS_BASE
from repro.mrc.stack_distance import StackDistanceProfiler
from repro.trace.kernel import WorkloadTrace
from repro.units import MB


@dataclass(frozen=True)
class WorkloadCharacter:
    """Measured reuse characterization of one workload trace."""

    workload: str
    accesses: int
    footprint_lines: int
    bypass_lines: int            # one-shot streaming (no-allocate) lines
    reuse_factor: float          # accesses per distinct (cacheable) line
    knees_lines: Tuple[int, ...]  # working-set knees, ascending

    def footprint_mb(self, line_size: int = 128, capacity_scale: float = 0.125) -> float:
        """Footprint in nominal (paper-scale) megabytes."""
        return self.footprint_lines * line_size / capacity_scale / MB

    def knees_mb(self, line_size: int = 128, capacity_scale: float = 0.125) -> List[float]:
        return [k * line_size / capacity_scale / MB for k in self.knees_lines]


def characterize(workload: WorkloadTrace, max_accesses: Optional[int] = None) -> WorkloadCharacter:
    """Measure footprint, reuse and working-set knees of a trace.

    Walks the raw (unshuffled) access stream once; ``max_accesses`` caps
    the walk for very large traces (a documented sampling of the prefix).
    """
    profiler = StackDistanceProfiler()
    bypass: set = set()
    stream = np.concatenate([k.compiled().lines for k in workload.kernels])
    stream = stream[:max_accesses]
    seen = len(stream)
    for line in stream.tolist():
        if line >= BYPASS_BASE:
            bypass.add(line)
        else:
            profiler.access(line)
    if seen == 0:
        raise TraceError(f"{workload.name}: empty access stream")
    knees = working_set_knees(profiler)
    cacheable = profiler.accesses
    return WorkloadCharacter(
        workload=workload.name,
        accesses=seen,
        footprint_lines=profiler.distinct_lines + len(bypass),
        bypass_lines=len(bypass),
        reuse_factor=(cacheable / profiler.distinct_lines
                      if profiler.distinct_lines else 0.0),
        knees_lines=tuple(knees),
    )


def working_set_knees(
    profiler: StackDistanceProfiler,
    capacities: Optional[Sequence[int]] = None,
    min_gain: float = 0.08,
) -> List[int]:
    """Capacities (in lines) where hit ratio jumps by >= ``min_gain``.

    Capacities default to a geometric ladder up to the footprint; a knee at
    capacity ``c`` means the working set between the previous ladder point
    and ``c`` is heavily reused — the discrete analogue of the miss-rate
    cliff the predictor exploits.
    """
    if profiler.accesses == 0:
        return []
    if capacities is None:
        top = max(2, profiler.distinct_lines)
        ladder = []
        c = 16
        while c < top:
            ladder.append(c)
            c *= 2
        ladder.append(top)
        capacities = ladder
    knees = []
    prev_hit = 0.0
    for capacity in capacities:
        hit = 1.0 - profiler.miss_ratio_at(capacity)
        if hit - prev_hit >= min_gain:
            knees.append(capacity)
        prev_hit = hit
    return knees


def characterize_catalog(
    specs: Dict[str, "object"],
    build,
    max_accesses: int = 60000,
) -> Dict[str, WorkloadCharacter]:
    """Characterize every benchmark in a catalog (prefix-sampled)."""
    out = {}
    for abbr, spec in specs.items():
        out[abbr] = characterize(build(spec), max_accesses=max_accesses)
    return out
