"""Miss-rate-curve machinery (Section V-A of the paper).

The strong-scaling workflow needs MPKI as a function of LLC capacity.
Collecting it through detailed timing simulation would defeat the purpose,
so — following the literature the paper builds on — this package provides

* :mod:`repro.mrc.stack_distance` — exact reuse/stack distances (Conte
  et al. [20]), counted offline on the whole stream and read at every
  capacity of interest, plus the streaming Fenwick-tree profiler they
  are tested against;
* :mod:`repro.mrc.statstack` — a StatStack-flavoured statistical
  approximation (Eklov and Hagersten [23]) built from forward reuse
  distances, much cheaper than exact stack distances;
* :mod:`repro.mrc.interleave` — a GPU-aware interleaving model in the
  spirit of Nugteren et al. [49]: per-warp streams are merged round-robin
  across warps, CTAs and SMs into the stream the functional L1 filter
  turns into the LLC reference stream;
* :mod:`repro.mrc.collector` — the end-to-end collector: workload trace →
  LLC stream → :class:`~repro.mrc.curve.MissRateCurve`;
* :mod:`repro.mrc.cliff` — region analysis (pre-cliff / cliff /
  post-cliff) used by the predictor.
"""

from repro.mrc.curve import MissRateCurve
from repro.mrc.cliff import CliffAnalysis, Region, analyze_regions
from repro.mrc.collector import collect_miss_rate_curve
from repro.mrc.stack_distance import StackDistanceProfiler
from repro.mrc.statstack import statstack_miss_ratios

__all__ = [
    "MissRateCurve",
    "CliffAnalysis",
    "Region",
    "analyze_regions",
    "collect_miss_rate_curve",
    "StackDistanceProfiler",
    "statstack_miss_ratios",
]
