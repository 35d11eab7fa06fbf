"""Trace-generator families for the benchmark miniatures.

Each family turns a :class:`~repro.workloads.spec.BenchmarkSpec` into a
:class:`~repro.trace.kernel.WorkloadTrace`.  All generators are
deterministic in ``(spec, work_scale, capacity_scale, seed)``, and each
generates a whole kernel at once: a few sized random draws per kernel
(see :class:`_Grid`), then array arithmetic — no loop over CTAs or warps.

Families
--------
``sweep``
    Repeated in-order passes over a shared hot working set (optionally
    mixed with a cold private stream).  Under LRU this produces a sharp
    miss-rate cliff at the hot working-set size — the paper's super-linear
    mechanism (dct, fwt, bp, va, as, lu, st).
``irregular``
    Uniform or Zipf references over the footprint, with lognormal per-CTA
    work — the workload-architecture-imbalance mechanism for sub-linear
    scaling (bfs, sr, gr).
``stream``
    Private streaming (sequential or random) through a footprint much
    larger than any cache — the linear, memory-intensive regime (pf, at,
    lbm, res50, res34).
``tiled``
    Small per-warp tiles reused many times (captured by the L1) plus high
    compute intensity — the linear, compute-intensive regime (gemm, 2mm,
    ht, bs).
``chase``
    Root-to-leaf walks over a shared tree: the hot top levels concentrate
    traffic on few LLC slices (camping), the paper's second sub-linear
    mechanism (btree).
``hotcold``
    A fixed-size hot shared region (Zipf) mixed with a cold scaling
    stream; used for unet and for the weak-scaling variants of bs.
``generated``
    Composite family for grammar-generated specs (:mod:`repro.zoo`):
    one kernel per phase, each delegating to one of the families above
    with phase-specific parameters.

Weak scaling multiplies CTA counts and footprints by ``work_scale``,
mirroring Table IV's input scaling.  A ``sigma_growth`` parameter lets
imbalance grow with input size (heavier tails in bigger graphs), which is
what makes bfs and bs sub-linear under weak scaling.
"""

from __future__ import annotations

import math
from typing import List, Optional, Union

import numpy as np

from repro.exceptions import WorkloadError
from repro.memory_regions import BYPASS_BASE
from repro.trace.kernel import CompiledKernel, KernelTrace, WorkloadTrace
from repro.trace import patterns
from repro.units import MB
from repro.workloads.spec import BenchmarkSpec, KernelShape

#: Cache-line size used throughout (Table I / Table III).
LINE_SIZE = 128

#: CTA-count clamp: paper grids reach 306k CTAs; pure-Python simulation
#: caps each kernel at this many CTAs and notes the substitution.
MAX_CTAS = 8192

#: Line-number bases for disjoint address regions.
HOT_BASE = 0
COLD_BASE = 1 << 34
STREAM_BASE = 1 << 35
TILE_BASE = 1 << 36
TREE_BASE = 1 << 37
_KERNEL_STRIDE = 1 << 30


def lines_for_mb(mb: float, capacity_scale: float) -> int:
    """Simulated cache lines for a nominal footprint of ``mb`` megabytes."""
    if mb <= 0:
        raise WorkloadError(f"footprint must be positive, got {mb}")
    return max(1, int(mb * MB * capacity_scale / LINE_SIZE))


def _clamped_ctas(shape: KernelShape, work_scale: float) -> int:
    scaled = int(round(shape.num_ctas * work_scale))
    return max(1, min(MAX_CTAS, scaled))


#: Version of the draw-order contract of :class:`_Grid`.  Result-store
#: keys and campaign plans carry it, so nothing computed from traces of
#: another contract is ever served for this one.
TRACE_CONTRACT = 2

#: Draw purposes: the third word of a kernel's stream seeds.
_WORK, _FAMILY, _BURSTS, _OFFSETS = range(4)


class _Grid:
    """One kernel's grid and the draws that define it.

    The draw-order contract: kernel ``k`` draws each purpose's values
    from its own PCG64 stream, seeded ``(seed, k, purpose)``, and reads
    that stream with one sized call in CTA-then-warp order — the per-CTA
    lognormal work factors (:meth:`cta_counts`, only when ``sigma > 0``),
    the family's own line, coin or child draws (:meth:`stream`), the
    compute bursts and the launch offsets (:meth:`compile`).  Since a
    sized draw's first values do not depend on its size, CTA ``c``'s work
    factor, bursts and offsets do not depend on how many CTAs the grid
    has.
    """

    def __init__(
        self, ctx: "_TraceContext", cpa: float, kernel_idx: int,
        num_ctas: int, warps: int,
    ) -> None:
        self.ctx = ctx
        self.cpa = cpa
        self.kernel_idx = kernel_idx
        self.num_ctas = num_ctas
        self.warps = warps
        self.num_warps = num_ctas * warps

    def stream(self, purpose: int) -> np.random.Generator:
        # What ``default_rng(seed)`` builds, minus its argument sniffing.
        seed = (self.ctx.seed, self.kernel_idx, purpose)
        return np.random.Generator(np.random.PCG64(seed))

    def cta_counts(self, mean: int, floor: int) -> np.ndarray:
        """Per-CTA ``mean`` times a lognormal work factor of unit mean,
        rounded, and at least ``floor``."""
        sigma = self.ctx.sigma
        factors = np.ones(self.num_ctas)
        if sigma > 0:
            z = self.stream(_WORK).standard_normal(self.num_ctas)
            factors = np.exp(sigma * z - 0.5 * sigma * sigma)
        return np.maximum(floor, np.rint(mean * factors)).astype(np.int64)

    def compile(
        self, lines: np.ndarray, accesses: Union[int, np.ndarray]
    ) -> CompiledKernel:
        """The kernel whose warps of CTA ``c`` make ``accesses[c]`` accesses
        each (or ``accesses``, when it is one number) to ``lines``."""
        lengths = np.repeat(np.broadcast_to(accesses, self.num_ctas), self.warps)
        low, high = patterns.burst_range(self.cpa)
        bursts = self.stream(_BURSTS).uniform(low, high, len(lines))
        # Stagger warp launch (scheduler and launch overhead) so warps do
        # not issue memory in lockstep: identical warp periods would
        # otherwise resonate into synchronized request bursts no real GPU
        # exhibits.  The offset is idle time, not instructions.
        offsets = np.zeros(self.num_warps)
        if self.ctx.lead_in > 0:
            offsets = self.stream(_OFFSETS).integers(
                0, self.ctx.lead_in, self.num_warps
            )
        return CompiledKernel(
            lines,
            patterns.round_bursts(bursts),
            np.concatenate(([0], np.cumsum(lengths))),
            np.zeros(self.num_warps, dtype=np.int64),
            offsets.astype(np.float64),
            np.arange(0, self.num_warps + 1, self.warps),
        )


class _TraceContext:
    """Resolved parameters shared by all family builders."""

    def __init__(
        self,
        spec: BenchmarkSpec,
        work_scale: float,
        capacity_scale: float,
        seed: int,
    ) -> None:
        if work_scale <= 0:
            raise WorkloadError(f"work_scale must be positive, got {work_scale}")
        self.spec = spec
        self.work_scale = work_scale
        self.capacity_scale = capacity_scale
        self.seed = seed
        self.cpa = spec.param("cpa", 8.0)
        self.apw = int(spec.param("apw", 24))
        # Default start-up stagger: comparable to one memory round trip so
        # warp generations decorrelate (see _Grid.compile); overridable.
        self.lead_in = int(
            spec.param("lead_in", max(900, round(2 * self.cpa * self.apw)))
        )
        sigma = spec.param("sigma", 0.0)
        growth = spec.param("sigma_growth", 0.0)
        if work_scale > 1 and growth > 0:
            sigma *= 1.0 + growth * math.log2(work_scale)
        self.sigma = sigma

    def footprint_lines(self, key: str = "fp_mb", default: float = None) -> int:
        mb = self.spec.param(key, default if default is not None else self.spec.footprint_mb)
        return lines_for_mb(mb * self.work_scale, self.capacity_scale)


# --------------------------------------------------------------------------
# Family builders: each generates one whole kernel.
# --------------------------------------------------------------------------

def _sweep_kernel(
    ctx: _TraceContext, shape: KernelShape, kernel_idx: int, num_ctas: int
) -> CompiledKernel:
    hot_lines = ctx.footprint_lines("hot_mb", ctx.spec.footprint_mb)
    cold_frac = ctx.spec.param("cold_frac", 0.0)
    # Short-range locality: each swept line is touched ``l1_reuse`` times
    # back to back (register blocking / multiple fields per element); the
    # repeats hit the private L1, as they do in the real kernels.
    l1_reuse = max(1, int(ctx.spec.param("l1_reuse", 2)))
    distinct = max(1, ctx.apw // l1_reuse)
    cold_lines_total = max(
        1, ctx.footprint_lines() - hot_lines if cold_frac > 0 else 1
    )
    grid = _Grid(ctx, ctx.cpa, kernel_idx, num_ctas, shape.warps_per_cta)
    # Warp g sweeps ``distinct`` lines from g * distinct on: back to back,
    # the warps of the grid make one long sweep.
    lines = np.repeat(
        patterns.cyclic_sweep(HOT_BASE, hot_lines, grid.num_warps * distinct),
        l1_reuse,
    )
    if cold_frac > 0:
        # One-shot streaming traffic carries the LLC no-allocate hint so it
        # adds bandwidth pressure and an MPKI floor without polluting the
        # shared cache.
        cold = patterns.cyclic_sweep(BYPASS_BASE, cold_lines_total, len(lines))
        coins = grid.stream(_FAMILY).random(len(lines))
        lines = np.where(coins < cold_frac, cold, lines)
    return grid.compile(lines, distinct * l1_reuse)


def _irregular_kernel(
    ctx: _TraceContext, shape: KernelShape, kernel_idx: int, num_ctas: int
) -> CompiledKernel:
    fp_lines = ctx.footprint_lines()
    zipf_exp = ctx.spec.param("zipf_exp", 0.0)
    grid = _Grid(ctx, ctx.cpa, kernel_idx, num_ctas, shape.warps_per_cta)
    apw = grid.cta_counts(ctx.apw, floor=2)
    count = grid.warps * int(apw.sum())
    draws = grid.stream(_FAMILY)
    if zipf_exp > 0:
        weights = patterns.zipf_weights(fp_lines, zipf_exp)
        lines = HOT_BASE + draws.choice(fp_lines, size=count, p=weights)
    else:
        base = STREAM_BASE + kernel_idx * _KERNEL_STRIDE
        lines = base + draws.integers(0, fp_lines, size=count, dtype=np.int64)
    return grid.compile(lines, apw)


def _stream_kernel(
    ctx: _TraceContext, shape: KernelShape, kernel_idx: int, num_ctas: int
) -> CompiledKernel:
    fp_lines = ctx.footprint_lines()
    kbase = STREAM_BASE + kernel_idx * _KERNEL_STRIDE
    grid = _Grid(ctx, ctx.cpa, kernel_idx, num_ctas, shape.warps_per_cta)
    total = grid.num_warps * ctx.apw
    if ctx.spec.param("random", 0.0) > 0:
        draws = grid.stream(_FAMILY)
        lines = kbase + draws.integers(0, fp_lines, size=total, dtype=np.int64)
    elif ctx.spec.param("no_reuse", 0.0) > 0:
        # Fresh lines per access: models kernels that never touch the
        # same data twice (ht): every reference is a cold miss.
        lines = patterns.sequential(kbase, total)
    else:
        # Warp g streams ``apw`` lines from g * apw on, wrapping.
        lines = patterns.cyclic_sweep(kbase, fp_lines, total)
    return grid.compile(lines, ctx.apw)


def _tiled_kernel(
    ctx: _TraceContext, shape: KernelShape, kernel_idx: int, num_ctas: int
) -> CompiledKernel:
    """Tiled compute kernels (gemm-style).

    Each warp works on a private tile of ``apw`` lines re-read ``reps``
    times.  Only the first pass reaches the memory system; the L1-resident
    re-reads are folded into the compute burst (``cpa`` per instruction
    slot times ``reps``), which keeps traces small without changing the
    LLC-visible stream.
    """
    fp_lines = ctx.footprint_lines()
    reps = max(1, int(ctx.spec.param("reps", 3)))
    folded_cpa = reps * (ctx.cpa + 1.0) - 1.0
    kbase = TILE_BASE + kernel_idx * _KERNEL_STRIDE
    grid = _Grid(ctx, folded_cpa, kernel_idx, num_ctas, shape.warps_per_cta)
    # Warp g owns the ``apw`` lines from g * apw on, wrapping.
    return grid.compile(
        patterns.cyclic_sweep(kbase, fp_lines, grid.num_warps * ctx.apw), ctx.apw
    )


def _chase_kernel(
    ctx: _TraceContext, shape: KernelShape, kernel_idx: int, num_ctas: int
) -> CompiledKernel:
    fp_lines = ctx.footprint_lines()
    levels = int(ctx.spec.param("levels", 5))
    # Pick the fanout so the full tree holds about fp_lines nodes.
    fanout = max(2, int(round(fp_lines ** (1.0 / max(1, levels - 1)))))
    grid = _Grid(ctx, ctx.cpa, kernel_idx, num_ctas, shape.warps_per_cta)
    nwalks = grid.cta_counts(max(1, ctx.apw // levels), floor=1)
    # Walk after walk, one child pick per level below the root.
    picks = grid.stream(_FAMILY).integers(
        0, fanout, size=(grid.warps * int(nwalks.sum()), levels - 1),
        dtype=np.int64,
    )
    lines = patterns.tree_paths(TREE_BASE, fanout, len(picks), picks.T)
    return grid.compile(lines, nwalks * levels)


def _hotcold_kernel(
    ctx: _TraceContext, shape: KernelShape, kernel_idx: int, num_ctas: int
) -> CompiledKernel:
    # The hot region models shared reusable state (graph nodes, frontier
    # heads, accumulators); set ``hot_scaled`` when it grows with the
    # weak-scaling input (bfs graphs), leave 0 when it is fixed state.
    hot_lines = max(1, int(ctx.spec.param("hot_lines", 256)))
    if ctx.spec.param("hot_scaled", 0.0) > 0:
        hot_lines = max(1, int(round(hot_lines * ctx.work_scale)))
    hot_frac = ctx.spec.param("hot_frac", 0.2)
    zipf_exp = ctx.spec.param("zipf_exp", 1.1)
    kbase = COLD_BASE + kernel_idx * _KERNEL_STRIDE
    grid = _Grid(ctx, ctx.cpa, kernel_idx, num_ctas, shape.warps_per_cta)
    accesses = grid.cta_counts(ctx.apw, floor=2)
    total = grid.warps * int(accesses.sum())
    # Cold traffic (edge lists, one-shot payload data) never repeats: each
    # warp's range starts where the previous warp's ended, so the MPKI
    # floor never caches away.
    lines = kbase + np.arange(total, dtype=np.int64)
    # One uniform per access is both the coin and, below ``hot_frac``
    # (where it is uniform again on [0, 1) once divided by it), the pick.
    coins = grid.stream(_FAMILY).random(total)
    is_hot = coins < hot_frac
    if zipf_exp > 0:
        cdf = np.cumsum(patterns.zipf_weights(hot_lines, zipf_exp))
    else:
        cdf = np.arange(1.0, hot_lines + 1)
    picks = np.searchsorted(
        cdf, coins[is_hot] / hot_frac * cdf[-1], side="right"
    )
    # A coin just below ``hot_frac`` can land on the last bound itself.
    lines[is_hot] = HOT_BASE + np.minimum(picks, hot_lines - 1)
    return grid.compile(lines, accesses)


def _phase(ctx: _TraceContext, kernel_idx: int):
    """The grammar phase behind kernel ``kernel_idx`` of a generated spec."""
    phases = getattr(ctx.spec, "phases", None)
    if not phases:
        raise WorkloadError(
            f"{ctx.spec.abbr}: family 'generated' requires a spec with "
            "per-kernel phases (see repro.zoo.grammar.GeneratedSpec)"
        )
    phase = phases[kernel_idx]
    if phase.family not in _FAMILIES or phase.family == "generated":
        raise WorkloadError(
            f"{ctx.spec.abbr}: phase {kernel_idx} names unknown family "
            f"{phase.family!r}"
        )
    return phase


def _generated_kernel(
    ctx: _TraceContext, shape: KernelShape, kernel_idx: int, num_ctas: int
) -> CompiledKernel:
    """Composite family for grammar-generated specs (:mod:`repro.zoo`).

    A generated spec carries one :class:`~repro.zoo.grammar.PhaseSpec`
    per kernel; each kernel delegates to its phase's underlying family
    with the phase parameters overlaid.  The original ``kernel_idx``
    is passed through so every phase keeps its own RNG streams and
    (for private regions) its own address range; sweep/hotspot phases
    deliberately share ``HOT_BASE`` so working-set ramps and phased
    mixes reuse the same hot region across phases.
    """
    phase = _phase(ctx, kernel_idx)
    sub_spec = BenchmarkSpec(
        abbr=f"{ctx.spec.abbr}.p{kernel_idx}",
        name=f"{ctx.spec.name} phase {kernel_idx}",
        suite="zoo",
        footprint_mb=float(phase.params.get("fp_mb", ctx.spec.footprint_mb)),
        insns_m=0.0,
        kernels=(shape,),
        scaling=ctx.spec.scaling,
        family=phase.family,
        params=dict(phase.params),
    )
    sub_ctx = _TraceContext(
        sub_spec, ctx.work_scale, ctx.capacity_scale, ctx.seed
    )
    return _FAMILIES[phase.family](sub_ctx, shape, kernel_idx, num_ctas)


_FAMILIES = {
    "sweep": _sweep_kernel,
    "irregular": _irregular_kernel,
    "stream": _stream_kernel,
    "tiled": _tiled_kernel,
    "chase": _chase_kernel,
    "hotcold": _hotcold_kernel,
    "generated": _generated_kernel,
}


def build_trace(
    spec: BenchmarkSpec,
    work_scale: float = 1.0,
    capacity_scale: float = 0.125,
    seed: int = 0,
) -> WorkloadTrace:
    """Build the workload trace for ``spec``.

    ``work_scale`` implements weak scaling (1.0 is the 8-SM-sized input;
    Table IV doubles it per doubling of system size); ``capacity_scale``
    must match the simulated GPU's miniaturization factor.

    Each kernel's CTAs are generated on first use, all at once, into a
    :class:`~repro.trace.kernel.CompiledKernel` that every later
    ``compiled()`` read of this trace shares; another ``build_trace`` call
    generates its own.
    """
    if spec.family not in _FAMILIES:
        raise WorkloadError(
            f"{spec.abbr}: unknown generator family {spec.family!r}"
        )
    ctx = _TraceContext(spec, work_scale, capacity_scale, seed)
    family = _FAMILIES[spec.family]
    if spec.family == "generated":
        # Kernels are generated on first use; a bad spec is rejected now.
        for kernel_idx in range(len(spec.kernels)):
            _phase(ctx, kernel_idx)
    slots: List[Optional[CompiledKernel]] = [None] * len(spec.kernels)
    kernels = []
    for kernel_idx, shape in enumerate(spec.kernels):
        num_ctas = _clamped_ctas(shape, work_scale)

        def compiled(kernel_idx=kernel_idx, shape=shape, num_ctas=num_ctas):
            if slots[kernel_idx] is None:
                slots[kernel_idx] = family(ctx, shape, kernel_idx, num_ctas)
            return slots[kernel_idx]

        kernels.append(
            KernelTrace(
                name=f"{spec.abbr}-k{kernel_idx}",
                threads_per_cta=shape.threads_per_cta,
                compiled=compiled,
            )
        )
    metadata = {
        "suite": spec.suite,
        "work_scale": work_scale,
        "capacity_scale": capacity_scale,
        "seed": seed,
    }
    warm = _warm_region(spec, ctx)
    if warm is not None:
        metadata["warm_region"] = warm
    return WorkloadTrace(
        name=spec.abbr,
        kernels=kernels,
        footprint_bytes=int(spec.footprint_mb * work_scale * MB),
        metadata=metadata,
    )


def _warm_region(spec: BenchmarkSpec, ctx: _TraceContext):
    """(base_line, num_lines) of the reusable hot region, if any.

    Long-running benchmarks reach a steady state where the hot working set
    is already cache-resident; the simulator pre-warms the LLC with this
    region so the (much shorter) miniature measures steady-state behaviour
    instead of cold-start warm-up — the same warm-up treatment sampled
    simulation applies before its region of interest.
    """
    if spec.family == "sweep":
        return (HOT_BASE, ctx.footprint_lines("hot_mb", spec.footprint_mb))
    if spec.family == "hotcold":
        hot_lines = max(1, int(spec.param("hot_lines", 256)))
        if spec.param("hot_scaled", 0.0) > 0:
            hot_lines = max(1, int(round(hot_lines * ctx.work_scale)))
        return (HOT_BASE, hot_lines)
    # chase (btree) is left cold: pointer-chased trees are rebuilt per
    # query batch, and warming the whole tree would hide the LLC-capacity
    # recovery that shapes its sub-linear curve.
    return None
