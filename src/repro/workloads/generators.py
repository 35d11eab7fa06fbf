"""Trace-generator families for the benchmark miniatures.

Each family turns a :class:`~repro.workloads.spec.BenchmarkSpec` into a
:class:`~repro.trace.kernel.WorkloadTrace`.  All generators are
deterministic in ``(spec, work_scale, capacity_scale, seed)``.

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
from typing import Callable, List, Optional, Tuple

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


def _cta_rng(seed: int, kernel_idx: int, cta_id: int) -> np.random.Generator:
    return np.random.default_rng((seed, kernel_idx, cta_id))


#: One CTA as the family builders emit it: the warps' line and compute
#: streams back to back, then per-warp access counts and launch offsets.
_CtaArrays = Tuple[np.ndarray, np.ndarray, List[int], List[float]]


def _cta_arrays(
    lines_per_warp: List[np.ndarray],
    cpa: float,
    rng: np.random.Generator,
    lead_in: int = 0,
) -> _CtaArrays:
    compute = []
    offsets = []
    for lines in lines_per_warp:
        compute.append(patterns.interleave_compute(len(lines), cpa, rng))
        # Stagger warp launch (scheduler and launch overhead) so warps do
        # not issue memory in lockstep: identical warp periods would
        # otherwise resonate into synchronized request bursts no real GPU
        # exhibits.  The offset is idle time, not instructions.
        offsets.append(float(rng.integers(0, lead_in)) if lead_in > 0 else 0.0)
    # One array per CTA, not per warp: the pieces of a whole kernel are
    # alive at once while it compiles.
    return (
        np.concatenate(lines_per_warp),
        np.concatenate(compute),
        [len(lines) for lines in lines_per_warp],
        offsets,
    )


def _compile_kernel(
    build: Callable[[int], _CtaArrays], num_ctas: int
) -> CompiledKernel:
    """Run a family's per-CTA builder over the whole grid, once."""
    lines, compute, lengths, offsets, counts = [], [], [], [], []
    for cta_id in range(num_ctas):
        cta_lines, cta_compute, cta_lengths, cta_offsets = build(cta_id)
        lines.append(cta_lines)
        compute.append(cta_compute)
        lengths += cta_lengths
        offsets += cta_offsets
        counts.append(len(cta_lengths))
    return CompiledKernel.from_pieces(
        lines, compute, lengths, [0] * len(lengths), offsets, counts
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
        # warp generations decorrelate (see _cta_arrays); overridable.
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

    def cta_work_factor(self, rng: np.random.Generator) -> float:
        """Lognormal per-CTA work multiplier with unit mean."""
        if self.sigma <= 0:
            return 1.0
        z = rng.standard_normal()
        return float(np.exp(self.sigma * z - 0.5 * self.sigma * self.sigma))


# --------------------------------------------------------------------------
# Family builders: each returns a build_cta callable for one kernel.
# --------------------------------------------------------------------------

def _sweep_kernel(
    ctx: _TraceContext, shape: KernelShape, kernel_idx: int, num_ctas: int
) -> Callable[[int], _CtaArrays]:
    hot_lines = ctx.footprint_lines("hot_mb", ctx.spec.footprint_mb)
    cold_frac = ctx.spec.param("cold_frac", 0.0)
    # Short-range locality: each swept line is touched ``l1_reuse`` times
    # back to back (register blocking / multiple fields per element); the
    # repeats hit the private L1, as they do in the real kernels.
    l1_reuse = max(1, int(ctx.spec.param("l1_reuse", 2)))
    warps = shape.warps_per_cta
    apw = ctx.apw
    distinct = max(1, apw // l1_reuse)
    cold_lines_total = max(
        1, ctx.footprint_lines() - hot_lines if cold_frac > 0 else 1
    )

    def build(cta_id: int) -> _CtaArrays:
        rng = _cta_rng(ctx.seed, kernel_idx, cta_id)
        per_warp = []
        for w in range(warps):
            gidx = cta_id * warps + w
            hot = patterns.cyclic_sweep(
                HOT_BASE, hot_lines, distinct, offset=gidx * distinct
            )
            hot = np.repeat(hot, l1_reuse)
            if cold_frac > 0:
                # One-shot streaming traffic carries the LLC no-allocate
                # hint so it adds bandwidth pressure and an MPKI floor
                # without polluting the shared cache.
                n = len(hot)
                is_cold = rng.random(n) < cold_frac
                cold_start = (gidx * n) % cold_lines_total
                cold = BYPASS_BASE + (
                    cold_start + np.arange(n, dtype=np.int64)
                ) % cold_lines_total
                hot = np.where(is_cold, cold, hot)
            per_warp.append(hot)
        return _cta_arrays(per_warp, ctx.cpa, rng, ctx.lead_in)

    return build


def _irregular_kernel(
    ctx: _TraceContext, shape: KernelShape, kernel_idx: int, num_ctas: int
) -> Callable[[int], _CtaArrays]:
    fp_lines = ctx.footprint_lines()
    zipf_exp = ctx.spec.param("zipf_exp", 0.0)
    warps = shape.warps_per_cta
    base_apw = ctx.apw
    kbase = STREAM_BASE + kernel_idx * _KERNEL_STRIDE

    def build(cta_id: int) -> _CtaArrays:
        rng = _cta_rng(ctx.seed, kernel_idx, cta_id)
        factor = ctx.cta_work_factor(rng)
        apw = max(2, int(round(base_apw * factor)))
        per_warp = []
        for __ in range(warps):
            if zipf_exp > 0:
                lines = patterns.zipf(HOT_BASE, fp_lines, apw, rng, zipf_exp)
            else:
                lines = patterns.uniform_random(kbase, fp_lines, apw, rng)
            per_warp.append(lines)
        return _cta_arrays(per_warp, ctx.cpa, rng, ctx.lead_in)

    return build


def _stream_kernel(
    ctx: _TraceContext, shape: KernelShape, kernel_idx: int, num_ctas: int
) -> Callable[[int], _CtaArrays]:
    fp_lines = ctx.footprint_lines()
    random_access = ctx.spec.param("random", 0.0) > 0
    no_reuse = ctx.spec.param("no_reuse", 0.0) > 0
    warps = shape.warps_per_cta
    apw = ctx.apw
    kbase = STREAM_BASE + kernel_idx * _KERNEL_STRIDE

    def build(cta_id: int) -> _CtaArrays:
        rng = _cta_rng(ctx.seed, kernel_idx, cta_id)
        per_warp = []
        for w in range(warps):
            gidx = cta_id * warps + w
            if random_access:
                lines = patterns.uniform_random(kbase, fp_lines, apw, rng)
            elif no_reuse:
                # Fresh lines per access: models kernels that never touch
                # the same data twice (ht): every reference is a cold miss.
                lines = kbase + gidx * apw + np.arange(apw, dtype=np.int64)
            else:
                start = (gidx * apw) % fp_lines
                lines = kbase + (start + np.arange(apw, dtype=np.int64)) % fp_lines
            per_warp.append(lines)
        return _cta_arrays(per_warp, ctx.cpa, rng, ctx.lead_in)

    return build


def _tiled_kernel(
    ctx: _TraceContext, shape: KernelShape, kernel_idx: int, num_ctas: int
) -> Callable[[int], _CtaArrays]:
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
    warps = shape.warps_per_cta
    apw = ctx.apw
    kbase = TILE_BASE + kernel_idx * _KERNEL_STRIDE

    def build(cta_id: int) -> _CtaArrays:
        rng = _cta_rng(ctx.seed, kernel_idx, cta_id)
        per_warp = []
        for w in range(warps):
            gidx = cta_id * warps + w
            start = (gidx * apw) % max(1, fp_lines)
            per_warp.append(
                kbase + (start + np.arange(apw, dtype=np.int64)) % fp_lines
            )
        return _cta_arrays(per_warp, folded_cpa, rng, ctx.lead_in)

    return build


def _chase_kernel(
    ctx: _TraceContext, shape: KernelShape, kernel_idx: int, num_ctas: int
) -> Callable[[int], _CtaArrays]:
    fp_lines = ctx.footprint_lines()
    levels = int(ctx.spec.param("levels", 5))
    # Pick the fanout so the full tree holds about fp_lines nodes.
    fanout = max(2, int(round(fp_lines ** (1.0 / max(1, levels - 1)))))
    walks = max(1, ctx.apw // levels)
    warps = shape.warps_per_cta

    def build(cta_id: int) -> _CtaArrays:
        rng = _cta_rng(ctx.seed, kernel_idx, cta_id)
        factor = ctx.cta_work_factor(rng)
        nwalks = max(1, int(round(walks * factor)))
        per_warp = [
            patterns.pointer_chase_tree(TREE_BASE, levels, fanout, nwalks, rng)
            for __ in range(warps)
        ]
        return _cta_arrays(per_warp, ctx.cpa, rng, ctx.lead_in)

    return build


def _hotcold_kernel(
    ctx: _TraceContext, shape: KernelShape, kernel_idx: int, num_ctas: int
) -> Callable[[int], _CtaArrays]:
    # The hot region models shared reusable state (graph nodes, frontier
    # heads, accumulators); set ``hot_scaled`` when it grows with the
    # weak-scaling input (bfs graphs), leave 0 when it is fixed state.
    hot_lines = max(1, int(ctx.spec.param("hot_lines", 256)))
    if ctx.spec.param("hot_scaled", 0.0) > 0:
        hot_lines = max(1, int(round(hot_lines * ctx.work_scale)))
    hot_frac = ctx.spec.param("hot_frac", 0.2)
    zipf_exp = ctx.spec.param("zipf_exp", 1.1)
    warps = shape.warps_per_cta
    apw = ctx.apw
    kbase = COLD_BASE + kernel_idx * _KERNEL_STRIDE

    def build(cta_id: int) -> _CtaArrays:
        rng = _cta_rng(ctx.seed, kernel_idx, cta_id)
        factor = ctx.cta_work_factor(rng)
        n = max(2, int(round(apw * factor)))
        per_warp = []
        for w in range(warps):
            gidx = cta_id * warps + w
            is_hot = rng.random(n) < hot_frac
            if zipf_exp > 0:
                hot = patterns.zipf(HOT_BASE, hot_lines, n, rng, zipf_exp)
            else:
                hot = patterns.uniform_random(HOT_BASE, hot_lines, n, rng)
            # Cold traffic (edge lists, one-shot payload data) never repeats:
            # fresh lines per warp, so the MPKI floor never caches away.
            cold = kbase + gidx * apw * 4 + np.arange(n, dtype=np.int64)
            per_warp.append(np.where(is_hot, hot, cold))
        return _cta_arrays(per_warp, ctx.cpa, rng, ctx.lead_in)

    return build


def _generated_kernel(
    ctx: _TraceContext, shape: KernelShape, kernel_idx: int, num_ctas: int
) -> Callable[[int], _CtaArrays]:
    """Composite family for grammar-generated specs (:mod:`repro.zoo`).

    A generated spec carries one :class:`~repro.zoo.grammar.PhaseSpec`
    per kernel; each kernel delegates to its phase's underlying family
    with the phase parameters overlaid.  The original ``kernel_idx``
    is passed through so every phase keeps its own RNG stream and
    (for private regions) its own address range; sweep/hotspot phases
    deliberately share ``HOT_BASE`` so working-set ramps and phased
    mixes reuse the same hot region across phases.
    """
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


#: ``(key, [CompiledKernel or None per kernel])`` of the most recently
#: requested trace.  One entry, no knob: a prediction runs two simulations
#: and a miss-rate-curve pass over the same trace back to back, and the
#: later ones reuse what the first generated.  Replaced as soon as another
#: trace is requested, so it holds one workload's arrays (~16 B/access).
_compiled_slot: Tuple[Optional[tuple], List[Optional[CompiledKernel]]] = (None, [])


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
    :class:`~repro.trace.kernel.CompiledKernel` that later traces of the
    same arguments share (``_compiled_slot``).
    """
    global _compiled_slot
    if spec.family not in _FAMILIES:
        raise WorkloadError(
            f"{spec.abbr}: unknown generator family {spec.family!r}"
        )
    ctx = _TraceContext(spec, work_scale, capacity_scale, seed)
    family = _FAMILIES[spec.family]
    # repr() of the frozen spec covers every field, phases included.
    key = (repr(spec), work_scale, capacity_scale, seed)
    if _compiled_slot[0] != key:
        _compiled_slot = (key, [None] * len(spec.kernels))
    slots = _compiled_slot[1]
    kernels = []
    for kernel_idx, shape in enumerate(spec.kernels):
        num_ctas = _clamped_ctas(shape, work_scale)
        build = family(ctx, shape, kernel_idx, num_ctas)

        def compiled(kernel_idx=kernel_idx, build=build, num_ctas=num_ctas):
            if slots[kernel_idx] is None:
                slots[kernel_idx] = _compile_kernel(build, num_ctas)
            return slots[kernel_idx]

        kernels.append(
            KernelTrace(
                name=f"{spec.abbr}-k{kernel_idx}",
                num_ctas=num_ctas,
                threads_per_cta=shape.threads_per_cta,
                build_cta=lambda cta_id, c=compiled: c().build_cta(cta_id),
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
