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
from typing import Iterator, List, Optional, Tuple

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


class _Grid:
    """The draws of one kernel's grid, CTA by CTA.

    Drawing is the only per-CTA work in trace generation, and its order is
    the determinism contract: CTA ``c`` of kernel ``k`` owns a PCG64 stream
    seeded ``(seed, k, c)`` and draws the family's values first, then per
    warp its compute bursts followed by its launch offset
    (:meth:`draw_warps`).  Consecutive draws from one distribution may be
    fused into one sized call — same stream — but never reordered.
    Everything that does not draw runs once, on the whole kernel.
    """

    def __init__(
        self, ctx: "_TraceContext", cpa: float, kernel_idx: int,
        num_ctas: int, warps: int,
    ) -> None:
        self.warps = warps
        self.num_warps = num_ctas * warps
        self._seeds = [(ctx.seed, kernel_idx, cta_id) for cta_id in range(num_ctas)]
        self._burst_range = patterns.burst_range(cpa)
        self._lead_in = ctx.lead_in
        self._bursts: List[np.ndarray] = []
        self._offsets: List[int] = []
        self._lengths: List[int] = []

    def rngs(self) -> Iterator[np.random.Generator]:
        # What ``default_rng(seed)`` builds, minus its argument sniffing.
        return map(np.random.Generator, map(np.random.PCG64, self._seeds))

    def draw_warps(self, rng: np.random.Generator, accesses: int) -> None:
        """The draws that end a CTA whose warps make ``accesses`` each."""
        low, high = self._burst_range
        lead_in = self._lead_in
        uniform, integers = rng.uniform, rng.integers
        bursts, offsets = self._bursts, self._offsets
        for __ in range(self.warps):
            bursts.append(uniform(low, high, accesses))
            # Stagger warp launch (scheduler and launch overhead) so warps
            # do not issue memory in lockstep: identical warp periods would
            # otherwise resonate into synchronized request bursts no real
            # GPU exhibits.  The offset is idle time, not instructions.
            if lead_in > 0:
                offsets.append(integers(0, lead_in))
        self._lengths.append(accesses)

    def warp_lengths(self) -> np.ndarray:
        return np.repeat(np.asarray(self._lengths, dtype=np.int64), self.warps)

    def compile(self, lines: np.ndarray) -> CompiledKernel:
        offsets = self._offsets if self._lead_in > 0 else [0] * self.num_warps
        return CompiledKernel(
            lines,
            patterns.round_bursts(np.concatenate(self._bursts)),
            np.concatenate(([0], np.cumsum(self.warp_lengths()))),
            np.zeros(self.num_warps, dtype=np.int64),
            np.asarray(offsets, dtype=np.float64),
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
        # warp generations decorrelate (see _Grid.draw_warps); overridable.
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
    accesses = distinct * l1_reuse
    cold_lines_total = max(
        1, ctx.footprint_lines() - hot_lines if cold_frac > 0 else 1
    )
    grid = _Grid(ctx, ctx.cpa, kernel_idx, num_ctas, shape.warps_per_cta)
    cold_draws = []
    for rng in grid.rngs():
        if cold_frac > 0:
            cold_draws.append(rng.random(grid.warps * accesses))
        grid.draw_warps(rng, accesses)
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
        lines = np.where(np.concatenate(cold_draws) < cold_frac, cold, lines)
    return grid.compile(lines)


def _irregular_kernel(
    ctx: _TraceContext, shape: KernelShape, kernel_idx: int, num_ctas: int
) -> CompiledKernel:
    fp_lines = ctx.footprint_lines()
    zipf_exp = ctx.spec.param("zipf_exp", 0.0)
    if zipf_exp > 0:
        base = HOT_BASE
        weights = patterns.zipf_weights(fp_lines, zipf_exp)
    else:
        base = STREAM_BASE + kernel_idx * _KERNEL_STRIDE
    grid = _Grid(ctx, ctx.cpa, kernel_idx, num_ctas, shape.warps_per_cta)
    picks = []
    for rng in grid.rngs():
        apw = max(2, int(round(ctx.apw * ctx.cta_work_factor(rng))))
        count = grid.warps * apw
        if zipf_exp > 0:
            picks.append(rng.choice(fp_lines, size=count, p=weights))
        else:
            picks.append(rng.integers(0, fp_lines, size=count, dtype=np.int64))
        grid.draw_warps(rng, apw)
    return grid.compile(base + np.concatenate(picks))


def _stream_kernel(
    ctx: _TraceContext, shape: KernelShape, kernel_idx: int, num_ctas: int
) -> CompiledKernel:
    fp_lines = ctx.footprint_lines()
    random_access = ctx.spec.param("random", 0.0) > 0
    no_reuse = ctx.spec.param("no_reuse", 0.0) > 0
    kbase = STREAM_BASE + kernel_idx * _KERNEL_STRIDE
    grid = _Grid(ctx, ctx.cpa, kernel_idx, num_ctas, shape.warps_per_cta)
    count = grid.warps * ctx.apw
    picks = []
    for rng in grid.rngs():
        if random_access:
            picks.append(rng.integers(0, fp_lines, size=count, dtype=np.int64))
        grid.draw_warps(rng, ctx.apw)
    total = num_ctas * count
    if random_access:
        lines = kbase + np.concatenate(picks)
    elif no_reuse:
        # Fresh lines per access: models kernels that never touch the
        # same data twice (ht): every reference is a cold miss.
        lines = patterns.sequential(kbase, total)
    else:
        # Warp g streams ``apw`` lines from g * apw on, wrapping.
        lines = patterns.cyclic_sweep(kbase, fp_lines, total)
    return grid.compile(lines)


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
    for rng in grid.rngs():
        grid.draw_warps(rng, ctx.apw)
    # Warp g owns the ``apw`` lines from g * apw on, wrapping.
    return grid.compile(
        patterns.cyclic_sweep(kbase, fp_lines, grid.num_warps * ctx.apw)
    )


def _chase_kernel(
    ctx: _TraceContext, shape: KernelShape, kernel_idx: int, num_ctas: int
) -> CompiledKernel:
    fp_lines = ctx.footprint_lines()
    levels = int(ctx.spec.param("levels", 5))
    # Pick the fanout so the full tree holds about fp_lines nodes.
    fanout = max(2, int(round(fp_lines ** (1.0 / max(1, levels - 1)))))
    walks = max(1, ctx.apw // levels)
    grid = _Grid(ctx, ctx.cpa, kernel_idx, num_ctas, shape.warps_per_cta)
    draws = []
    for rng in grid.rngs():
        nwalks = max(1, int(round(walks * ctx.cta_work_factor(rng))))
        # Per warp, one child pick per walk for each level below the root.
        draws.append(
            rng.integers(
                0, fanout, size=grid.warps * (levels - 1) * nwalks, dtype=np.int64
            )
        )
        grid.draw_warps(rng, nwalks * levels)
    draws = np.concatenate(draws)
    # Walk i of a warp finds its pick for level k at k * nwalks + i of the
    # warp's (levels - 1) * nwalks draws.
    nwalks = grid.warp_lengths() // levels
    first_draw = np.cumsum(nwalks * (levels - 1)) - nwalks * (levels - 1)
    walk = _positions_in_runs(nwalks) + np.repeat(first_draw, nwalks)
    stride = np.repeat(nwalks, nwalks)
    picks = [draws[walk + level * stride] for level in range(levels - 1)]
    return grid.compile(patterns.tree_paths(TREE_BASE, fanout, len(walk), picks))


def _positions_in_runs(lengths: np.ndarray) -> np.ndarray:
    """``0 .. n-1`` for each run length ``n`` in turn."""
    starts = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum()), dtype=np.int64) - np.repeat(starts, lengths)


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
    if zipf_exp > 0:
        weights = patterns.zipf_weights(hot_lines, zipf_exp)
    kbase = COLD_BASE + kernel_idx * _KERNEL_STRIDE
    grid = _Grid(ctx, ctx.cpa, kernel_idx, num_ctas, shape.warps_per_cta)
    hot_draws, picks = [], []
    for rng in grid.rngs():
        n = max(2, int(round(ctx.apw * ctx.cta_work_factor(rng))))
        for __ in range(grid.warps):
            hot_draws.append(rng.random(n))
            if zipf_exp > 0:
                picks.append(rng.choice(hot_lines, size=n, p=weights))
            else:
                picks.append(rng.integers(0, hot_lines, size=n, dtype=np.int64))
        grid.draw_warps(rng, n)
    lengths = grid.warp_lengths()
    # Cold traffic (edge lists, one-shot payload data) never repeats:
    # fresh lines per warp, so the MPKI floor never caches away.
    first_cold = kbase + np.arange(grid.num_warps, dtype=np.int64) * (ctx.apw * 4)
    cold = np.repeat(first_cold, lengths) + _positions_in_runs(lengths)
    is_hot = np.concatenate(hot_draws) < hot_frac
    return grid.compile(np.where(is_hot, HOT_BASE + np.concatenate(picks), cold))


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
    is passed through so every phase keeps its own RNG stream and
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
    if spec.family == "generated":
        # Kernels are generated on first use; a bad spec is rejected now.
        for kernel_idx in range(len(spec.kernels)):
            _phase(ctx, kernel_idx)
    # repr() of the frozen spec covers every field, phases included.
    key = (repr(spec), work_scale, capacity_scale, seed)
    if _compiled_slot[0] != key:
        _compiled_slot = (key, [None] * len(spec.kernels))
    slots = _compiled_slot[1]
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
