"""Boundary-layer input validation: configs, traces, predictor inputs.

The dataclasses in :mod:`repro.gpu.config` and :mod:`repro.trace.kernel`
reject structurally impossible inputs at construction; this module adds
the *physical-plausibility* layer long batch runs depend on — a
nonsense input should fail loudly at the
boundary, with an actionable message, instead of producing a simulation
that silently runs forever or divides by zero three layers down.

Three families of checks:

* :func:`validate_config` / :func:`validate_mcm_config` — non-positive
  clocks and bandwidths, an LLC smaller than one cache line, degenerate
  issue/warp geometry (→ :class:`repro.exceptions.ConfigurationError`);
* :func:`validate_proportional_scaling` — a (scale-model, target) pair
  whose shared-resource ratios break the proportional-scaling rule that
  Eq. 1 of the paper assumes (→ ``ConfigurationError``);
* :func:`validate_trace` — structural trace health sampled per kernel:
  finite, non-negative compute bursts, line addresses and launch
  offsets (→ :class:`repro.exceptions.TraceError`);
* :func:`degenerate_curve_reason` — miss-rate curves with NaN/infinite
  points or non-positive capacities; the predictor degrades these to
  proportional scaling with a warning instead of raising (see
  :class:`repro.core.model.ScaleModelPredictor`).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.exceptions import ConfigurationError, TraceError
from repro.gpu.config import GPUConfig, McmConfig
from repro.trace.kernel import WorkloadTrace

__all__ = [
    "validate_config",
    "validate_mcm_config",
    "validate_proportional_scaling",
    "validate_trace",
    "degenerate_curve_reason",
]

#: Relative tolerance for proportional-scaling ratio checks (Eq. 1 rests
#: on resources scaling with SM count; rounding to whole slices/MCs makes
#: exact ratios unattainable at small sizes).
RATIO_TOLERANCE = 0.35


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def validate_config(config: GPUConfig) -> GPUConfig:
    """Physical-plausibility checks for one GPU configuration.

    Returns ``config`` unchanged so call sites can validate inline.
    Everything here is a property the timing model silently *mis*-handles
    rather than rejects: a zero clock collapses every bandwidth to zero
    bytes/cycle, an LLC smaller than one line means every "slice" is a
    zero-set cache, and negative latencies schedule events into the past.
    """
    name = config.name
    _require(
        config.sm_clock_hz > 0,
        f"{name}: sm_clock_hz must be positive, got {config.sm_clock_hz}",
    )
    _require(
        config.issue_width >= 1,
        f"{name}: issue_width must be >= 1, got {config.issue_width}",
    )
    _require(
        config.warps_per_sm >= 1,
        f"{name}: warps_per_sm must be >= 1, got {config.warps_per_sm}",
    )
    _require(
        config.threads_per_warp >= 1,
        f"{name}: threads_per_warp must be >= 1, got {config.threads_per_warp}",
    )
    _require(
        config.line_size >= 1,
        f"{name}: line_size must be >= 1, got {config.line_size}",
    )
    _require(
        config.llc_size >= config.line_size,
        f"{name}: LLC ({config.llc_size} B) is smaller than one cache "
        f"line ({config.line_size} B); no working set fits",
    )
    _require(
        config.l1_size >= config.line_size,
        f"{name}: L1 ({config.l1_size} B) is smaller than one cache "
        f"line ({config.line_size} B)",
    )
    _require(
        config.l1_assoc >= 1 and config.llc_assoc >= 1,
        f"{name}: cache associativity must be >= 1 "
        f"(l1={config.l1_assoc}, llc={config.llc_assoc})",
    )
    _require(
        config.l1_mshrs >= 1,
        f"{name}: l1_mshrs must be >= 1, got {config.l1_mshrs}",
    )
    _require(
        config.noc_bisection_bps > 0,
        f"{name}: NoC bisection bandwidth must be positive, "
        f"got {config.noc_bisection_bps}",
    )
    _require(
        config.noc_request_bytes >= 1,
        f"{name}: noc_request_bytes must be >= 1, "
        f"got {config.noc_request_bytes}",
    )
    _require(
        config.mc_bandwidth_bps > 0,
        f"{name}: per-MC bandwidth must be positive, "
        f"got {config.mc_bandwidth_bps}",
    )
    _require(
        config.llc_slice_throughput > 0,
        f"{name}: llc_slice_throughput must be positive, "
        f"got {config.llc_slice_throughput}",
    )
    for field in (
        "l1_hit_latency", "llc_latency", "dram_latency", "noc_latency"
    ):
        value = getattr(config, field)
        _require(
            math.isfinite(value) and value >= 0,
            f"{name}: {field} must be finite and >= 0, got {value}",
        )
    return config


def validate_mcm_config(config: McmConfig) -> McmConfig:
    """Plausibility checks for an MCM package (chiplet + interconnect)."""
    validate_config(config.chiplet)
    _require(
        config.inter_chiplet_bw_per_chiplet_bps > 0,
        f"{config.name}: inter-chiplet bandwidth must be positive, "
        f"got {config.inter_chiplet_bw_per_chiplet_bps}",
    )
    _require(
        math.isfinite(config.inter_chiplet_latency)
        and config.inter_chiplet_latency >= 0,
        f"{config.name}: inter_chiplet_latency must be finite and >= 0, "
        f"got {config.inter_chiplet_latency}",
    )
    return config


def validate_proportional_scaling(
    small: GPUConfig, large: GPUConfig, tolerance: float = RATIO_TOLERANCE
) -> float:
    """Check that ``(small, large)`` form a valid Eq.-1 scale-model pair.

    Eq. 1 compares IPC across sizes assuming the paper's proportional
    scaling rule: shared resources (LLC capacity, NoC bisection
    bandwidth, MC count) scale with the SM count while per-SM resources
    stay fixed.  Returns the scale factor ``large/small`` on success;
    raises :class:`ConfigurationError` naming the resource whose ratio
    deviates by more than ``tolerance`` (relative).
    """
    factor = large.num_sms / small.num_sms
    _require(
        factor >= 1.0,
        f"scale pair: target {large.name} ({large.num_sms} SMs) is "
        f"smaller than model {small.name} ({small.num_sms} SMs)",
    )
    for field in (
        "warps_per_sm", "threads_per_warp", "issue_width",
        "l1_size", "l1_assoc", "line_size",
    ):
        small_value, large_value = getattr(small, field), getattr(large, field)
        _require(
            small_value == large_value,
            f"scale pair {small.name} → {large.name}: per-SM resource "
            f"{field} changed ({small_value} → {large_value}); Eq. 1 "
            "requires fixed per-SM resources",
        )
    for field in ("llc_size", "noc_bisection_bps", "num_mcs"):
        small_value, large_value = getattr(small, field), getattr(large, field)
        ratio = large_value / small_value
        _require(
            abs(ratio - factor) <= tolerance * factor,
            f"scale pair {small.name} → {large.name}: shared resource "
            f"{field} scales by {ratio:.2f} but the SM count scales by "
            f"{factor:.2f}; proportional scaling (Eq. 1) is broken",
        )
    return factor


def _is_count(value) -> bool:
    """True for a finite, non-negative, integral number (int or float)."""
    try:
        return math.isfinite(value) and value >= 0 and value == int(value)
    except (TypeError, ValueError, OverflowError):
        return False


def validate_trace(workload: WorkloadTrace) -> WorkloadTrace:
    """Structural health checks on a workload trace, sampled per kernel.

    CTAs are built lazily and must be deterministic in ``cta_id``, so
    checking the first CTA of every kernel validates each generator at
    O(kernels) cost.  Catches what the dataclasses cannot: NaN launch
    offsets (NaN compares false against every bound), negative compute
    bursts and negative line addresses.
    """
    for kernel in workload.kernels:
        cta = kernel.build_cta(0)
        for warp_id, warp in enumerate(cta.warps):
            if not math.isfinite(warp.start_offset):
                raise TraceError(
                    f"{workload.name}/{kernel.name}: warp {warp_id} has "
                    f"non-finite start_offset {warp.start_offset}"
                )
            for burst in warp.compute:
                if not _is_count(burst):
                    raise TraceError(
                        f"{workload.name}/{kernel.name}: warp {warp_id} "
                        f"has invalid compute burst {burst!r} (need a "
                        "non-negative integer instruction count)"
                    )
            for line in warp.lines:
                if not _is_count(line):
                    raise TraceError(
                        f"{workload.name}/{kernel.name}: warp {warp_id} "
                        f"has invalid line address {line!r} (need a "
                        "non-negative integer line number)"
                    )
    return workload


def degenerate_curve_reason(curve) -> Optional[str]:
    """Why a miss-rate curve cannot drive cliff analysis, or ``None``.

    A degenerate curve (NaN/infinite miss rates, non-positive or
    unsorted capacities, fewer than two points) would poison the drop
    ratios Eq. 3 keys on; the predictor treats such profiles as
    curveless — every target pre-cliff, i.e. proportional scaling.
    """
    if len(curve.capacities_bytes) < 2:
        return f"miss-rate curve has {len(curve.capacities_bytes)} point(s)"
    previous = 0.0
    for capacity in curve.capacities_bytes:
        if not (capacity > 0) or not math.isfinite(capacity):
            return f"miss-rate curve capacity {capacity!r} is not positive"
        if capacity <= previous:
            return "miss-rate curve capacities are not strictly increasing"
        previous = capacity
    for series_name, series in (
        ("mpki", curve.mpki), ("miss_ratio", curve.miss_ratio)
    ):
        for value in series:
            if not math.isfinite(value):
                return f"miss-rate curve has non-finite {series_name} {value!r}"
    return None
