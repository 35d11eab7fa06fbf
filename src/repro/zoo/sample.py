"""Seeded, stratified sampling of generated workloads.

Each scaling regime owns a small pool of grammar *templates* — closures
that draw parameters from a seeded RNG and return a grammar expression
designed to land in that regime on the quick campaign sizes (8/16/32
SMs, where the proportionally-scaled LLC crosses 2.125 / 4.25 / 8.5
nominal MB).  :func:`sample_spec` realizes one template draw;
:func:`sample_batch` deals ``n`` specs round-robin across the regimes so
every campaign covers all of them.

Sampling is a pure function of ``(regime, seed, index)``: the RNG is
seeded from those values alone, so the same call reproduces the same
spec digest bit for bit across processes and hosts.  The ``scale`` knob
only rescales CTA counts (work volume, hence campaign cost); it never
touches the access pattern itself.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import WorkloadError
from repro.workloads.generators import MAX_CTAS
from repro.workloads.spec import ScalingBehavior
from repro.zoo.grammar import (
    Burst,
    Expr,
    GeneratedSpec,
    Prim,
    Ramp,
    Repeat,
    Seq,
    realize,
)

__all__ = ["REGIMES", "sample_batch", "sample_spec"]

#: The intended-regime strata, in dealing order.
REGIMES: Tuple[str, ...] = tuple(b.value for b in ScalingBehavior)

#: Domain-separation salt so zoo RNG streams never collide with the
#: generators' own ``(seed, kernel, purpose)`` streams.
_SALT = 0x5A00_CAFE


def _u(rng: np.random.Generator, lo: float, hi: float) -> float:
    """A uniform draw rounded enough to keep JSON payloads tidy."""
    return float(np.round(rng.uniform(lo, hi), 4))


def _i(rng: np.random.Generator, lo: int, hi: int) -> int:
    """An inclusive integer draw."""
    return int(rng.integers(lo, hi + 1))


# --------------------------------------------------------------------------
# Templates.  Quick-campaign LLC walls (nominal MB): 2.125 @ 8 SMs,
# 4.25 @ 16, 8.5 @ 32 — a hot set between the last two cliffs exactly
# when the 16 -> 32 doubling is taken.
# --------------------------------------------------------------------------

def _t_cliff(rng: np.random.Generator) -> Expr:
    """Hot sweep sized to fall off the LLC until the largest size.

    ``l1_reuse`` is pinned to 1: L1 hits dilute the LLC cliff enough to
    flatten the jump below the classifier's doubling threshold.
    """
    return Prim("sweep", {
        "hot_mb": _u(rng, 5.8, 7.8),
        "l1_reuse": 1,
        "cpa": _u(rng, 3.0, 9.0),
        "apw": _i(rng, 4, 7),
    })


def _t_ramp_cliff(rng: np.random.Generator) -> Expr:
    """Working-set ramp whose last step crosses the 32-SM LLC wall."""
    return Ramp(
        Prim("sweep", {
            "hot_mb": _u(rng, 2.9, 3.6),
            "l1_reuse": 1,
            "cpa": _u(rng, 3.0, 8.0),
            "apw": _i(rng, 4, 6),
        }),
        steps=2,
        growth=_u(rng, 2.0, 2.2),
    )


def _t_burst_cliff(rng: np.random.Generator) -> Expr:
    """Bursty lockstep arrivals over a cliff-sized hot sweep.

    Bursts stress the NoC/LLC differently without touching capacity
    behaviour, so the cliff survives; a bypassing cold stream would not
    — even a few percent of cold traffic steals enough DRAM bandwidth
    to flatten the jump below the classifier's doubling threshold.
    """
    core: Expr = Prim("sweep", {
        "hot_mb": _u(rng, 6.0, 7.6),
        "l1_reuse": 1,
        "cpa": _u(rng, 3.0, 8.0),
        "apw": _i(rng, 4, 7),
    })
    if rng.integers(0, 2):
        core = Repeat(core, times=2)
    return Burst(core, intensity=_u(rng, 0.4, 0.9))


def _t_frontier(rng: np.random.Generator) -> Expr:
    """Power-law graph frontier with heavy per-CTA imbalance."""
    return Prim("frontier", {
        "fp_mb": _u(rng, 10.0, 24.0),
        "zipf_alpha": _u(rng, 0.7, 1.2),
        "sigma": _u(rng, 0.5, 0.9),
        "cpa": _u(rng, 4.0, 9.0),
        "apw": _i(rng, 6, 10),
    })


def _t_chase(rng: np.random.Generator) -> Expr:
    """Tree walks camping on the hot top levels."""
    return Prim("chase", {
        "fp_mb": _u(rng, 8.0, 24.0),
        "levels": _i(rng, 3, 5),
        "sigma": _u(rng, 0.1, 0.4),
        "cpa": _u(rng, 4.0, 9.0),
        "apw": _i(rng, 6, 10),
    })


def _t_hotspot(rng: np.random.Generator) -> Expr:
    """Tiny contended region (atomics proxy) plus cold traffic."""
    return Prim("hotspot", {
        "hot_lines": int(2 ** _i(rng, 6, 9)),
        "hot_frac": _u(rng, 0.35, 0.6),
        "zipf_alpha": _u(rng, 1.0, 1.4),
        "fp_mb": _u(rng, 4.0, 12.0),
        "cpa": _u(rng, 3.0, 8.0),
        "apw": _i(rng, 6, 10),
    })


def _t_frontier_hotspot(rng: np.random.Generator) -> Expr:
    """Phased mix of the two sub-linear mechanisms."""
    return Seq((_t_frontier(rng), _t_hotspot(rng)))


def _t_stream(rng: np.random.Generator) -> Expr:
    """Streaming far past every cache size in the sweep."""
    return Prim("stream", {
        "fp_mb": _u(rng, 40.0, 100.0),
        "random": float(rng.integers(0, 2)) * _u(rng, 0.1, 0.3),
        "cpa": _u(rng, 12.0, 28.0),
        "apw": _i(rng, 4, 8),
    })


def _t_tile(rng: np.random.Generator) -> Expr:
    """Compute-heavy tiling with strong L1 reuse."""
    return Prim("tile", {
        "fp_mb": _u(rng, 16.0, 48.0),
        "reps": _i(rng, 2, 4),
        "cpa": _u(rng, 12.0, 24.0),
        "apw": _i(rng, 8, 16),
    })


def _t_stream_tile(rng: np.random.Generator) -> Expr:
    """Phased memory/compute mix, optionally with bursty arrivals."""
    mix: Expr = Seq((_t_stream(rng), _t_tile(rng)))
    if rng.integers(0, 2):
        mix = Burst(mix, intensity=_u(rng, 0.3, 0.7))
    return mix


_TEMPLATES = {
    ScalingBehavior.SUPER_LINEAR.value: (
        _t_cliff, _t_ramp_cliff, _t_burst_cliff,
    ),
    ScalingBehavior.SUB_LINEAR.value: (
        _t_frontier, _t_chase, _t_hotspot, _t_frontier_hotspot,
    ),
    ScalingBehavior.LINEAR.value: (
        _t_stream, _t_tile, _t_stream_tile,
    ),
}


def sample_spec(
    regime: str, seed: int, index: int = 0, scale: float = 1.0
) -> GeneratedSpec:
    """Draw one generated workload intended for ``regime``.

    Deterministic in ``(regime, seed, index)``; ``scale`` rescales the
    CTA count only.  Raises :class:`~repro.exceptions.WorkloadError` on
    an unknown regime or non-positive scale.
    """
    if regime not in _TEMPLATES:
        raise WorkloadError(
            f"regime: expected one of {sorted(_TEMPLATES)}, got {regime!r}"
        )
    if scale <= 0:
        raise WorkloadError(f"scale: must be positive, got {scale}")
    rng = np.random.default_rng(
        (_SALT, REGIMES.index(regime), int(seed), int(index))
    )
    templates = _TEMPLATES[regime]
    expr = templates[int(rng.integers(len(templates)))](rng)
    # Enough CTAs that the largest campaign size still balances its
    # load — under ~900 CTAs a 32-SM sweep goes tail-limited and linear
    # intents measure sub-linear regardless of the access pattern.
    ctas = _i(rng, 1024, 2048)
    ctas = int(np.clip(round(ctas * scale), 768, MAX_CTAS))
    return realize(
        expr,
        seed=int(seed) * 10_000 + int(index),
        intent=regime,
        ctas_per_phase=ctas,
        threads_per_cta=128,
    )


def sample_batch(
    n: int,
    seed: int,
    regimes: Sequence[str] = REGIMES,
    scale: float = 1.0,
) -> Tuple[GeneratedSpec, ...]:
    """Draw ``n`` specs dealt round-robin across ``regimes``.

    Stratification is exact up to remainder: with ``n = 12`` and three
    regimes every regime contributes four specs.  The whole batch is
    deterministic in ``(n, seed, regimes, scale)``.
    """
    if n < 1:
        raise WorkloadError(f"n: must be >= 1, got {n}")
    if not regimes:
        raise WorkloadError("regimes: must not be empty")
    specs = []
    for position in range(n):
        regime = regimes[position % len(regimes)]
        specs.append(
            sample_spec(
                regime, seed, index=position // len(regimes), scale=scale
            )
        )
    return tuple(specs)
