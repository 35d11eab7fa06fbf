"""Seeded workload fuzzer: random specs through the verify machinery.

Each :class:`FuzzCase` is a randomly generated :class:`BenchmarkSpec`
(family, grid shapes, generator knobs, footprint) plus a system size and
seed.  :func:`check_case` drives the case through the strongest oracles
the verify subsystem has:

* a paranoia-mode run (every invariant at every boundary and event);
* a determinism differential (two runs of the same case must digest
  identically at every boundary);
* a checked-vs-plain differential replay (paranoia mode must observe a
  run, never change it).

Everything is seeded: the same ``seed`` always generates the same spec
and the same verdict, so CI runs a fixed seed list and a red case is
reproducible with one number.  Failing cases are *shrunk* greedily —
fewer kernels, fewer CTAs, narrower CTAs, less work — to the smallest
configuration that still fails, which is what lands in the report.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.workloads.spec import BenchmarkSpec, KernelShape, ScalingBehavior

__all__ = [
    "FuzzCase",
    "FuzzFailure",
    "FuzzReport",
    "check_case",
    "random_case",
    "run_fuzz",
    "shrink",
]

_FAMILY_NAMES = ("sweep", "irregular", "stream", "tiled", "chase", "hotcold")

#: Generator knobs the fuzzer perturbs, with (low, high) sampling ranges.
#: All are optional for every family (``spec.param`` has defaults), so a
#: knob landing on a family that ignores it is harmless by construction.
_PARAM_RANGES = {
    "cpa": (2.0, 16.0),
    "apw": (8, 32),
    "sigma": (0.0, 0.5),
    "cold_frac": (0.0, 0.6),
    "l1_reuse": (1, 4),
    "zipf_exp": (0.0, 1.3),
    "hot_lines": (64, 512),
    "reps": (1, 4),
    "levels": (3, 6),
}


@dataclass(frozen=True)
class FuzzCase:
    """One fuzzed configuration: a spec plus how to run it."""

    spec: BenchmarkSpec
    size: int
    work_scale: float
    seed: int

    def describe(self) -> str:
        shapes = ", ".join(
            f"{k.num_ctas}x{k.threads_per_cta}" for k in self.spec.kernels
        )
        return (
            f"{self.spec.abbr} family={self.spec.family} kernels=[{shapes}] "
            f"footprint={self.spec.footprint_mb:.2f}MB "
            f"params={dict(self.spec.params)} size={self.size} "
            f"work_scale={self.work_scale} seed={self.seed}"
        )


@dataclass(frozen=True)
class FuzzFailure:
    case: FuzzCase
    error: str
    shrunk: FuzzCase


@dataclass(frozen=True)
class FuzzReport:
    cases_run: int
    failures: Tuple[FuzzFailure, ...]
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return not self.failures


def random_case(seed: int) -> FuzzCase:
    """Deterministically generate one fuzz case from a seed."""
    rng = random.Random(seed)
    family = rng.choice(_FAMILY_NAMES)
    kernels = tuple(
        KernelShape(
            num_ctas=rng.randint(2, 6),
            threads_per_cta=rng.choice((32, 64, 128)),
        )
        for _ in range(rng.randint(1, 3))
    )
    params = {}
    for name, (low, high) in _PARAM_RANGES.items():
        if rng.random() < 0.4:
            if isinstance(low, int):
                params[name] = float(rng.randint(low, high))
            else:
                params[name] = round(rng.uniform(low, high), 3)
    spec = BenchmarkSpec(
        abbr=f"fuzz{seed}",
        name=f"fuzzed workload (seed {seed})",
        suite="fuzz",
        footprint_mb=round(rng.uniform(0.5, 4.0), 2),
        insns_m=1.0,
        kernels=kernels,
        scaling=ScalingBehavior.LINEAR,
        family=family,
        params=params,
    )
    return FuzzCase(
        spec=spec,
        size=rng.choice((2, 4)),
        work_scale=round(rng.uniform(0.05, 0.25), 3),
        seed=seed,
    )


def check_case(case: FuzzCase) -> Optional[str]:
    """Run every oracle on one case; ``None`` means it survived them all.

    Returns a one-line failure description otherwise (invariant
    violation, nondeterminism, or replay divergence).
    """
    from repro.gpu import GPUConfig
    from repro.gpu.gpu import GPUSimulator
    from repro.verify import hooks
    from repro.verify.replay import (
        digest_run,
        first_divergence,
        replay_checked_vs_plain,
    )
    from repro.workloads import build_trace

    config = GPUConfig.paper_baseline().scaled(case.size)

    def factory():
        return GPUSimulator(config)

    try:
        trace = build_trace(
            case.spec,
            work_scale=case.work_scale,
            capacity_scale=config.capacity_scale,
            seed=case.seed,
        )
        with hooks.paranoia(True):
            first = digest_run(factory, trace)
            second = digest_run(factory, trace)
            divergence = first_divergence(first, second)
            if divergence is not None:
                return f"nondeterministic replay: {divergence}"
        _, _, divergence = replay_checked_vs_plain(factory, trace)
        if divergence is not None:
            return f"checked-vs-plain divergence: {divergence}"
    except ReproError as error:
        return f"{type(error).__name__}: {error}"
    return None


def _candidates(case: FuzzCase) -> List[FuzzCase]:
    """Strictly-simpler variants of a case, most aggressive first."""
    out: List[FuzzCase] = []
    spec = case.spec
    if len(spec.kernels) > 1:
        for drop in range(len(spec.kernels)):
            kernels = spec.kernels[:drop] + spec.kernels[drop + 1:]
            out.append(replace(case, spec=replace(spec, kernels=kernels)))
    smaller = tuple(
        KernelShape(
            num_ctas=max(1, k.num_ctas // 2),
            threads_per_cta=k.threads_per_cta,
            work_share=k.work_share,
        )
        for k in spec.kernels
    )
    if smaller != spec.kernels:
        out.append(replace(case, spec=replace(spec, kernels=smaller)))
    narrower = tuple(
        KernelShape(
            num_ctas=k.num_ctas, threads_per_cta=32, work_share=k.work_share
        )
        for k in spec.kernels
    )
    if narrower != spec.kernels:
        out.append(replace(case, spec=replace(spec, kernels=narrower)))
    if spec.params:
        out.append(replace(case, spec=replace(spec, params={})))
    if case.work_scale > 0.05:
        out.append(
            replace(case, work_scale=round(case.work_scale / 2, 3))
        )
    if case.size > 2:
        out.append(replace(case, size=2))
    return out


def shrink(
    case: FuzzCase,
    failing: Callable[[FuzzCase], Optional[str]] = check_case,
    max_rounds: int = 32,
) -> FuzzCase:
    """Greedily minimize a failing case while it keeps failing."""
    current = case
    for _ in range(max_rounds):
        for candidate in _candidates(current):
            try:
                still_fails = failing(candidate) is not None
            except Exception:
                # A candidate that fails *differently* (e.g. now too
                # small to build) is not a simplification of this bug.
                still_fails = False
            if still_fails:
                current = candidate
                break
        else:
            return current
    return current


def run_fuzz(
    seeds,
    time_budget_s: Optional[float] = None,
    shrink_failures: bool = True,
) -> FuzzReport:
    """Check every seed (stopping early at the time budget if given)."""
    start = time.monotonic()
    failures: List[FuzzFailure] = []
    cases_run = 0
    for seed in seeds:
        if (
            time_budget_s is not None
            and time.monotonic() - start > time_budget_s
        ):
            break
        case = random_case(seed)
        error = check_case(case)
        cases_run += 1
        if error is not None:
            shrunk = shrink(case) if shrink_failures else case
            failures.append(FuzzFailure(case, error, shrunk))
    return FuzzReport(
        cases_run=cases_run,
        failures=tuple(failures),
        elapsed_s=time.monotonic() - start,
    )
