"""Artifact bundle export — the paper's figshare package, regenerated.

The paper's artifact distributes, per benchmark: (1) scale-model and
target IPC numbers, (2) miss-rate curves, (3) system configuration files
and (4) the prediction tool's outputs, so reviewers can verify every
reported error without re-simulation.  :func:`export_artifact` writes the
equivalent JSON bundle from this repository's (cached) runs:

    artifact/
      configs.json            Table I / Table V configurations
      strong/<bench>.json     IPCs, f_mem, MRC, predictions, errors
      weak/<bench>.json       weak-scaling equivalents
      summary.json            per-method avg/max error per experiment

Each per-benchmark file is exactly the input the ``gpu-scale-model`` CLI
needs, so the artifact round-trips: predictions can be re-derived from
the bundle alone.

A record is one :class:`~repro.analysis.experiments.RunnerStudy` — the
same description the figures run — re-keyed for JSON; the bundle's runs
are prefetched as one batch from those descriptions, so the weak-scaling
``base_size`` that sizes the lookups also sizes the prefetch.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Sequence

from repro.analysis.experiments import RunnerStudy, run_studies
from repro.analysis.runner import CachedRunner
from repro.core.workflow import ScaleModelStudy
from repro.gpu.config import (
    PAPER_SCALE_MODEL_SIZES,
    PAPER_SYSTEM_SIZES,
    PAPER_TARGET_SIZES,
    GPUConfig,
    McmConfig,
)
from repro.workloads import (
    STRONG_SCALING,
    WEAK_SCALING,
    strong_scaling_names,
    weak_scaling_names,
)
from repro.workloads.spec import BenchmarkSpec

#: The system size the Table IV inputs are catalogued at (work_scale 1).
_WEAK_BASE_SIZE = 8


def _record(spec: BenchmarkSpec, study: ScaleModelStudy) -> Dict:
    """One benchmark's study as its JSON record (sizes keyed as strings)."""
    record = {
        "benchmark": spec.abbr,
        "suite": spec.suite,
        "scenario": study.scenario,
        "scale_model_ipc": {
            str(n): study.results[n].ipc for n in study.scale_sizes
        },
        "f_mem": study.profile.f_mem,
    }
    curve = study.profile.curve
    if curve is not None:
        record["miss_rate_curve"] = {
            "capacities_mb": list(curve.capacities_mb),
            "mpki": list(curve.mpki),
        }
    record["target_ipc"] = {str(t): ipc for t, ipc in study.actuals.items()}
    record["predictions"] = {
        method: {str(t): ipc for t, ipc in per_target.items()}
        for method, per_target in study.predictions.items()
    }
    record["errors"] = {
        method: {str(t): error for t, error in study.errors(method).items()}
        for method in study.predictions
    }
    if curve is None:
        # Weak scaling: the wall times behind Figure 7.
        record["simulation_seconds"] = {
            str(n): result.wall_time_s for n, result in study.results.items()
        }
    return record


def strong_benchmark_record(
    abbr: str,
    runner: CachedRunner,
    scale_sizes: Sequence[int] = PAPER_SCALE_MODEL_SIZES,
    target_sizes: Sequence[int] = PAPER_TARGET_SIZES,
) -> Dict:
    """The artifact record for one strong-scaling benchmark."""
    plan = RunnerStudy(STRONG_SCALING[abbr], scale_sizes, target_sizes)
    return _record(plan.spec, plan.run(runner))


def weak_benchmark_record(
    abbr: str,
    runner: CachedRunner,
    scale_sizes: Sequence[int] = PAPER_SCALE_MODEL_SIZES,
    target_sizes: Sequence[int] = PAPER_TARGET_SIZES,
    base_size: int = _WEAK_BASE_SIZE,
) -> Dict:
    """The artifact record for one weak-scaling benchmark."""
    plan = RunnerStudy(
        WEAK_SCALING[abbr], scale_sizes, target_sizes, base_size=base_size
    )
    return _record(plan.spec, plan.run(runner))


def configs_record() -> Dict:
    """Table I + Table V configurations as plain data."""
    return {
        "monolithic": [
            GPUConfig.paper_system(n).describe() for n in PAPER_SYSTEM_SIZES
        ],
        "mcm_target": McmConfig.paper_target().describe(),
    }


def export_artifact(
    out_dir: str,
    runner: Optional[CachedRunner] = None,
    benchmarks: Optional[Sequence[str]] = None,
    weak_benchmarks: Optional[Sequence[str]] = None,
) -> Dict[str, int]:
    """Write the full artifact bundle; returns file counts per section."""
    runner = runner or CachedRunner()
    sizes = (PAPER_SCALE_MODEL_SIZES, PAPER_TARGET_SIZES)
    plans = [
        RunnerStudy(STRONG_SCALING[abbr], *sizes)
        for abbr in benchmarks or strong_scaling_names()
    ] + [
        RunnerStudy(WEAK_SCALING[abbr], *sizes, base_size=_WEAK_BASE_SIZE)
        for abbr in weak_benchmarks or weak_scaling_names()
    ]
    studies = run_studies(runner, plans)
    counts = {"strong": 0, "weak": 0}
    os.makedirs(os.path.join(out_dir, "strong"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "weak"), exist_ok=True)

    with open(os.path.join(out_dir, "configs.json"), "w") as fh:
        json.dump(configs_record(), fh, indent=2)

    summary: Dict[str, Dict] = {"strong": {}, "weak": {}}
    for plan, study in zip(plans, studies):
        record = _record(plan.spec, study)
        section, abbr = record["scenario"], record["benchmark"]
        with open(os.path.join(out_dir, section, f"{abbr}.json"), "w") as fh:
            json.dump(record, fh, indent=2)
        summary[section][abbr] = record["errors"]
        counts[section] += 1

    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    return counts
