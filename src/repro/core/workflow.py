"""The end-to-end scale-model simulation workflow (Figure 3), once.

:func:`study` is the whole flow: simulate the scale models (detailed
timing), collect the miss-rate curve under strong scaling (functional,
one-time cost), build the one :class:`ScaleModelProfile`, predict every
target with every method (:func:`predict_all`), optionally simulate the
targets, and score.  Weak scaling simulates the scale models with
proportionally scaled inputs and needs no miss-rate curve: the working
set scales with the system, so no cliff can occur.

The heavy steps are callables, so the same body serves the plain
simulator, cached runners and fakes in tests.
:func:`predict_strong_scaling` and :func:`predict_weak_scaling` are the
per-benchmark front doors; they take

* ``simulate_fn(num_sms, work_scale) -> SimulationResult``
* ``mrc_fn() -> MissRateCurve``

and default both to the detailed simulator and the exact collector.
With ``runner=`` (a :class:`repro.analysis.runner.CachedRunner`) the
run list and the lookups come from
:class:`repro.analysis.experiments.RunnerStudy` — the description every
figure, the artifact bundle and the zoo campaign use — and the study's
runs are submitted as one batch first, so misses execute across the
runner's worker pool (``docs/ARCHITECTURE.md`` § "A study, end to end").
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.accuracy import prediction_error
from repro.core.baselines import METHOD_NAMES, make_predictor
from repro.core.model import PredictionResult, ScaleModelPredictor
from repro.core.profile import ScaleModelProfile
from repro.exceptions import ExecutionError, PredictionError
from repro.gpu import GPUConfig, simulate as simulate_detailed
from repro.gpu.results import SimulationResult
from repro.mrc import MissRateCurve, collect_miss_rate_curve
from repro.workloads import build_trace
from repro.workloads.spec import BenchmarkSpec


@dataclass
class ScaleModelStudy:
    """All predictions (every method) for one workload and scenario.

    ``results`` keeps the detailed run of every scale-model size (and of
    every target size once the actuals ran); ``scale_model`` keeps the
    :class:`PredictionResult` — region, correction factor, details —
    behind each ``predictions["scale-model"]`` entry.
    """

    workload: str
    scenario: str
    scale_sizes: Sequence[int]
    target_sizes: Sequence[int]
    profile: ScaleModelProfile
    predictions: Dict[str, Dict[int, float]] = field(default_factory=dict)
    actuals: Dict[int, float] = field(default_factory=dict)
    results: Dict[int, SimulationResult] = field(default_factory=dict)
    scale_model: Dict[int, PredictionResult] = field(default_factory=dict)

    def errors(self, method: str) -> Dict[int, float]:
        """Relative errors per target size (requires actuals)."""
        if method not in self.predictions:
            raise PredictionError(
                f"{self.workload}: no predictions for {method!r}"
            )
        if not self.actuals:
            raise PredictionError(f"{self.workload}: no actuals recorded")
        return {
            size: prediction_error(predicted, self.actuals[size])
            for size, predicted in self.predictions[method].items()
            if size in self.actuals
        }


#: Every curve in this repository is collected on the paper baseline's
#: capacity points, so the capacity axis maps to system sizes through
#: that configuration — not through whichever scale model is smallest.
_BASELINE = GPUConfig.paper_baseline()
_LLC_BYTES_PER_SM = _BASELINE.llc_size / _BASELINE.num_sms


def work_scale_at(size: int, base_size: Optional[int]) -> float:
    """Share of the catalogued input a size-``size`` system runs.

    ``base_size=None`` is strong scaling: every system runs the whole
    input.  Otherwise the weak-scaling rule applies — the input grows
    with the system, ``size / base_size`` (Table IV; the MCM case study
    scales by chiplet count, base 1).
    """
    return 1.0 if base_size is None else size / base_size


def predict_all(
    profile: ScaleModelProfile,
    target_sizes: Sequence[int],
    methods: Sequence[str] = METHOD_NAMES,
) -> Tuple[Dict[str, Dict[int, float]], Dict[int, PredictionResult]]:
    """Predict every target with every method — the one method loop.

    Returns ``predictions[method][target]`` (IPC, in ``methods`` order)
    and the :class:`PredictionResult` per target behind its
    ``"scale-model"`` row (empty when that method is not asked for).
    """
    predictions: Dict[str, Dict[int, float]] = {}
    scale_model: Dict[int, PredictionResult] = {}
    for method in methods:
        if method == "scale-model":
            predictor = ScaleModelPredictor(
                profile,
                capacity_per_unit=(
                    _LLC_BYTES_PER_SM if profile.curve is not None else None
                ),
            )
            scale_model = {t: predictor.predict(t) for t in target_sizes}
            predictions[method] = {t: r.ipc for t, r in scale_model.items()}
        else:
            fitted = make_predictor(method).fit(profile.sizes, profile.ipcs)
            predictions[method] = {t: fitted.predict(t) for t in target_sizes}
    return predictions, scale_model


def study(
    workload: str,
    scenario: str,
    simulate: Callable[[int], SimulationResult],
    scale_sizes: Sequence[int],
    target_sizes: Sequence[int],
    curve: Optional[Callable[[], MissRateCurve]] = None,
    methods: Sequence[str] = METHOD_NAMES,
    include_actuals: bool = True,
) -> ScaleModelStudy:
    """Figure 3 for one workload.

    Calls ``simulate(size)`` for the scale models in ascending size,
    then ``curve()`` (strong scaling only), predicts, and — with
    ``include_actuals`` — calls ``simulate`` for every target.
    """
    if max(scale_sizes) > min(target_sizes):
        raise PredictionError(
            f"scale models {scale_sizes} must be smaller than targets {target_sizes}"
        )
    sizes = tuple(sorted(scale_sizes))
    results = {n: simulate(n) for n in sizes}
    profile = ScaleModelProfile(
        workload=workload,
        sizes=sizes,
        ipcs=tuple(results[n].ipc for n in sizes),
        f_mem=results[sizes[-1]].memory_stall_fraction,
        curve=curve() if curve is not None else None,
    )
    predictions, scale_model = predict_all(profile, target_sizes, methods)
    if include_actuals:
        for t in target_sizes:
            results[t] = simulate(t)
    return ScaleModelStudy(
        workload=workload,
        scenario=scenario,
        scale_sizes=tuple(scale_sizes),
        target_sizes=tuple(target_sizes),
        profile=profile,
        predictions=predictions,
        actuals=(
            {t: results[t].ipc for t in target_sizes} if include_actuals else {}
        ),
        results=results,
        scale_model=scale_model,
    )


def _default_simulate(
    spec: BenchmarkSpec, num_sms: int, work_scale: float
) -> SimulationResult:
    config = GPUConfig.paper_system(num_sms)
    trace = build_trace(
        spec, work_scale=work_scale, capacity_scale=config.capacity_scale
    )
    return simulate_detailed(config, trace)


def _default_curve(spec: BenchmarkSpec) -> MissRateCurve:
    trace = build_trace(spec, capacity_scale=_BASELINE.capacity_scale)
    return collect_miss_rate_curve(trace, config=_BASELINE)


def _predict(
    spec: BenchmarkSpec,
    scale_sizes: Sequence[int],
    target_sizes: Sequence[int],
    base_size: Optional[int],
    simulate_fn: Optional[Callable],
    curve: Optional[Callable],
    include_actuals: bool,
    runner,
) -> ScaleModelStudy:
    """Both front doors: ``base_size=None`` is strong scaling."""
    if runner is None:
        run = simulate_fn or partial(_default_simulate, spec)
        return study(
            spec.abbr,
            "strong" if base_size is None else "weak",
            lambda n: run(n, work_scale_at(n, base_size)),
            scale_sizes,
            target_sizes,
            curve=curve,
            include_actuals=include_actuals,
        )
    # Deferred: repro.core must stay importable without repro.analysis.
    from repro.analysis.experiments import RunnerStudy, prefetch

    plan = RunnerStudy(
        spec, scale_sizes, target_sizes,
        base_size=base_size, include_actuals=include_actuals,
    )
    # The prefetch is an optimization: it fans cache misses across a
    # worker pool.  If the batch fails (worker faults, timeouts), the
    # completed results are already merged into the store, so the study
    # can still proceed — the lazy in-process path below recomputes
    # whatever is missing and surfaces the underlying error only if the
    # run fails deterministically.
    try:
        prefetch(runner, plan.requests())
    except ExecutionError as error:
        warnings.warn(
            f"{spec.abbr}: parallel prefetch failed ({error}); "
            "continuing with in-process execution for the missing runs"
        )
    return plan.run(runner)


def predict_strong_scaling(
    spec: BenchmarkSpec,
    scale_sizes: Sequence[int] = (8, 16),
    target_sizes: Sequence[int] = (32, 64, 128),
    simulate_fn: Optional[Callable] = None,
    mrc_fn: Optional[Callable] = None,
    include_actuals: bool = True,
    runner=None,
) -> ScaleModelStudy:
    """Run the full strong-scaling workflow for one benchmark.

    ``runner=`` takes the place of both callables.
    """
    return _predict(
        spec, scale_sizes, target_sizes, None, simulate_fn,
        mrc_fn or partial(_default_curve, spec), include_actuals, runner,
    )


def predict_weak_scaling(
    spec: BenchmarkSpec,
    scale_sizes: Sequence[int] = (8, 16),
    target_sizes: Sequence[int] = (32, 64, 128),
    base_size: int = 8,
    simulate_fn: Optional[Callable] = None,
    include_actuals: bool = True,
    runner=None,
) -> ScaleModelStudy:
    """Run the weak-scaling workflow: inputs scale with system size and
    the miss-rate curve is unnecessary (pre-cliff by construction).

    ``runner=`` takes the place of ``simulate_fn``.
    """
    if not spec.weak_scalable:
        raise PredictionError(f"{spec.abbr} has no weak-scaling inputs")
    return _predict(
        spec, scale_sizes, target_sizes, base_size, simulate_fn, None,
        include_actuals, runner,
    )
