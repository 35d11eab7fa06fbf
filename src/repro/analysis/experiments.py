"""Experiment runners: one function per table and figure of the paper.

Every runner returns a structured result object with an ``as_text()``
rendering that prints the same rows/series the paper reports.  Runners
take a :class:`~repro.analysis.runner.CachedRunner` so repeated
invocations (tests, benchmarks, the CLI) reuse simulation results.

The prediction figures (4-8) are all the Figure-3 flow on a runner:
each describes its benchmarks as :class:`RunnerStudy` values, hands
every study's runs to the runner as one batch (:func:`run_studies`) and
reshapes the resulting :class:`~repro.core.workflow.ScaleModelStudy`
objects — no figure builds a profile, loops over methods or scores an
error itself (``docs/ARCHITECTURE.md`` § "A study, end to end").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.ascii_plot import plot_series
from repro.analysis.classify import classify_scaling
from repro.analysis.parallel import RunRequest
from repro.analysis.runner import CachedRunner
from repro.analysis.tables import render_percent, render_table
from repro.core.accuracy import ErrorSummary, geometric_mean, summarize_errors
from repro.core.baselines import METHOD_NAMES
from repro.core.workflow import ScaleModelStudy, study, work_scale_at
from repro.exceptions import PredictionError
from repro.gpu.config import (
    PAPER_SCALE_MODEL_SIZES,
    PAPER_SYSTEM_SIZES,
    GPUConfig,
    McmConfig,
)
from repro.mrc.cliff import analyze_regions
from repro.workloads import (
    MCM_WEAK_BENCHMARKS,
    STRONG_SCALING,
    WEAK_SCALING,
    strong_scaling_names,
    weak_scaling_names,
)
from repro.workloads.spec import BenchmarkSpec

#: Benchmarks shown in Figure 4 (the paper plots 18 of the 21; lbm, pf and
#: bs appear in Table II but 4a/4b label 18 bars + avg — we include all 21
#: and report both subsets).
FIG5_BENCHMARKS = (
    "dct", "fwt", "as", "lu",      # super-linear row
    "bfs", "gr", "sr", "btree",    # sub-linear row
    "pf", "ht", "at", "gemm",      # linear row
)


def prefetch(runner, requests: Sequence[RunRequest]) -> None:
    """Hand the figure's full run list to the runner's worker pool.

    Each experiment enumerates its runs up front and submits them as one
    batch, so cache misses execute in parallel when the runner has a
    pool (``jobs > 1``); runners without a ``prefetch`` method (fakes in
    tests) fall back to lazy in-process execution.
    """
    submit = getattr(runner, "prefetch", None)
    if submit is not None and requests:
        submit(requests)


@dataclass(frozen=True)
class RunnerStudy:
    """One Figure-3 study on a cached runner: its run list and its result.

    ``base_size=None`` is strong scaling — every size runs ``work_scale``
    of the input and the miss-rate curve is collected; otherwise the
    weak-scaling rule sizes each input and no curve is needed.  With
    ``kind="mcm"`` the sizes are chiplet counts.
    """

    spec: BenchmarkSpec
    scale_sizes: Sequence[int]
    target_sizes: Sequence[int]
    base_size: Optional[int] = None
    kind: str = "sim"
    work_scale: float = 1.0
    seed: int = 0
    methods: Sequence[str] = METHOD_NAMES
    include_actuals: bool = True

    def _work_scale(self, size: int) -> float:
        return self.work_scale * work_scale_at(size, self.base_size)

    def requests(self) -> List[RunRequest]:
        """Every run :meth:`run` will look up, for one ``prefetch``."""
        sizes = set(self.scale_sizes)
        if self.include_actuals:
            sizes.update(self.target_sizes)
        requests = [
            RunRequest(self.kind, self.spec, n, self._work_scale(n), self.seed)
            for n in sorted(sizes)
        ]
        if self.base_size is None:
            requests.append(RunRequest(
                "mrc", self.spec, work_scale=self.work_scale, seed=self.seed
            ))
        return requests

    def run(self, runner) -> ScaleModelStudy:
        """The study, every run served by (or computed through) ``runner``."""
        strong, mcm = self.base_size is None, self.kind == "mcm"
        lookup = runner.simulate_mcm if mcm else runner.simulate

        def simulate(size: int):
            return lookup(
                self.spec, size, work_scale=self._work_scale(size), seed=self.seed
            )

        def curve():
            return runner.miss_rate_curve(
                self.spec, work_scale=self.work_scale, seed=self.seed
            )

        return study(
            self.spec.abbr,
            "strong" if strong else "mcm-weak" if mcm else "weak",
            simulate,
            self.scale_sizes,
            self.target_sizes,
            curve=curve if strong else None,
            methods=self.methods,
            include_actuals=self.include_actuals,
        )


def run_studies(
    runner, plans: Sequence[RunnerStudy]
) -> List[ScaleModelStudy]:
    """Run ``plans`` off one prefetch batch; studies in plan order."""
    prefetch(runner, [r for plan in plans for r in plan.requests()])
    return [plan.run(runner) for plan in plans]


# ---------------------------------------------------------------------------
# Tables I / III / V: configuration derivations.
# ---------------------------------------------------------------------------

def table1_rows() -> List[Dict[str, str]]:
    """Table I: scale models derived through proportional resource scaling."""
    rows = []
    for sms in sorted(PAPER_SYSTEM_SIZES, reverse=True):
        row = GPUConfig.paper_system(sms).describe()
        row["role"] = "target" if sms >= 32 else "scale model"
        rows.append(row)
    return rows


def table1_text() -> str:
    rows = table1_rows()
    return render_table(
        ["role", "#SMs", "LLC", "NoC bisection BW", "Main memory"],
        [
            [r["role"], r["#SMs"], r["LLC"], r["NoC bisection BW"], r["Main memory"]]
            for r in rows
        ],
        title="Table I: proportional resource scaling",
    )


def table5_text() -> str:
    desc = McmConfig.paper_target().describe()
    return render_table(
        ["parameter", "value"],
        list(desc.items()),
        title="Table V: 16-chiplet MCM target system",
    )


# ---------------------------------------------------------------------------
# Table II / Figure 1 / Figure 2: scaling behaviour and miss-rate curves.
# ---------------------------------------------------------------------------

@dataclass
class ScalingCurves:
    """IPC-versus-size curves plus classification (Figure 1 / Table II)."""

    benchmarks: List[str]
    sizes: Tuple[int, ...]
    ipcs: Dict[str, Dict[int, float]]
    measured_class: Dict[str, str]
    expected_class: Dict[str, str]

    @property
    def all_match(self) -> bool:
        return all(
            self.measured_class[b] == self.expected_class[b]
            for b in self.benchmarks
        )

    def as_text(self) -> str:
        rows = []
        for bench in self.benchmarks:
            row = [bench]
            row += [f"{self.ipcs[bench][s]:.0f}" for s in self.sizes]
            row += [self.expected_class[bench], self.measured_class[bench]]
            rows.append(row)
        headers = ["bench"] + [f"{s}SM" for s in self.sizes] + ["paper", "measured"]
        return render_table(headers, rows, title="Figure 1 / Table II: IPC vs system size")

    def plot(self, bench: str) -> str:
        ipcs = [self.ipcs[bench][s] for s in self.sizes]
        linear = [ipcs[0] * s / self.sizes[0] for s in self.sizes]
        return plot_series(
            [float(s) for s in self.sizes],
            {"real IPC": ipcs, "linear scaling": linear},
            title=f"{bench}: performance vs system size",
            x_label="#SMs",
        )


def figure1_scaling(
    benchmarks: Sequence[str] = ("dct", "bfs", "pf"),
    runner: Optional[CachedRunner] = None,
    sizes: Sequence[int] = PAPER_SYSTEM_SIZES,
) -> ScalingCurves:
    """Figure 1 (and the Table II classification check)."""
    runner = runner or CachedRunner()
    prefetch(runner, [
        RunRequest("sim", STRONG_SCALING[abbr], size=n)
        for abbr in benchmarks
        for n in sizes
    ])
    ipcs: Dict[str, Dict[int, float]] = {}
    measured, expected = {}, {}
    for abbr in benchmarks:
        spec = STRONG_SCALING[abbr]
        ipcs[abbr] = {n: runner.simulate(spec, n).ipc for n in sizes}
        measured[abbr] = classify_scaling(
            [ipcs[abbr][n] for n in sizes], list(sizes)
        ).value
        expected[abbr] = spec.scaling.value
    return ScalingCurves(
        benchmarks=list(benchmarks),
        sizes=tuple(sizes),
        ipcs=ipcs,
        measured_class=measured,
        expected_class=expected,
    )


@dataclass
class MissRateCurves:
    """Figure 2: MPKI versus LLC capacity."""

    benchmarks: List[str]
    capacities_mb: Tuple[float, ...]
    mpki: Dict[str, Tuple[float, ...]]
    cliff_step: Dict[str, Optional[int]]

    def as_text(self) -> str:
        rows = []
        for bench in self.benchmarks:
            row = [bench] + [f"{m:.2f}" for m in self.mpki[bench]]
            step = self.cliff_step[bench]
            row.append("-" if step is None else f"{self.capacities_mb[step]:g}->"
                        f"{self.capacities_mb[step + 1]:g} MB")
            rows.append(row)
        headers = ["bench"] + [f"{c:g}MB" for c in self.capacities_mb] + ["cliff"]
        return render_table(headers, rows, title="Figure 2: miss rate curves (MPKI)")


def figure2_miss_rate_curves(
    benchmarks: Sequence[str] = ("dct", "bfs", "pf"),
    runner: Optional[CachedRunner] = None,
) -> MissRateCurves:
    runner = runner or CachedRunner()
    prefetch(runner, [
        RunRequest("mrc", STRONG_SCALING[abbr]) for abbr in benchmarks
    ])
    mpki, cliffs = {}, {}
    caps_mb: Tuple[float, ...] = ()
    for abbr in benchmarks:
        curve = runner.miss_rate_curve(STRONG_SCALING[abbr])
        caps_mb = curve.capacities_mb
        mpki[abbr] = curve.mpki
        cliffs[abbr] = analyze_regions(curve).cliff_step
    return MissRateCurves(
        benchmarks=list(benchmarks),
        capacities_mb=caps_mb,
        mpki=mpki,
        cliff_step=cliffs,
    )


# ---------------------------------------------------------------------------
# Figures 4/5/6: prediction accuracy.
# ---------------------------------------------------------------------------

@dataclass
class AccuracyExperiment:
    """Per-benchmark, per-method prediction errors for one target size."""

    scenario: str
    target_size: int
    scale_sizes: Tuple[int, ...]
    errors: Dict[str, Dict[str, float]]  # method -> benchmark -> error
    predictions: Dict[str, Dict[str, float]] = field(default_factory=dict)
    actuals: Dict[str, float] = field(default_factory=dict)

    def summaries(self) -> List[ErrorSummary]:
        return summarize_errors(self.errors)

    def mean_error(self, method: str) -> float:
        per_bench = self.errors[method]
        return sum(per_bench.values()) / len(per_bench)

    def max_error(self, method: str) -> float:
        return max(self.errors[method].values())

    def best_method(self) -> str:
        return min(self.errors, key=self.mean_error)

    def as_text(self) -> str:
        benches = sorted(next(iter(self.errors.values())))
        rows = []
        for bench in benches:
            rows.append(
                [bench]
                + [render_percent(self.errors[m][bench]) for m in METHOD_NAMES]
            )
        rows.append(
            ["avg"]
            + [render_percent(self.mean_error(m)) for m in METHOD_NAMES]
        )
        rows.append(
            ["max"]
            + [render_percent(self.max_error(m)) for m in METHOD_NAMES]
        )
        return render_table(
            ["bench"] + list(METHOD_NAMES),
            rows,
            title=(
                f"{self.scenario} scaling, {self.target_size}-SM target "
                f"(scale models: {'/'.join(map(str, self.scale_sizes))} SMs)"
            ),
        )


def _accuracy_at(
    target: int, studies: Sequence[ScaleModelStudy]
) -> AccuracyExperiment:
    """One target size of per-benchmark ``studies`` as a figure."""
    return AccuracyExperiment(
        scenario=studies[0].scenario,
        target_size=target,
        scale_sizes=studies[0].scale_sizes,
        errors={
            m: {st.workload: st.errors(m)[target] for st in studies}
            for m in METHOD_NAMES
        },
        predictions={
            m: {st.workload: st.predictions[m][target] for st in studies}
            for m in METHOD_NAMES
        },
        actuals={st.workload: st.actuals[target] for st in studies},
    )


def figure4_strong_accuracy(
    target_size: int = 128,
    benchmarks: Optional[Sequence[str]] = None,
    runner: Optional[CachedRunner] = None,
    scale_sizes: Sequence[int] = PAPER_SCALE_MODEL_SIZES,
) -> AccuracyExperiment:
    """Figure 4a (128-SM target) / 4b (64-SM target)."""
    runner = runner or CachedRunner()
    studies = run_studies(runner, [
        RunnerStudy(STRONG_SCALING[abbr], scale_sizes, (target_size,))
        for abbr in benchmarks or strong_scaling_names()
    ])
    return _accuracy_at(target_size, studies)


@dataclass
class PredictionCurves:
    """Figure 5: real vs predicted IPC as a function of system size."""

    benchmarks: List[str]
    sizes: Tuple[int, ...]
    real: Dict[str, Dict[int, float]]
    predicted: Dict[str, Dict[str, Dict[int, float]]]  # bench -> method -> size

    def as_text(self) -> str:
        blocks = []
        methods = ["scale-model", "proportional", "linear", "power-law"]
        for bench in self.benchmarks:
            rows = [["real"] + [f"{self.real[bench][s]:.0f}" for s in self.sizes]]
            for m in methods:
                rows.append(
                    [m]
                    + [
                        f"{self.predicted[bench][m].get(s, float('nan')):.0f}"
                        if s in self.predicted[bench][m]
                        else "-"
                        for s in self.sizes
                    ]
                )
            blocks.append(
                render_table(
                    ["series"] + [f"{s}SM" for s in self.sizes],
                    rows,
                    title=f"Figure 5: {bench}",
                )
            )
        return "\n\n".join(blocks)


def figure5_prediction_curves(
    benchmarks: Sequence[str] = FIG5_BENCHMARKS,
    runner: Optional[CachedRunner] = None,
    scale_sizes: Sequence[int] = PAPER_SCALE_MODEL_SIZES,
    target_sizes: Sequence[int] = (32, 64, 128),
) -> PredictionCurves:
    runner = runner or CachedRunner()
    studies = run_studies(runner, [
        RunnerStudy(STRONG_SCALING[abbr], scale_sizes, target_sizes)
        for abbr in benchmarks
    ])
    sizes = tuple(sorted(set(scale_sizes) | set(target_sizes)))
    return PredictionCurves(
        benchmarks=list(benchmarks),
        sizes=sizes,
        real={
            st.workload: {n: st.results[n].ipc for n in sizes} for st in studies
        },
        predicted={st.workload: st.predictions for st in studies},
    )


def _weak_studies(
    runner, scale_sizes: Sequence[int], target_sizes: Sequence[int], base_size: int
) -> List[ScaleModelStudy]:
    """The Table IV benchmarks under weak scaling (Figures 6 and 7)."""
    return run_studies(runner, [
        RunnerStudy(
            WEAK_SCALING[abbr], scale_sizes, target_sizes, base_size=base_size
        )
        for abbr in weak_scaling_names()
    ])


def figure6_weak_accuracy(
    target_sizes: Sequence[int] = (32, 64, 128),
    runner: Optional[CachedRunner] = None,
    scale_sizes: Sequence[int] = PAPER_SCALE_MODEL_SIZES,
    base_size: int = 8,
) -> Dict[int, AccuracyExperiment]:
    """Figure 6: weak-scaling prediction error per target size."""
    runner = runner or CachedRunner()
    studies = _weak_studies(runner, scale_sizes, target_sizes, base_size)
    return {target: _accuracy_at(target, studies) for target in target_sizes}


# ---------------------------------------------------------------------------
# Figure 7: weak-scaling simulation speedup.
# ---------------------------------------------------------------------------

@dataclass
class SpeedupExperiment:
    """Figure 7: simulation-time speedup of scale-model prediction."""

    target_sizes: Tuple[int, ...]
    speedups: Dict[str, Dict[int, float]]  # benchmark -> target -> speedup

    def average(self, target: int) -> float:
        return geometric_mean([s[target] for s in self.speedups.values()])

    def as_text(self) -> str:
        rows = []
        for bench, per_target in self.speedups.items():
            rows.append(
                [bench] + [f"{per_target[t]:.1f}x" for t in self.target_sizes]
            )
        rows.append(
            ["avg"] + [f"{self.average(t):.1f}x" for t in self.target_sizes]
        )
        return render_table(
            ["bench"] + [f"{t}SM" for t in self.target_sizes],
            rows,
            title="Figure 7: simulation speedup under weak scaling",
        )


def figure7_speedup(
    runner: Optional[CachedRunner] = None,
    target_sizes: Sequence[int] = (32, 64, 128),
    scale_sizes: Sequence[int] = PAPER_SCALE_MODEL_SIZES,
    base_size: int = 8,
) -> SpeedupExperiment:
    """Speedup = target simulation time / total scale-model simulation time.

    Wall-clock times come from the recorded runs; the cache stores them, so
    the numbers reflect the first (real) execution of each simulation.
    """
    runner = runner or CachedRunner()
    speedups: Dict[str, Dict[int, float]] = {}
    for st in _weak_studies(runner, scale_sizes, target_sizes, base_size):
        scale_cost = sum(st.results[n].wall_time_s for n in st.scale_sizes)
        if scale_cost <= 0:
            raise PredictionError("scale-model wall time not recorded")
        speedups[st.workload] = {
            target: st.results[target].wall_time_s / scale_cost
            for target in target_sizes
        }
    return SpeedupExperiment(
        target_sizes=tuple(target_sizes), speedups=speedups
    )


# ---------------------------------------------------------------------------
# Figure 8: multi-chiplet case study.
# ---------------------------------------------------------------------------

def figure8_mcm_accuracy(
    runner: Optional[CachedRunner] = None,
    scale_chiplets: Sequence[int] = (4, 8),
    target_chiplets: int = 16,
) -> AccuracyExperiment:
    """Figure 8: 16-chiplet prediction from 4- and 8-chiplet scale models.

    Weak scaling with work proportional to chiplet count, per the MCM rows
    of Table IV.
    """
    runner = runner or CachedRunner()
    studies = run_studies(runner, [
        RunnerStudy(
            WEAK_SCALING[abbr], scale_chiplets, (target_chiplets,),
            base_size=1, kind="mcm",
        )
        for abbr in MCM_WEAK_BENCHMARKS
    ])
    return _accuracy_at(target_chiplets, studies)
