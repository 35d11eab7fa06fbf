"""Ablation studies called out in DESIGN.md.

1. Scale-model choice: 16/32-SM models instead of 8/16 (the artifact
   appendix reports higher errors for strong scaling — the 32-SM model is
   an outlier for some benchmarks).
2. MRC collection method: exact stack distance vs exact multi-capacity
   LRU vs StatStack approximation — cost and predicted-region agreement.
3. Cliff-detection threshold sensitivity around the paper's 2x rule.
"""

import pytest

from conftest import emit
from repro.analysis.experiments import figure4_strong_accuracy
from repro.analysis.tables import render_table
from repro.mrc import analyze_regions, collect_miss_rate_curve
from repro.mrc.cliff import CLIFF_DROP_THRESHOLD
from repro.workloads import STRONG_SCALING, build_trace


class TestScaleModelChoiceAblation:
    """Artifact appendix: predicting from 16/32-SM scale models."""

    @pytest.fixture(scope="class")
    def with_16_32(self, runner):
        return figure4_strong_accuracy(128, runner=runner, scale_sizes=(16, 32))

    @pytest.fixture(scope="class")
    def with_8_16(self, runner):
        return figure4_strong_accuracy(128, runner=runner, scale_sizes=(8, 16))

    def test_regenerate(self, with_16_32):
        emit(with_16_32.as_text())

    def test_scale_model_still_beats_log_and_proportional(self, with_16_32):
        sm = with_16_32.mean_error("scale-model")
        assert with_16_32.mean_error("logarithmic") > sm
        assert with_16_32.mean_error("proportional") > sm * 0.9

    def test_comparison_table(self, with_8_16, with_16_32):
        rows = [
            ["8/16 SMs",
             f"{100 * with_8_16.mean_error('scale-model'):.1f}%",
             f"{100 * with_8_16.max_error('scale-model'):.1f}%"],
            ["16/32 SMs",
             f"{100 * with_16_32.mean_error('scale-model'):.1f}%",
             f"{100 * with_16_32.max_error('scale-model'):.1f}%"],
        ]
        emit(render_table(["scale models", "avg", "max"], rows,
                          title="Ablation: scale-model choice (128-SM target)"))


class TestMrcMethodAblation:
    BENCH = "dct"

    @pytest.fixture(scope="class")
    def curves(self):
        out = {}
        for method in ("stack", "lru", "statstack"):
            trace = build_trace(STRONG_SCALING[self.BENCH])
            out[method] = collect_miss_rate_curve(trace, method=method)
        return out

    def test_exact_methods_agree(self, curves):
        assert curves["stack"].mpki == pytest.approx(curves["lru"].mpki)

    def test_statstack_finds_the_same_cliff(self, curves):
        exact = analyze_regions(curves["stack"])
        approx = analyze_regions(curves["statstack"])
        assert exact.cliff_step == approx.cliff_step

    def test_costs_reported(self, curves):
        rows = [
            [m, f"{c.metadata['collection_seconds']:.2f}s"]
            + [f"{v:.2f}" for v in c.mpki]
            for m, c in curves.items()
        ]
        emit(render_table(
            ["method", "cost", "2.125MB", "4.25MB", "8.5MB", "17MB", "34MB"],
            rows, title=f"Ablation: MRC methods ({self.BENCH})",
        ))


class TestCliffThresholdAblation:
    def test_threshold_sensitivity(self, runner):
        """The paper's 2x rule: nearby thresholds find the same cliffs for
        the archetype benchmarks; an extreme threshold misses them."""
        rows = []
        for abbr in ("dct", "bfs", "pf"):
            curve = runner.miss_rate_curve(STRONG_SCALING[abbr])
            steps = []
            for threshold in (1.5, CLIFF_DROP_THRESHOLD, 3.0, 10.0):
                steps.append(analyze_regions(curve, threshold).cliff_step)
            rows.append([abbr] + [str(s) for s in steps])
        emit(render_table(
            ["bench", "t=1.5", "t=2.0", "t=3.0", "t=10"],
            rows, title="Ablation: cliff threshold",
        ))
        dct_row = rows[0]
        assert dct_row[2] == "3"  # paper threshold finds the 17->34 cliff
        bfs_row = rows[1]
        assert bfs_row[2] == "None"  # no false positive on gradual curves


class TestThirdScaleModelAblation:
    """Does adding a 32-SM third scale model help each method?

    The scale-model predictor uses the smallest/largest pair either way;
    the regressions get a genuine third fitting point.
    """

    def test_three_point_fits(self, runner):
        two = figure4_strong_accuracy(128, runner=runner, scale_sizes=(8, 16))
        three = figure4_strong_accuracy(
            128, runner=runner, scale_sizes=(8, 16, 32)
        )
        rows = []
        for method in ("proportional", "linear", "power-law", "scale-model"):
            rows.append([
                method,
                f"{100 * two.mean_error(method):.1f}%",
                f"{100 * three.mean_error(method):.1f}%",
            ])
        emit(render_table(
            ["method", "8/16 models", "8/16/32 models"], rows,
            title="Ablation: third scale model (128-SM target)",
        ))
        # The scale-model method keeps using the trend between its extreme
        # models and must not get dramatically worse with the extra point.
        assert three.mean_error("scale-model") < 2 * two.mean_error("scale-model")


def test_full_fig4_prediction_pipeline(runner):
    """The analysis pipeline end to end covers all 21 benchmarks."""
    result = figure4_strong_accuracy(128, runner=runner)
    assert len(result.actuals) == 21


class TestTrainedGlobalModelAblation:
    """Section II's argument, quantified: the prior-work approach (a
    one-size-fits-all model *trained* on other benchmarks) versus the
    paper's per-workload prediction."""

    def test_leave_one_out_vs_scale_model(self, runner):
        from repro.core.trained import leave_one_out_errors

        curves = {
            abbr: {n: runner.simulate(spec, n).ipc
                   for n in (8, 16, 32, 64, 128)}
            for abbr, spec in STRONG_SCALING.items()
        }
        trained = leave_one_out_errors(curves, anchor_size=16, target_size=128)
        fig4 = figure4_strong_accuracy(128, runner=runner)

        rows = []
        for abbr in sorted(trained):
            rows.append([
                abbr,
                f"{100 * trained[abbr]:.1f}%",
                f"{100 * fig4.errors['scale-model'][abbr]:.1f}%",
            ])
        trained_avg = sum(trained.values()) / len(trained)
        rows.append(["avg", f"{100 * trained_avg:.1f}%",
                     f"{100 * fig4.mean_error('scale-model'):.1f}%"])
        emit(render_table(
            ["bench", "trained global model", "per-workload scale-model"],
            rows,
            title="Ablation: trained one-size-fits-all vs per-workload",
        ))
        assert trained_avg > fig4.mean_error("scale-model")
        # The trained model's worst case (a super-linear workload predicted
        # from the others) is far beyond scale-model's worst case.
        assert max(trained.values()) > fig4.max_error("scale-model")
