"""Figure 4: strong-scaling prediction error, 128-SM and 64-SM targets.

The paper's headline: scale-model simulation is substantially more
accurate than proportional scaling and one-size-fits-all regression.
The harness regenerates the per-benchmark error bars for all five
methods and asserts the ordering the paper reports.
"""

import pytest

from conftest import emit
from repro.analysis.experiments import figure4_strong_accuracy
from repro.core.workflow import predict_strong_scaling
from repro.workloads import STRONG_SCALING, ScalingBehavior


@pytest.fixture(scope="module")
def fig4a(runner):
    return figure4_strong_accuracy(128, runner=runner)


@pytest.fixture(scope="module")
def fig4b(runner):
    return figure4_strong_accuracy(64, runner=runner)


class TestFigure4a:
    def test_regenerate(self, fig4a):
        emit(fig4a.as_text())
        assert len(fig4a.errors["scale-model"]) == 21

    def test_scale_model_most_accurate_on_average(self, fig4a):
        assert fig4a.best_method() == "scale-model"

    def test_logarithmic_is_worst(self, fig4a):
        means = {m: fig4a.mean_error(m) for m in fig4a.errors}
        assert max(means, key=means.get) == "logarithmic"
        assert means["logarithmic"] > 0.5

    def test_error_bands(self, fig4a):
        """Paper: scale-model 4% avg / 17% max; ours lands in the same
        regime (single-digit-to-low-double-digit avg, max well under the
        baselines' worst cases)."""
        assert fig4a.mean_error("scale-model") < 0.22
        assert fig4a.max_error("scale-model") < 0.55
        assert fig4a.mean_error("proportional") > fig4a.mean_error("scale-model")
        assert fig4a.mean_error("power-law") > fig4a.mean_error("scale-model")
        assert fig4a.mean_error("linear") > fig4a.mean_error("scale-model")

    def test_baselines_fail_on_super_linear(self, fig4a):
        """Proportional/linear/power-law fundamentally miss the cliff."""
        supers = [
            abbr for abbr, spec in STRONG_SCALING.items()
            if spec.scaling is ScalingBehavior.SUPER_LINEAR
        ]
        for method in ("proportional", "linear", "power-law"):
            worst = max(fig4a.errors[method][b] for b in supers)
            assert worst > 0.25, method

    def test_all_accurate_on_linear(self, fig4a):
        linears = [
            abbr for abbr, spec in STRONG_SCALING.items()
            if spec.scaling is ScalingBehavior.LINEAR
        ]
        for method in ("scale-model", "proportional", "linear", "power-law"):
            avg = sum(fig4a.errors[method][b] for b in linears) / len(linears)
            assert avg < 0.12, method


class TestFigure4b:
    def test_regenerate(self, fig4b):
        emit(fig4b.as_text())

    def test_scale_model_best_at_64(self, fig4b):
        assert fig4b.best_method() == "scale-model"
        assert fig4b.mean_error("scale-model") < 0.10

    def test_64_easier_than_128(self, fig4a, fig4b):
        assert (
            fig4b.mean_error("scale-model") <= fig4a.mean_error("scale-model")
        )


def test_prediction_from_cached_profile(runner):
    """The prediction step needs only two scale-model runs and a curve."""
    study = predict_strong_scaling(
        STRONG_SCALING["dct"], runner=runner, include_actuals=False
    )
    assert set(study.results) == {8, 16}
    assert all(study.predictions["scale-model"][t] > 0 for t in (32, 64, 128))
