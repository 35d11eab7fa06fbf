"""Figure 2: miss-rate curves (MPKI versus LLC capacity).

Checks the three archetype shapes — sharp cliff (dct), gradual decrease
(bfs), flat (pf) — and MRC collection cost, including the
statistical-collection ablation the MRC literature motivates.
"""

import pytest

from conftest import emit
from repro.analysis.experiments import figure2_miss_rate_curves
from repro.mrc import collect_miss_rate_curve
from repro.workloads import STRONG_SCALING, build_trace


@pytest.fixture(scope="module")
def fig2(runner):
    return figure2_miss_rate_curves(("dct", "bfs", "pf"), runner)


class TestFigure2:
    def test_regenerate_fig2(self, fig2):
        emit(fig2.as_text())
        assert fig2.capacities_mb == (2.125, 4.25, 8.5, 17.0, 34.0)

    def test_dct_sharp_cliff_at_17_to_34(self, fig2):
        assert fig2.cliff_step["dct"] == 3
        mpki = fig2.mpki["dct"]
        assert mpki[3] > 2 * mpki[4]
        # Pre-cliff region is flat.
        assert mpki[0] == pytest.approx(mpki[3], rel=0.1)

    def test_bfs_gradual_decrease_no_cliff(self, fig2):
        assert fig2.cliff_step["bfs"] is None
        mpki = fig2.mpki["bfs"]
        assert mpki[0] > mpki[4] > 0  # decreasing but never collapsing
        drops = [a / b for a, b in zip(mpki, mpki[1:])]
        assert max(drops) < 2.0

    def test_pf_flat(self, fig2):
        mpki = fig2.mpki["pf"]
        assert mpki[0] == pytest.approx(mpki[4], rel=0.15)
        assert fig2.cliff_step["pf"] is None


class TestCollectionCost:
    """The paper stresses MRC collection is far cheaper than timing
    simulation; compare the two costs on the same workload."""

    def test_mrc_cheaper_than_timing(self, runner):
        spec = STRONG_SCALING["bfs"]
        curve = runner.miss_rate_curve(spec)
        timing = runner.simulate(spec, 128)
        mrc_cost = curve.metadata["collection_seconds"]
        assert mrc_cost > 0
        # One functional pass yields all five capacities; five timing runs
        # would cost vastly more than 5x this single simulation.
        assert mrc_cost < 5 * max(timing.wall_time_s, 1e-3)


def test_statstack_curve_covers_paper_capacities():
    """Ablation: StatStack-style statistical MRC (cheaper profiling)."""
    trace = build_trace(STRONG_SCALING["pf"])
    assert len(collect_miss_rate_curve(trace, method="statstack")) == 5
