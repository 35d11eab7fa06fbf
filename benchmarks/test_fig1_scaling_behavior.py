"""Figure 1: performance versus system size under strong scaling.

The paper's Figure 1 shows three archetypes — super-linear (dct),
sub-linear (bfs) and linear (pf).  The harness regenerates the IPC
series for all five paper system sizes, checks the classification against
Table II for the whole suite.
"""

import pytest

from conftest import emit
from repro.analysis.experiments import figure1_scaling
from repro.workloads import strong_scaling_names


@pytest.fixture(scope="module")
def fig1(runner):
    return figure1_scaling(("dct", "bfs", "pf"), runner)


class TestFigure1:
    def test_regenerate_fig1(self, fig1):
        emit(fig1.as_text())
        for bench in fig1.benchmarks:
            emit(fig1.plot(bench))
        assert fig1.all_match

    def test_dct_has_cliff_jump(self, fig1):
        ipcs = fig1.ipcs["dct"]
        assert ipcs[128] / ipcs[64] > 2.3

    def test_bfs_decelerates(self, fig1):
        ipcs = fig1.ipcs["bfs"]
        normalized = (ipcs[128] / ipcs[8]) / 16
        assert normalized < 0.80

    def test_pf_tracks_linear(self, fig1):
        ipcs = fig1.ipcs["pf"]
        normalized = (ipcs[128] / ipcs[8]) / 16
        assert 0.80 < normalized < 1.1


class TestFullSuiteClassification:
    """Every Table II benchmark reproduces its published scaling class."""

    @pytest.mark.parametrize("abbr", strong_scaling_names())
    def test_scaling_class(self, abbr, runner):
        result = figure1_scaling((abbr,), runner)
        assert result.measured_class[abbr] == result.expected_class[abbr], (
            f"{abbr}: measured {result.measured_class[abbr]}, "
            f"paper says {result.expected_class[abbr]}"
        )
