"""Table V: the 16-chiplet MCM target system configuration."""

import pytest

from conftest import emit
from repro.analysis.experiments import table5_text
from repro.gpu.config import McmConfig
from repro.units import GBPS, GHZ, MB


class TestTable5:
    def test_regenerate(self):
        emit(table5_text())

    def test_paper_values(self):
        cfg = McmConfig.paper_target()
        assert cfg.num_chiplets == 16
        assert cfg.chiplet.num_sms == 64
        assert cfg.total_sms == 1024
        assert cfg.chiplet.sm_clock_hz == pytest.approx(1.7 * GHZ)
        assert cfg.chiplet.llc_size == 18 * MB
        assert cfg.chiplet.llc_slices == 64
        assert cfg.chiplet.noc_bisection_bps == pytest.approx(1700 * GBPS)
        assert cfg.inter_chiplet_bw_per_chiplet_bps == pytest.approx(900 * GBPS)
        assert cfg.chiplet.num_mcs == 8
        assert cfg.chiplet.dram_bandwidth_bps == pytest.approx(1200 * GBPS)

    def test_scale_models_fix_chiplet(self):
        target = McmConfig.paper_target()
        for chiplets in (4, 8):
            model = target.scaled(chiplets)
            assert model.chiplet == target.chiplet
            assert model.num_chiplets == chiplets
            assert model.total_sms == chiplets * target.chiplet.num_sms
