"""Table I / Table III: system configurations via proportional scaling.

Regenerates the configuration table.
"""

import pytest

from conftest import emit
from repro.analysis.experiments import table1_rows, table1_text
from repro.gpu.config import GPUConfig
from repro.units import GBPS, MB


class TestTable1:
    def test_regenerate_table1(self):
        emit(table1_text())
        rows = {r["#SMs"]: r for r in table1_rows()}
        assert rows["128"]["LLC"] == "34 MB, 32 slices"
        assert rows["8"]["LLC"] == "2.125 MB, 2 slices"
        assert "145 GB/s per MC" in rows["64"]["Main memory"]

    def test_llc_ladder_matches_paper(self):
        expected_mb = {128: 34.0, 64: 17.0, 32: 8.5, 16: 4.25, 8: 2.125}
        for sms, mb in expected_mb.items():
            assert GPUConfig.paper_system(sms).llc_size == pytest.approx(mb * MB)

    def test_memory_controllers_scale(self):
        expected = {128: 16, 64: 8, 32: 4, 16: 2, 8: 1}
        for sms, mcs in expected.items():
            cfg = GPUConfig.paper_system(sms)
            assert cfg.num_mcs == mcs
            assert cfg.mc_bandwidth_bps == pytest.approx(145 * GBPS)
