"""Configuration and proportional-scaling (Table I / III / V) tests."""

import pytest

from repro.exceptions import ConfigurationError
from repro.gpu.config import (
    DEFAULT_CAPACITY_SCALE,
    PAPER_SCALE_MODEL_SIZES,
    PAPER_SYSTEM_SIZES,
    PAPER_TARGET_SIZES,
    GPUConfig,
    McmConfig,
)
from repro.units import GBPS, GHZ, MB


class TestBaseline:
    def test_table3_values(self):
        cfg = GPUConfig.paper_baseline()
        assert cfg.num_sms == 128
        assert cfg.sm_clock_hz == 1.0 * GHZ
        assert cfg.warps_per_sm == 48
        assert cfg.threads_per_warp == 32
        assert cfg.max_threads_per_sm == 1536
        assert cfg.llc_size == 34 * MB
        assert cfg.l1_mshrs == 384
        assert cfg.l1_assoc == 6

    def test_aggregate_memory_bandwidth(self):
        cfg = GPUConfig.paper_baseline()
        assert cfg.dram_bandwidth_bps == pytest.approx(2320 * GBPS)
        assert cfg.num_mcs == 16
        assert cfg.mc_bandwidth_bps == pytest.approx(145 * GBPS)


class TestProportionalScaling:
    """Table I: shared resources scale with SM count, per-SM stays fixed."""

    @pytest.mark.parametrize("sms,llc_mb,slices,mcs", [
        (128, 34.0, 32, 16),
        (64, 17.0, 16, 8),
        (32, 8.5, 8, 4),
        (16, 4.25, 4, 2),
        (8, 2.125, 2, 1),
    ])
    def test_table1_rows(self, sms, llc_mb, slices, mcs):
        cfg = GPUConfig.paper_system(sms)
        assert cfg.llc_size == pytest.approx(llc_mb * MB)
        assert cfg.llc_slices == slices
        assert cfg.num_mcs == mcs
        # Per-MC bandwidth is constant (145 GB/s per Table I).
        assert cfg.mc_bandwidth_bps == pytest.approx(145 * GBPS)

    def test_noc_scales_proportionally(self):
        base = GPUConfig.paper_baseline()
        half = base.scaled(64)
        assert half.noc_bisection_bps == pytest.approx(base.noc_bisection_bps / 2)

    def test_per_sm_resources_unchanged(self):
        base = GPUConfig.paper_baseline()
        small = base.scaled(8)
        assert small.l1_size == base.l1_size
        assert small.warps_per_sm == base.warps_per_sm
        assert small.issue_width == base.issue_width
        assert small.max_threads_per_sm == base.max_threads_per_sm

    def test_scaling_is_composable(self):
        base = GPUConfig.paper_baseline()
        once = base.scaled(32)
        twice = base.scaled(64).scaled(32)
        assert once.llc_size == twice.llc_size
        assert once.num_mcs == twice.num_mcs

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            GPUConfig.paper_baseline().scaled(0)
        with pytest.raises(ConfigurationError):
            GPUConfig.paper_system(100)  # not a paper size

    def test_paper_size_constants(self):
        assert PAPER_SYSTEM_SIZES == (8, 16, 32, 64, 128)
        assert PAPER_SCALE_MODEL_SIZES == (8, 16)
        assert PAPER_TARGET_SIZES == (32, 64, 128)


class TestDerivedQuantities:
    def test_effective_capacities_use_scale(self):
        cfg = GPUConfig.paper_baseline(capacity_scale=0.5)
        assert cfg.effective_llc_size == 17 * MB
        cfg2 = GPUConfig.paper_baseline(capacity_scale=1.0)
        assert cfg2.effective_llc_size == 34 * MB

    def test_default_capacity_scale(self):
        assert GPUConfig.paper_baseline().capacity_scale == DEFAULT_CAPACITY_SCALE

    def test_llc_sets_positive_everywhere(self):
        for sms in PAPER_SYSTEM_SIZES:
            cfg = GPUConfig.paper_system(sms)
            assert cfg.llc_sets_per_slice >= 1
            assert cfg.l1_sets >= 1

    def test_max_resident_ctas(self):
        cfg = GPUConfig.paper_baseline()
        assert cfg.max_resident_ctas(256) == 6
        assert cfg.max_resident_ctas(1024) == 1
        assert cfg.max_resident_ctas(128) == 12
        assert cfg.max_resident_ctas(4096) == 1  # clamped to at least one
        with pytest.raises(ConfigurationError):
            cfg.max_resident_ctas(0)

    def test_mc_bytes_per_cycle_includes_efficiency(self):
        cfg = GPUConfig.paper_baseline()
        expected = cfg.dram_efficiency * 145.0
        assert cfg.mc_bytes_per_cycle == pytest.approx(expected)

    def test_describe_row(self):
        row = GPUConfig.paper_system(8).describe()
        assert row["#SMs"] == "8"
        assert "2.125 MB" in row["LLC"]
        assert "1 MCs" in row["Main memory"]


class TestValidation:
    def test_bad_jitter(self):
        with pytest.raises(ConfigurationError):
            GPUConfig(latency_jitter=1.5)

    def test_bad_efficiency(self):
        with pytest.raises(ConfigurationError):
            GPUConfig(dram_efficiency=0.0)

    def test_bad_capacity_scale(self):
        with pytest.raises(ConfigurationError):
            GPUConfig(capacity_scale=0.0)

    def test_threads_not_multiple_of_warp(self):
        with pytest.raises(ConfigurationError):
            GPUConfig(max_threads_per_sm=1000)


class TestMcmConfig:
    def test_table5_values(self):
        cfg = McmConfig.paper_target()
        assert cfg.num_chiplets == 16
        assert cfg.chiplet.num_sms == 64
        assert cfg.total_sms == 1024
        assert cfg.chiplet.sm_clock_hz == pytest.approx(1.7 * GHZ)
        assert cfg.chiplet.llc_size == 18 * MB
        assert cfg.inter_chiplet_bw_per_chiplet_bps == pytest.approx(900 * GBPS)
        assert cfg.chiplet.dram_bandwidth_bps == pytest.approx(1200 * GBPS)

    def test_scaled_keeps_chiplet_fixed(self):
        base = McmConfig.paper_target()
        small = base.scaled(4)
        assert small.num_chiplets == 4
        assert small.chiplet == base.chiplet
        assert small.total_sms == 256

    def test_describe(self):
        desc = McmConfig.paper_target().describe()
        assert desc["#chiplets"] == "16"
        assert desc["#SMs/chiplet"] == "64"

    def test_invalid_chiplets(self):
        with pytest.raises(ConfigurationError):
            McmConfig.paper_target().scaled(0)

    def test_page_size_validation(self):
        with pytest.raises(ConfigurationError):
            McmConfig(page_size=64)
