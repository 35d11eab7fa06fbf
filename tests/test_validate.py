"""Boundary-layer validation: configs, traces and predictor inputs.

Every check here guards a failure mode the core dataclasses accept
silently: zero clocks, an LLC smaller than one line, NaN launch offsets,
degenerate miss-rate curves.  Nonsense must fail loudly at the boundary
(typed errors with actionable messages) — except curves, which degrade
to proportional scaling with a warning instead of raising.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import ScaleModelPredictor, ScaleModelProfile
from repro.exceptions import ConfigurationError, TraceError
from repro.gpu.config import GPUConfig, McmConfig
from repro.mrc import MissRateCurve
from repro.mrc.cliff import Region
from repro.trace.kernel import CompiledKernel, KernelTrace, WorkloadTrace
from repro.validate import (
    degenerate_curve_reason,
    validate_config,
    validate_mcm_config,
    validate_proportional_scaling,
    validate_trace,
)
from tests.hand_traces import hand_kernel


class TestValidateConfig:
    def test_valid_config_returned_unchanged(self):
        config = GPUConfig.paper_baseline()
        assert validate_config(config) is config

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"sm_clock_hz": 0.0}, "sm_clock_hz must be positive"),
            ({"issue_width": 0}, "issue_width"),
            ({"llc_size": 64}, "smaller than one cache line"),
            ({"l1_size": 1}, "smaller than one cache"),
            ({"l1_mshrs": 0}, "l1_mshrs"),
            ({"noc_bisection_bps": 0.0}, "bisection bandwidth"),
            ({"mc_bandwidth_bps": -1.0}, "per-MC bandwidth"),
            ({"llc_slice_throughput": 0.0}, "llc_slice_throughput"),
            ({"dram_latency": float("nan")}, "finite"),
            ({"llc_latency": -5.0}, "finite and >= 0"),
        ],
    )
    def test_implausible_configs_rejected(self, overrides, match):
        config = replace(GPUConfig(), **overrides)
        with pytest.raises(ConfigurationError, match=match):
            validate_config(config)

    def test_error_message_names_the_config(self):
        config = replace(GPUConfig(), name="broken-gpu", sm_clock_hz=-1.0)
        with pytest.raises(ConfigurationError, match="broken-gpu"):
            validate_config(config)


class TestValidateMcmConfig:
    def test_valid_package_returned_unchanged(self):
        config = McmConfig()
        assert validate_mcm_config(config) is config

    def test_nonpositive_interconnect_bandwidth_rejected(self):
        config = replace(McmConfig(), inter_chiplet_bw_per_chiplet_bps=0.0)
        with pytest.raises(ConfigurationError, match="inter-chiplet"):
            validate_mcm_config(config)

    def test_infinite_interconnect_latency_rejected(self):
        config = replace(McmConfig(), inter_chiplet_latency=float("inf"))
        with pytest.raises(ConfigurationError, match="inter_chiplet_latency"):
            validate_mcm_config(config)

    def test_chiplet_is_validated_too(self):
        chiplet = replace(McmConfig().chiplet, sm_clock_hz=0.0)
        config = replace(McmConfig(), chiplet=chiplet)
        with pytest.raises(ConfigurationError, match="sm_clock_hz"):
            validate_mcm_config(config)


class TestProportionalScaling:
    def test_paper_pair_is_valid(self):
        small = GPUConfig.paper_baseline().scaled(8)
        large = GPUConfig.paper_baseline().scaled(32)
        assert validate_proportional_scaling(small, large) == pytest.approx(4.0)

    def test_reversed_pair_rejected(self):
        small = GPUConfig.paper_baseline().scaled(8)
        large = GPUConfig.paper_baseline().scaled(32)
        with pytest.raises(ConfigurationError, match="smaller than model"):
            validate_proportional_scaling(large, small)

    def test_changed_per_sm_resource_rejected(self):
        small = GPUConfig.paper_baseline().scaled(8)
        large = replace(
            GPUConfig.paper_baseline().scaled(32), warps_per_sm=96
        )
        with pytest.raises(ConfigurationError, match="per-SM resource"):
            validate_proportional_scaling(small, large)

    def test_broken_shared_resource_ratio_rejected(self):
        small = GPUConfig.paper_baseline().scaled(8)
        large = replace(
            GPUConfig.paper_baseline().scaled(32), llc_size=small.llc_size
        )
        with pytest.raises(ConfigurationError, match="Eq. 1"):
            validate_proportional_scaling(small, large)


def workload_of(*ctas) -> WorkloadTrace:
    return WorkloadTrace("wl", [hand_kernel("k0", 64, ctas)])


def single_warp_workload(warp) -> WorkloadTrace:
    return workload_of([warp])


def raw_workload(**arrays) -> WorkloadTrace:
    """One warp of one access, with some arrays replaced verbatim."""
    fields = dict(
        lines=np.array([0]), compute=np.array([3]),
        warp_bounds=np.array([0, 1]), tails=np.array([0]),
        offsets=np.array([0.0]), cta_bounds=np.array([0, 1]),
    )
    compiled = CompiledKernel(**{**fields, **arrays})
    return WorkloadTrace("wl", [KernelTrace("k0", 64, lambda: compiled)])


HEALTHY = ([3, 2], [0, 1], 0, 0.0)


class TestValidateTrace:
    def test_healthy_trace_returned_unchanged(self):
        workload = single_warp_workload(HEALTHY)
        assert validate_trace(workload) is workload

    def test_nan_start_offset_rejected(self):
        # NaN compares false against every bound.
        warp = ([3], [0], 0, float("nan"))
        with pytest.raises(TraceError, match="start_offset"):
            validate_trace(single_warp_workload(warp))

    def test_negative_compute_burst_rejected(self):
        warp = ([-4], [0], 0, 0.0)
        with pytest.raises(TraceError, match="compute burst"):
            validate_trace(single_warp_workload(warp))

    def test_nan_compute_burst_rejected(self):
        workload = raw_workload(compute=np.array([float("nan")]))
        with pytest.raises(TraceError, match="compute burst"):
            validate_trace(workload)

    def test_negative_line_address_rejected(self):
        warp = ([3], [-1], 0, 0.0)
        with pytest.raises(TraceError, match="line address"):
            validate_trace(single_warp_workload(warp))

    def test_fractional_line_address_rejected(self):
        workload = raw_workload(lines=np.array([1.5]))
        with pytest.raises(TraceError, match="line address"):
            validate_trace(workload)

    def test_error_names_workload_and_kernel(self):
        warp = ([3], [-1], 0, 0.0)
        with pytest.raises(TraceError, match="wl/k0"):
            validate_trace(single_warp_workload(warp))

    @pytest.mark.parametrize(
        "bad, match",
        [
            (([3], [0], 0, float("nan")), "start_offset nan"),
            (([3], [0], 0, -1.0), "start_offset -1.0"),
            (([-4], [0], 0, 0.0), "compute burst -4"),
            (([3], [-1], 0, 0.0), "line address -1"),
            (([3], [0], -1, 0.0), "tail -1"),
        ],
        ids=[
            "nan-offset", "negative-offset", "negative-compute",
            "negative-line", "negative-tail",
        ],
    )
    def test_bad_value_in_last_cta_rejected(self, bad, match):
        workload = workload_of([HEALTHY], [HEALTHY, HEALTHY], [HEALTHY, bad])
        with pytest.raises(TraceError, match=f"wl/k0: CTA 2 warp 1 .*{match}"):
            validate_trace(workload)

    @pytest.mark.parametrize(
        "arrays",
        [
            dict(cta_bounds=np.array([0, 2])),
            dict(warp_bounds=np.array([0, 2])),
            dict(cta_bounds=np.array([0])),
        ],
        ids=["cta-bounds-overrun", "warp-bounds-overrun", "no-cta"],
    )
    def test_inconsistent_bounds_rejected(self, arrays):
        with pytest.raises(TraceError, match="bounds"):
            validate_trace(raw_workload(**arrays))

    def test_empty_cta_rejected(self):
        workload = raw_workload(
            warp_bounds=np.array([0, 1]), cta_bounds=np.array([0, 0, 1]),
        )
        with pytest.raises(TraceError, match="no warps"):
            validate_trace(workload)


class TestDegenerateCurves:
    def good_curve(self) -> MissRateCurve:
        return MissRateCurve("wl", (100, 200, 400), (8.0, 4.0, 1.0))

    def test_healthy_curve_has_no_reason(self):
        assert degenerate_curve_reason(self.good_curve()) is None

    def test_nan_mpki(self):
        curve = MissRateCurve("wl", (100, 200), (float("nan"), 1.0))
        assert "non-finite mpki" in degenerate_curve_reason(curve)

    def test_infinite_miss_ratio(self):
        curve = MissRateCurve(
            "wl", (100, 200), (2.0, 1.0), miss_ratio=(float("inf"), 0.1)
        )
        assert "non-finite miss_ratio" in degenerate_curve_reason(curve)

    def test_nonpositive_capacity(self):
        curve = MissRateCurve("wl", (0, 200), (2.0, 1.0))
        assert "not positive" in degenerate_curve_reason(curve)

    def test_single_point_stub(self):
        # MissRateCurve itself rejects these, but cached/legacy payloads
        # may still hand the predictor arbitrary curve-shaped objects.
        stub = SimpleNamespace(
            capacities_bytes=(100,), mpki=(1.0,), miss_ratio=()
        )
        assert "point(s)" in degenerate_curve_reason(stub)

    def test_unsorted_capacities_stub(self):
        stub = SimpleNamespace(
            capacities_bytes=(200, 100), mpki=(1.0, 2.0), miss_ratio=()
        )
        assert "strictly increasing" in degenerate_curve_reason(stub)


class TestPredictorDegrades:
    def profile(self, curve) -> ScaleModelProfile:
        return ScaleModelProfile(
            workload="wl",
            sizes=(8, 16),
            ipcs=(10.0, 20.0),
            f_mem=0.5,
            curve=curve,
        )

    def test_degenerate_curve_degrades_with_warning(self):
        bad = MissRateCurve("wl", (100, 200), (float("nan"), 1.0))
        with pytest.warns(UserWarning, match="proportional scaling"):
            predictor = ScaleModelPredictor(self.profile(bad))
        assert predictor.analysis is None
        assert predictor._region_of(64) is Region.PRE_CLIFF

    def test_degraded_prediction_matches_curveless(self):
        bad = MissRateCurve("wl", (100, 200), (float("inf"), 1.0))
        with pytest.warns(UserWarning):
            degraded = ScaleModelPredictor(self.profile(bad))
        curveless = ScaleModelPredictor(self.profile(None))
        for target in (32, 64, 128):
            assert degraded.predict(target).ipc == pytest.approx(
                curveless.predict(target).ipc
            )
            assert degraded.predict(target).region is Region.PRE_CLIFF

    def test_healthy_curve_does_not_warn(self):
        curve = MissRateCurve("wl", (800, 1600, 3200), (8.0, 4.0, 1.0))
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            ScaleModelPredictor(self.profile(curve))
