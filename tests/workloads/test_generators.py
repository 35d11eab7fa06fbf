"""Trace-generator family tests."""

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.memory_regions import BYPASS_BASE
from repro.workloads import STRONG_SCALING, WEAK_SCALING, build_trace
from repro.workloads.generators import COLD_BASE, MAX_CTAS, lines_for_mb
from repro.workloads.spec import BenchmarkSpec, KernelShape, ScalingBehavior
from tests.hand_traces import warps_of


def spec_for(family, params, ctas=32, threads=128, footprint=4.0):
    return BenchmarkSpec(
        abbr="t", name="T", suite="S", footprint_mb=footprint, insns_m=1.0,
        kernels=(KernelShape(ctas, threads),),
        scaling=ScalingBehavior.LINEAR, family=family, params=params,
    )


class TestLinesForMb:
    def test_paper_unit(self):
        # At the default 1/8 miniaturization, 1 MB = 1024 simulated lines.
        assert lines_for_mb(1.0, 0.125) == 1024
        assert lines_for_mb(34.0, 0.125) == 34816

    def test_positive_required(self):
        with pytest.raises(WorkloadError):
            lines_for_mb(0.0, 0.125)


class TestBuildTrace:
    def test_unknown_family_rejected(self):
        with pytest.raises(WorkloadError):
            build_trace(spec_for("wat", {}))

    def test_work_scale_positive(self):
        with pytest.raises(WorkloadError):
            build_trace(spec_for("stream", {}), work_scale=0.0)

    def test_deterministic_across_builds(self):
        spec = spec_for("irregular", {"apw": 8, "sigma": 0.5})
        a = build_trace(spec, seed=3).kernels[0].compiled()
        b = build_trace(spec, seed=3).kernels[0].compiled()
        assert np.array_equal(a.lines, b.lines)
        assert np.array_equal(a.offsets, b.offsets)

    def test_seed_changes_trace(self):
        spec = spec_for("irregular", {"apw": 8})
        __, a = warps_of(build_trace(spec, seed=0).kernels[0], 5)[0]
        __, b = warps_of(build_trace(spec, seed=1).kernels[0], 5)[0]
        assert not np.array_equal(a, b)

    def test_cta_clamp(self):
        spec = spec_for("stream", {"apw": 2}, ctas=5000)
        trace = build_trace(spec, work_scale=4.0)
        assert trace.kernels[0].num_ctas == MAX_CTAS

    def test_metadata(self):
        trace = build_trace(STRONG_SCALING["dct"])
        assert trace.metadata["capacity_scale"] == 0.125
        assert "warm_region" in trace.metadata


class TestSweepFamily:
    def test_hot_lines_within_working_set(self):
        spec = spec_for("sweep", {"hot_mb": 2.0, "apw": 8})
        hot_lines = lines_for_mb(2.0, 0.125)
        for __, lines in warps_of(build_trace(spec).kernels[0], 0):
            assert lines.max() < hot_lines

    def test_l1_reuse_repeats_lines(self):
        spec = spec_for("sweep", {"hot_mb": 2.0, "apw": 8, "l1_reuse": 2})
        __, lines = warps_of(build_trace(spec).kernels[0], 0)[0]
        assert lines[0] == lines[1]
        assert lines[2] == lines[3]

    def test_cold_fraction_goes_to_bypass_region(self):
        spec = spec_for("sweep", {"hot_mb": 2.0, "apw": 16, "cold_frac": 0.5})
        trace = build_trace(spec)
        lines = np.concatenate([k.compiled().lines for k in trace.kernels])
        cold = np.count_nonzero(lines >= BYPASS_BASE)
        assert 0.3 < cold / len(lines) < 0.7

    def test_warm_region_covers_hot_set(self):
        spec = spec_for("sweep", {"hot_mb": 2.0, "apw": 8})
        trace = build_trace(spec)
        base, count = trace.metadata["warm_region"]
        assert base == 0
        assert count == lines_for_mb(2.0, 0.125)


class TestIrregularFamily:
    def test_sigma_varies_cta_work(self):
        spec = spec_for("irregular", {"apw": 16, "sigma": 1.0})
        trace = build_trace(spec)
        lengths = {len(warps_of(trace.kernels[0], c)[0][1]) for c in range(20)}
        assert len(lengths) > 3  # strongly varying CTA work

    def test_sigma_growth_under_weak_scaling(self):
        spec = spec_for("irregular", {"apw": 16, "sigma": 0.4,
                                      "sigma_growth": 0.5})
        small = build_trace(spec, work_scale=1.0)
        big = build_trace(spec, work_scale=16.0)

        def spread(trace):
            lengths = [len(warps_of(trace.kernels[0], c)[0][1])
                       for c in range(trace.kernels[0].num_ctas)]
            return np.std(lengths) / np.mean(lengths)

        assert spread(big) > spread(small)


class TestTiledFamily:
    def test_folded_compute(self):
        spec = spec_for("tiled", {"apw": 4, "cpa": 10.0, "reps": 3})
        compute, lines = warps_of(build_trace(spec).kernels[0], 0)[0]
        # folded cpa = 3*(10+1)-1 = 32 per access on average.
        assert compute.mean() == pytest.approx(32, rel=0.3)
        assert len(lines) == 4


class TestChaseFamily:
    def test_walks_touch_all_levels(self):
        spec = spec_for("chase", {"apw": 8, "levels": 4}, footprint=2.0)
        __, lines = warps_of(build_trace(spec).kernels[0], 0)[0]
        assert len(lines) == 8  # 2 walks x 4 levels


class TestHotColdFamily:
    def test_hot_scaled_grows_with_work(self):
        params = {"apw": 8, "hot_lines": 100, "hot_frac": 1.0,
                  "zipf_exp": 0.0, "hot_scaled": 1.0}
        spec = spec_for("hotcold", params)
        big = build_trace(spec, work_scale=8.0)
        lines = np.concatenate([l for __, l in warps_of(big.kernels[0], 0)])
        assert lines.max() >= 100  # beyond the unscaled region

    def test_hot_fixed_without_flag(self):
        params = {"apw": 8, "hot_lines": 100, "hot_frac": 1.0, "zipf_exp": 0.0}
        spec = spec_for("hotcold", params)
        big = build_trace(spec, work_scale=8.0)
        lines = np.concatenate([l for __, l in warps_of(big.kernels[0], 0)])
        assert lines.max() < 100

    @pytest.mark.parametrize("spec,work_scale", [
        *((spec, 1.0) for spec in STRONG_SCALING.values()
          if spec.family == "hotcold"),
        *((spec, scale) for spec in WEAK_SCALING.values()
          if spec.family == "hotcold" for scale in (4.0, 16.0)),
    ], ids=lambda value: getattr(value, "abbr", value))
    def test_no_cold_line_is_touched_by_two_warps(self, spec, work_scale):
        # Lognormal work gives some warps far more accesses than ``apw``;
        # their cold lines must still be theirs alone.
        for kernel in build_trace(spec, work_scale=work_scale).kernels:
            compiled = kernel.compiled()
            warp = np.repeat(
                np.arange(len(compiled.tails)), np.diff(compiled.warp_bounds)
            )
            cold = compiled.lines >= COLD_BASE
            owners = np.unique(
                np.stack((compiled.lines[cold], warp[cold])), axis=1
            )
            assert len(np.unique(owners[0])) == owners.shape[1]


class TestGridPrefix:
    """CTA ``c``'s work, compute bursts and launch offset do not depend on
    how many CTAs the grid has — what weak scaling relies on."""

    @pytest.mark.parametrize("abbr", ["va", "btree"])
    def test_first_ctas_draw_alike_at_half_the_grid(self, abbr):
        spec = STRONG_SCALING[abbr]
        assert spec.family == "sweep" or spec.param("sigma", 0.0) > 0
        half, full = (
            build_trace(spec, work_scale=scale).kernels for scale in (0.5, 1.0)
        )
        for small, large in zip(half, full):
            assert large.num_ctas > small.num_ctas
            a, b = small.compiled(), large.compiled()
            warps, accesses = len(a.tails), len(a.lines)
            assert np.array_equal(a.warp_bounds, b.warp_bounds[: warps + 1])
            assert np.array_equal(a.compute, b.compute[:accesses])
            assert np.array_equal(a.offsets, b.offsets[:warps])


class TestWeakScaling:
    @pytest.mark.parametrize("abbr", ["va", "bp", "btree"])
    def test_accesses_scale_with_work(self, abbr):
        spec = WEAK_SCALING[abbr]
        small = build_trace(spec, work_scale=1.0).count_accesses()
        large = build_trace(spec, work_scale=8.0).count_accesses()
        assert large == pytest.approx(8 * small, rel=0.25)
