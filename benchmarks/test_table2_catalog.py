"""Table II: the strong-scaling benchmark catalog.

Checks that the catalog reproduces the published suite composition,
footprints and scaling classes, and that every trace builds.
"""

import pytest

from conftest import emit
from repro.analysis.tables import render_table
from repro.workloads import (
    STRONG_SCALING,
    ScalingBehavior,
    build_trace,
    strong_scaling_names,
)

#: (abbr, suite, footprint MB, scaling) straight from Table II.
TABLE2 = [
    ("dct", "CUDA SDK", 33.0, "super-linear"),
    ("fwt", "CUDA SDK", 67.1, "super-linear"),
    ("bp", "Rodinia", 18.8, "super-linear"),
    ("va", "CUDA SDK", 50.3, "super-linear"),
    ("as", "CUDA SDK", 67.1, "super-linear"),
    ("lu", "Polybench", 16.8, "super-linear"),
    ("st", "Parboil", 131.9, "super-linear"),
    ("bfs", "Rodinia", 20.4, "sub-linear"),
    ("unet", "MLPerf", 615.0, "sub-linear"),
    ("sr", "Rodinia", 25.2, "sub-linear"),
    ("gr", "CUDA SDK", 46.1, "sub-linear"),
    ("btree", "Rodinia", 17.4, "sub-linear"),
    ("pf", "Rodinia", 404.1, "linear"),
    ("res50", "MLPerf", 1388.1, "linear"),
    ("res34", "MLPerf", 845.8, "linear"),
    ("ht", "Rodinia", 12.5, "linear"),
    ("at", "CUDA SDK", 100.0, "linear"),
    ("gemm", "Polybench", 12.6, "linear"),
    ("2mm", "Polybench", 21.0, "linear"),
    ("lbm", "Parboil", 359.4, "linear"),
    ("bs", "CUDA SDK", 80.1, "linear"),
]


class TestTable2:
    def test_regenerate_table2(self):
        rows = []
        for abbr in strong_scaling_names():
            spec = STRONG_SCALING[abbr]
            rows.append([
                abbr, spec.name, spec.suite, f"{spec.footprint_mb:g}",
                f"{spec.insns_m:g}", spec.scaling.value,
            ])
        emit(render_table(
            ["abbr", "name", "suite", "MB", "#insns(M)", "scaling"],
            rows, title="Table II: strong-scaling benchmarks",
        ))
        assert len(rows) == 21

    @pytest.mark.parametrize("abbr,suite,mb,scaling", TABLE2)
    def test_catalog_matches_paper(self, abbr, suite, mb, scaling):
        spec = STRONG_SCALING[abbr]
        assert spec.suite == suite
        assert spec.footprint_mb == pytest.approx(mb)
        assert spec.scaling == ScalingBehavior(scaling)

    def test_class_counts(self):
        classes = [s.scaling for s in STRONG_SCALING.values()]
        assert classes.count(ScalingBehavior.SUPER_LINEAR) == 7
        assert classes.count(ScalingBehavior.SUB_LINEAR) == 5
        assert classes.count(ScalingBehavior.LINEAR) == 9

    def test_all_traces_buildable_and_deterministic(self):
        for abbr in strong_scaling_names():
            spec = STRONG_SCALING[abbr]
            t1 = build_trace(spec)
            t2 = build_trace(spec)
            k1, k2 = t1.kernels[0].compiled(), t2.kernels[0].compiled()
            warp1 = k1.lines[k1.warp_bounds[0] : k1.warp_bounds[1]]
            warp2 = k2.lines[k2.warp_bounds[0] : k2.warp_bounds[1]]
            assert warp1.tolist() == warp2.tolist(), abbr
            warps = k1.cta_bounds[1] - k1.cta_bounds[0]
            assert warps == spec.kernels[0].warps_per_cta, abbr
