"""Table IV: weak-scaling benchmark configurations.

Checks the weak-scaling catalog (six scalable benchmarks), the input
scaling rule (CTAs and footprint double per system-size doubling), and
the MCM subset.
"""

import pytest

from conftest import emit
from repro.analysis.tables import render_table
from repro.workloads import (
    MCM_WEAK_BENCHMARKS,
    WEAK_SCALING,
    ScalingBehavior,
    build_trace,
    weak_scaling_names,
)


class TestTable4:
    def test_regenerate_table4(self):
        rows = []
        for abbr in weak_scaling_names():
            spec = WEAK_SCALING[abbr]
            for w in (1, 2, 4, 8, 16):
                trace = build_trace(spec, work_scale=w)
                rows.append([
                    abbr if w == 1 else "",
                    f"x{w}",
                    trace.num_ctas,
                    f"{spec.footprint_mb * w:.1f}",
                    spec.weak_scaling.value,
                    "MCM" if (spec.mcm and w in (4, 8, 16)) else "",
                ])
        emit(render_table(
            ["bench", "input", "#CTAs", "MB", "scaling", "mcm"],
            rows, title="Table IV: weak-scaling configurations",
        ))
        assert len(rows) == 30

    def test_six_weak_benchmarks(self):
        assert weak_scaling_names() == ["bfs", "bs", "btree", "as", "bp", "va"]

    def test_weak_classes_match_paper(self):
        expected = {
            "bfs": ScalingBehavior.SUB_LINEAR,
            "bs": ScalingBehavior.SUB_LINEAR,
            "btree": ScalingBehavior.LINEAR,
            "as": ScalingBehavior.LINEAR,
            "bp": ScalingBehavior.LINEAR,
            "va": ScalingBehavior.LINEAR,
        }
        for abbr, scaling in expected.items():
            assert WEAK_SCALING[abbr].weak_scaling == scaling

    def test_mcm_subset_excludes_btree(self):
        assert set(MCM_WEAK_BENCHMARKS) == {"bfs", "bs", "as", "bp", "va"}
        assert not WEAK_SCALING["btree"].mcm

    def test_work_scales_with_input(self):
        for abbr in weak_scaling_names():
            spec = WEAK_SCALING[abbr]
            small = build_trace(spec, work_scale=1).count_accesses()
            large = build_trace(spec, work_scale=4).count_accesses()
            assert large == pytest.approx(4 * small, rel=0.25), abbr

    def test_va_128sm_input_has_8192_ctas(self):
        assert build_trace(WEAK_SCALING["va"], work_scale=16.0).num_ctas == 8192
