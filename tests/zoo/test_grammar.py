"""Grammar: validation, serialization, realization determinism."""

import json

import pytest

from repro.exceptions import WorkloadError
from repro.workloads.generators import MAX_CTAS, build_trace
from repro.workloads.spec import BenchmarkSpec, KernelShape, ScalingBehavior
from repro.zoo import (
    Burst,
    Prim,
    Ramp,
    Repeat,
    Seq,
    expr_from_json,
    realize,
    spec_from_payload,
)
from tests.hand_traces import warps_of


class TestPrimitiveValidation:
    def test_unknown_primitive_named(self):
        with pytest.raises(WorkloadError, match="unknown primitive"):
            Prim("gemmish")

    def test_unknown_parameter_named(self):
        with pytest.raises(WorkloadError, match="sweep.wat"):
            Prim("sweep", {"wat": 1.0})

    def test_empty_footprint_names_field(self):
        with pytest.raises(WorkloadError, match="frontier.fp_mb"):
            Prim("frontier", {"fp_mb": 0.0})

    def test_non_positive_zipf_names_field(self):
        with pytest.raises(WorkloadError, match="frontier.zipf_alpha"):
            Prim("frontier", {"zipf_alpha": -0.5})

    def test_fraction_bounds_named(self):
        with pytest.raises(WorkloadError, match="sweep.cold_frac"):
            Prim("sweep", {"cold_frac": 1.5})

    def test_empty_seq_rejected(self):
        with pytest.raises(WorkloadError, match="seq.children"):
            Seq(())

    def test_zero_length_repeat_rejected(self):
        with pytest.raises(WorkloadError, match="repeat.times"):
            Repeat(Prim("stream"), times=0)

    def test_degenerate_ramp_rejected(self):
        with pytest.raises(WorkloadError, match="ramp.steps"):
            Ramp(Prim("sweep"), steps=0, growth=2.0)
        with pytest.raises(WorkloadError, match="ramp.growth"):
            Ramp(Prim("sweep"), steps=2, growth=0.0)

    def test_burst_intensity_bounds(self):
        with pytest.raises(WorkloadError, match="burst.intensity"):
            Burst(Prim("stream"), intensity=1.2)

    def test_cta_count_over_clamp_named(self):
        with pytest.raises(WorkloadError, match="ctas_per_phase"):
            realize(Prim("stream"), seed=0, intent="linear",
                    ctas_per_phase=MAX_CTAS + 1)
        with pytest.raises(WorkloadError, match="ctas_per_phase"):
            realize(Prim("stream"), seed=0, intent="linear",
                    ctas_per_phase=0)

    def test_unknown_intent_rejected(self):
        with pytest.raises(WorkloadError, match="intent"):
            realize(Prim("stream"), seed=0, intent="cubic")


class TestComposition:
    def test_seq_concatenates_phases(self):
        expr = Seq((Prim("sweep"), Prim("stream"), Prim("tile")))
        families = [p.family for p in expr.phases()]
        assert families == ["sweep", "stream", "tiled"]

    def test_repeat_copies_phases(self):
        assert len(Repeat(Prim("chase"), times=3).phases()) == 3

    def test_ramp_grows_footprints(self):
        expr = Ramp(Prim("stream", {"fp_mb": 10.0}), steps=3, growth=2.0)
        footprints = [p.params["fp_mb"] for p in expr.phases()]
        assert footprints == [10.0, 20.0, 40.0]

    def test_burst_shrinks_lead_in(self):
        lockstep = Burst(Prim("stream"), intensity=1.0).phases()[0]
        half = Burst(Prim("stream"), intensity=0.5).phases()[0]
        assert lockstep.params["lead_in"] == 0
        assert 0 < half.params["lead_in"] < 900

    def test_param_renames_reach_the_generator(self):
        phase = Prim("frontier", {"zipf_alpha": 0.8}).phases()[0]
        assert phase.params["zipf_exp"] == 0.8
        assert "zipf_alpha" not in phase.params


class TestSerialization:
    EXPR = Burst(
        Seq((
            Prim("sweep", {"hot_mb": 6.0}),
            Ramp(Prim("frontier", {"sigma": 0.7}), steps=2, growth=1.5),
            Repeat(Prim("tile"), times=2),
        )),
        intensity=0.5,
    )

    def test_json_round_trip_preserves_phases(self):
        document = json.loads(json.dumps(self.EXPR.to_json()))
        assert expr_from_json(document).phases() == self.EXPR.phases()

    def test_malformed_document_rejected(self):
        with pytest.raises(WorkloadError, match="unknown op"):
            expr_from_json({"op": "quantum"})
        with pytest.raises(WorkloadError):
            expr_from_json("not an object")
        with pytest.raises(WorkloadError, match="seq.children"):
            expr_from_json({"op": "seq", "children": "nope"})


class TestRealize:
    def test_deterministic_in_expr_and_seed(self):
        a = realize(Prim("stream"), seed=7, intent="linear")
        b = realize(Prim("stream"), seed=7, intent="linear")
        assert a.abbr == b.abbr
        assert a == b

    def test_distinct_inputs_distinct_digests(self):
        base = realize(Prim("stream"), seed=7, intent="linear")
        assert realize(Prim("stream"), seed=8, intent="linear").digest != base.digest
        assert realize(Prim("stream", {"fp_mb": 65.0}), seed=7,
                       intent="linear").digest != base.digest
        assert realize(Prim("stream"), seed=7, intent="linear",
                       ctas_per_phase=100).digest != base.digest

    def test_one_kernel_per_phase(self):
        spec = realize(Seq((Prim("sweep"), Prim("stream"))), seed=1,
                       intent="super-linear", ctas_per_phase=96)
        assert len(spec.kernels) == 2
        assert len(spec.phases) == 2
        assert spec.family == "generated"
        assert spec.suite == "zoo"
        assert spec.scaling is ScalingBehavior.SUPER_LINEAR

    def test_payload_round_trip_is_bit_stable(self):
        spec = realize(
            Burst(Seq((Prim("sweep", {"hot_mb": 6.2}), Prim("chase"))), 0.4),
            seed=11, intent="sub-linear", ctas_per_phase=128,
        )
        restored = spec_from_payload(json.loads(json.dumps(spec.payload())))
        assert restored == spec
        assert restored.digest == spec.digest

    def test_malformed_payload_rejected(self):
        with pytest.raises(WorkloadError, match="malformed"):
            spec_from_payload({"grammar": {"op": "prim", "kind": "stream"}})


class TestGeneratedFamily:
    def test_generated_spec_builds_a_trace(self):
        spec = realize(
            Seq((Prim("sweep", {"hot_mb": 2.0}), Prim("stream", {"fp_mb": 4.0}))),
            seed=3, intent="super-linear", ctas_per_phase=4,
        )
        trace = build_trace(spec, work_scale=0.02, seed=0)
        assert len(trace.kernels) == 2
        warps = warps_of(trace.kernels[0], 0)
        assert warps
        assert any(len(lines) for __, lines in warps)

    def test_plain_spec_with_generated_family_rejected(self):
        spec = BenchmarkSpec(
            abbr="zz", name="zz", suite="zoo", footprint_mb=1.0, insns_m=0.0,
            kernels=(KernelShape(num_ctas=4),),
            scaling=ScalingBehavior.LINEAR, family="generated",
        )
        with pytest.raises(WorkloadError, match="phases"):
            build_trace(spec, work_scale=0.02, seed=0)
