"""Campaign driver: artifact shape, confusion accounting, failure paths.

The driver logic is exercised against a fake runner with synthetic IPC
profiles — one per intended regime, each engineered to classify as its
own intent — so the tests pin the orchestration (stratified sampling,
classification wiring, confusion and failure accounting, artifact
validity) without paying for detailed simulations.
"""

import json

import pytest

from repro.exceptions import ReproError, SimulationError, WorkloadError
from repro.gpu.results import SimulationResult
from repro.mrc import MissRateCurve
from repro.zoo import (
    REGIMES,
    CampaignPlan,
    render_campaign,
    run_campaign,
    validate_campaign_artifact,
)

MB = 2**20

#: Synthetic IPC-versus-size profiles, each measuring as its own intent:
#: proportional growth, a 3.25x cliff at 32, and early saturation.
_IPC = {
    "linear": {8: 80.0, 16: 160.0, 32: 320.0},
    "super-linear": {8: 80.0, 16: 160.0, 32: 520.0},
    "sub-linear": {8: 100.0, 16: 150.0, 32: 190.0},
}


class FakeRunner:
    def __init__(self, fail_intents=()):
        self.fail_intents = set(fail_intents)
        self.prefetched = 0
        self.flushed = False

    def prefetch(self, requests):
        self.prefetched = len(list(requests))
        return 0

    def simulate(self, spec, num_sms, work_scale=1.0, seed=0):
        if spec.intent in self.fail_intents:
            raise SimulationError(f"{spec.abbr}: injected failure")
        ipc = _IPC[spec.intent][num_sms]
        return SimulationResult(
            workload=spec.abbr,
            system=f"gpu{num_sms}",
            num_sms=num_sms,
            cycles=1000.0,
            thread_instructions=int(ipc * 1000),
            warp_instructions=int(ipc * 1000) // 32,
            memory_accesses=1000,
            memory_stall_fraction=0.4,
            wall_time_s=0.01,
        )

    def miss_rate_curve(self, spec, work_scale=1.0, method="stack", seed=0):
        return MissRateCurve(
            workload=spec.abbr,
            capacities_bytes=(int(2.125 * MB), int(4.25 * MB), int(8.5 * MB)),
            mpki=(20.0, 12.0, 2.0),
        )

    def flush(self):
        self.flushed = True


def run_fake_campaign(n=6, seed=9, **runner_kwargs):
    plan = CampaignPlan(n=n, seed=seed)
    return run_campaign(plan, FakeRunner(**runner_kwargs))


class TestPlanValidation:
    def test_degenerate_plans_rejected(self):
        with pytest.raises(WorkloadError, match="plan.n"):
            CampaignPlan(n=0)
        with pytest.raises(WorkloadError, match="plan.scales"):
            CampaignPlan(scales=(8,))
        with pytest.raises(WorkloadError, match="plan.target"):
            CampaignPlan(scales=(8, 16), target=16)
        with pytest.raises(WorkloadError, match="work_scale"):
            CampaignPlan(work_scale=0.0)

    def test_sizes_are_sorted_and_complete(self):
        plan = CampaignPlan(scales=(16, 8), target=32)
        assert plan.sizes == (8, 16, 32)


class TestRunCampaign:
    def test_artifact_is_schema_valid(self):
        artifact = run_fake_campaign()
        assert validate_campaign_artifact(artifact) == []
        assert validate_campaign_artifact(
            json.loads(json.dumps(artifact))
        ) == []

    def test_confusion_is_diagonal_for_faithful_profiles(self):
        artifact = run_fake_campaign()
        confusion = artifact["confusion"]
        for intended in REGIMES:
            for measured in REGIMES:
                expected = 2 if intended == measured else 0
                assert confusion[intended][measured] == expected
        assert artifact["accuracy"]["regime_match_rate"] == 1.0

    def test_per_regime_stats_cover_every_measured_regime(self):
        artifact = run_fake_campaign()
        assert sorted(artifact["regimes"]) == sorted(REGIMES)
        assert sum(b["count"] for b in artifact["regimes"].values()) == 6

    def test_payloads_reproduce_spec_digests(self):
        from repro.zoo import spec_from_payload

        artifact = run_fake_campaign()
        for record in artifact["workloads"]:
            assert spec_from_payload(record["payload"]).digest == \
                record["digest"]

    def test_failures_are_recorded_not_fatal(self):
        artifact = run_fake_campaign(fail_intents={"linear"})
        assert validate_campaign_artifact(artifact) == []
        assert len(artifact["failures"]) == 2
        assert all(f["intent"] == "linear" for f in artifact["failures"])
        assert len(artifact["workloads"]) == 4
        assert artifact["campaign"]["failed"] == 2
        # Intended coverage still counts the casualties.
        assert artifact["coverage"]["intended"]["linear"] == 2

    def test_total_loss_raises(self):
        with pytest.raises(ReproError, match="no usable workloads"):
            run_fake_campaign(fail_intents=set(REGIMES))

    def test_runner_lifecycle_used(self):
        plan = CampaignPlan(n=3, seed=1)
        runner = FakeRunner()
        run_campaign(plan, runner)
        # 3 specs x (3 sizes + 1 MRC) prefetched, then flushed.
        assert runner.prefetched == 12
        assert runner.flushed


class TestValidator:
    def test_tampered_kind_rejected(self):
        artifact = run_fake_campaign()
        artifact["kind"] = "repro-bench"
        assert any("kind" in p for p in validate_campaign_artifact(artifact))

    def test_missing_block_rejected(self):
        for block in ("workloads", "regimes", "confusion", "accuracy",
                      "campaign", "coverage", "plan"):
            artifact = run_fake_campaign()
            del artifact[block]
            assert validate_campaign_artifact(artifact) != []

    def test_inconsistent_confusion_counts_rejected(self):
        artifact = run_fake_campaign()
        artifact["confusion"]["linear"]["linear"] += 1
        problems = validate_campaign_artifact(artifact)
        assert any("confusion" in p and "sum" in p for p in problems)

    def test_unknown_measured_regime_rejected(self):
        artifact = run_fake_campaign()
        artifact["workloads"][0]["measured"] = "cubic"
        problems = validate_campaign_artifact(artifact)
        assert any("measured" in p for p in problems)


class TestReport:
    def test_report_renders_key_sections(self):
        artifact = run_fake_campaign()
        text = render_campaign(artifact)
        assert "Prediction accuracy by measured regime" in text
        assert "Regime confusion" in text
        assert "Worst-predicted workloads" in text
        assert "APE distribution" in text
        for record in artifact["workloads"][:1]:
            assert record["abbr"] in text

    def test_report_refuses_invalid_artifact(self):
        with pytest.raises(ReproError, match="invalid zoo artifact"):
            render_campaign({"kind": "junk"})
