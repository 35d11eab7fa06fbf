"""Resilience property: interrupting a zoo campaign after *any* prefix
yields a schema-valid partial artifact whose confusion cells sum to the
completed count, and resuming converges bit-identically (modulo the
scrubbed wall-time fields) to the uninterrupted artifact.

Runs against the fake-runner substrate from :mod:`tests.zoo.
test_campaign`, so every prefix of a 6-workload plan is cheap to drill.
"""

import json
import os

import pytest

from tests.zoo.test_campaign import FakeRunner

from repro.campaign import (
    CampaignBudget,
    CampaignJournal,
    first_artifact_divergence,
)
from repro.exceptions import CampaignIncomplete, ShutdownRequested
from repro.zoo import (
    CampaignPlan,
    plan_payload,
    run_campaign,
    validate_campaign_artifact,
)
from repro.zoo.campaign import ZOO_ARTIFACT_KIND

N = 6
SEED = 9


class CountingRunner(FakeRunner):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.simulated = 0

    def simulate(self, *args, **kwargs):
        self.simulated += 1
        return super().simulate(*args, **kwargs)


class DrainingRunner(CountingRunner):
    """Raises ShutdownRequested once ``allowed`` simulations are spent —
    a SIGTERM landing at an exact workload boundary."""

    def __init__(self, allowed, **kwargs):
        super().__init__(**kwargs)
        self.allowed = allowed

    def simulate(self, *args, **kwargs):
        if self.simulated >= self.allowed:
            raise ShutdownRequested(signum=15)
        return super().simulate(*args, **kwargs)


def make_plan():
    return CampaignPlan(n=N, seed=SEED)


def make_journal(tmp, plan):
    return CampaignJournal.open(
        str(tmp), ZOO_ARTIFACT_KIND, plan_payload(plan), created_unix=0.0
    )


def test_every_interruption_prefix_yields_valid_resumable_artifact(tmp_path):
    plan = make_plan()
    sizes = len(plan.sizes)
    reference = run_campaign(plan, FakeRunner())
    for k in range(1, N):
        journal_dir = tmp_path / f"prefix-{k}"
        artifact = run_campaign(
            plan,
            DrainingRunner(allowed=k * sizes),
            journal=make_journal(journal_dir, plan),
        )
        # Schema-valid, JSON-serializable, and honest about the stop.
        assert validate_campaign_artifact(artifact) == []
        assert validate_campaign_artifact(
            json.loads(json.dumps(artifact))
        ) == []
        partial = artifact["partial"]
        assert partial["reason"] == "drain"
        assert partial["signum"] == 15
        assert partial["completed"] == k
        assert partial["completed"] + partial["remaining"] == partial["planned"] == N
        # Confusion cells cover exactly the completed prefix.
        cells = sum(
            sum(row.values()) for row in artifact["confusion"].values()
        )
        assert cells == len(artifact["workloads"]) == k
        assert artifact["campaign"]["workloads"] == k
        # Resuming executes only the remainder and converges.
        resumed_runner = CountingRunner()
        resumed = run_campaign(
            plan, resumed_runner, journal=make_journal(journal_dir, plan)
        )
        assert "partial" not in resumed
        assert resumed_runner.simulated == (N - k) * sizes
        assert first_artifact_divergence(resumed, reference) is None


def test_stop_before_first_workload_is_incomplete_not_an_artifact(tmp_path):
    plan = make_plan()
    with pytest.raises(CampaignIncomplete) as excinfo:
        run_campaign(
            plan, DrainingRunner(allowed=0), journal=make_journal(tmp_path, plan)
        )
    assert excinfo.value.reason == "drain"
    # Nothing was sealed; the same journal then runs to completion.
    resumed = run_campaign(plan, FakeRunner(), journal=make_journal(tmp_path, plan))
    assert "partial" not in resumed
    assert validate_campaign_artifact(resumed) == []


def test_budgeted_invocations_ratchet_to_the_same_artifact(tmp_path):
    plan = make_plan()
    reference = run_campaign(plan, FakeRunner())
    # Each invocation prefetches only the runs of the two workloads it
    # may newly execute — never a sealed one's, never one past the cap.
    new_runs = 2 * (len(plan.sizes) + 1)
    for cap in (2, 4):
        runner = CountingRunner()
        artifact = run_campaign(
            plan,
            runner,
            journal=make_journal(tmp_path, plan),
            budget=CampaignBudget(max_workloads=cap),
        )
        assert validate_campaign_artifact(artifact) == []
        assert artifact["partial"]["reason"] == "workload-budget"
        assert artifact["partial"]["completed"] == cap
        assert runner.prefetched == new_runs
    runner = CountingRunner()
    final = run_campaign(plan, runner, journal=make_journal(tmp_path, plan))
    assert runner.prefetched == new_runs
    assert "partial" not in final
    assert first_artifact_divergence(final, reference) is None


def test_sealed_failures_are_reused_not_retried(tmp_path):
    plan = make_plan()
    reference = run_campaign(plan, FakeRunner(fail_intents={"linear"}))
    first = run_campaign(
        plan,
        FakeRunner(fail_intents={"linear"}),
        journal=make_journal(tmp_path, plan),
        budget=CampaignBudget(max_workloads=4),
    )
    assert first["partial"]["completed"] == 4
    # The resume keeps the same fault model; sealed casualties are
    # reused as data, the remainder executes, and the final artifact
    # matches an uninterrupted run of the same campaign.
    final = run_campaign(
        plan,
        FakeRunner(fail_intents={"linear"}),
        journal=make_journal(tmp_path, plan),
    )
    assert "partial" not in final
    assert len(final["failures"]) == len(reference["failures"]) == 2
    assert first_artifact_divergence(final, reference) is None


def test_completed_journal_replays_without_any_execution(tmp_path):
    plan = make_plan()
    reference = run_campaign(plan, FakeRunner())
    journal = make_journal(tmp_path, plan)
    run_campaign(plan, FakeRunner(), journal=journal)
    assert journal.complete
    replay_runner = CountingRunner()
    replayed = run_campaign(
        plan, replay_runner, journal=make_journal(tmp_path, plan)
    )
    assert replay_runner.simulated == 0
    assert first_artifact_divergence(replayed, reference) is None


#: Work-counter gate, the small-input twin of the perf benchmark's
#: ``campaign.bytes_per_unit``: this sealed 6-workload journal measures
#: 847.8–848.2 bytes per workload today (header, with the plan's
#: ``trace_contract``, and complete marker included; each record is
#: mostly the spec payload plus its digest).
#: ~5 % headroom absorbs timestamp digits, not a second copy of a field.
JOURNAL_BYTES_PER_UNIT_BUDGET = 887


def test_journal_bytes_per_sealed_unit_within_budget(tmp_path):
    plan = make_plan()
    journal = make_journal(tmp_path, plan)
    run_campaign(plan, FakeRunner(), journal=journal)
    assert journal.complete and len(journal.completed) == N
    assert os.path.getsize(journal.path) / N <= JOURNAL_BYTES_PER_UNIT_BUDGET
