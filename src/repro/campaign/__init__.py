"""Campaign resilience: journaled, crash-safe, resumable sweeps.

The per-run layers (retry and breaker) make a single simulation
survivable; this package makes the *campaign* survivable.
Three pieces:

* :mod:`repro.campaign.journal` — the append-only progress journal
  under ``results/campaigns/<plan digest>/``: a sealed header binding
  the plan, then one durable record per workload outcome.
* :mod:`repro.campaign.runtime` — :func:`~repro.campaign.runtime.
  run_units`, the execute-or-reuse loop with SIGINT/SIGTERM drain and
  ``--max-wall`` / ``--max-workloads`` budgets, plus
  :func:`~repro.campaign.runtime.scrub_artifact` for the volatile
  wall-time fields.
* :mod:`repro.campaign.diff` — :func:`~repro.campaign.diff.
  first_artifact_divergence`, the differential that proves a resumed
  campaign converged to the uninterrupted artifact.

``repro.zoo.campaign`` executes through this runtime;
``scripts/campaign_chaos.py`` kill -9s it at seeded points and asserts
the contract holds.
"""

from repro.campaign.diff import ArtifactDivergence, first_artifact_divergence
from repro.campaign.journal import (
    JOURNAL_SCHEMA_VERSION,
    KILL_AFTER_ENV,
    CampaignJournal,
    plan_digest,
)
from repro.campaign.runtime import (
    VOLATILE_ARTIFACT_FIELDS,
    CampaignBudget,
    RuntimeSummary,
    UnitOutcome,
    run_units,
    scrub_artifact,
)

__all__ = [
    "ArtifactDivergence",
    "CampaignBudget",
    "CampaignJournal",
    "JOURNAL_SCHEMA_VERSION",
    "KILL_AFTER_ENV",
    "RuntimeSummary",
    "UnitOutcome",
    "VOLATILE_ARTIFACT_FIELDS",
    "first_artifact_divergence",
    "plan_digest",
    "run_units",
    "scrub_artifact",
]
