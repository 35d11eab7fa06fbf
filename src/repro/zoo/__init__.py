"""The generative workload zoo.

The paper validates scale-model prediction on 21 hand-picked miniatures;
this package grows that into a *generated* corpus so the predictor's
accuracy claims are tested per scaling regime rather than per anecdote:

* :mod:`repro.zoo.grammar` — a composable access-pattern grammar whose
  primitives (phased mixes, bursty arrivals, hot-spot contention,
  power-law graph frontiers, working-set ramps) compose the existing
  :mod:`repro.workloads.generators` families into
  :class:`~repro.zoo.grammar.GeneratedSpec` workloads, deterministic in
  ``(grammar_expr, seed)`` and JSON round-trippable;
* :mod:`repro.zoo.sample` — seeded, stratified batches of generated
  specs spanning the intended scaling regimes;
* :mod:`repro.zoo.campaign` — the campaign driver: sweep every
  generated workload across system sizes through the cached runner,
  classify the *measured* regime, compare scale-model prediction
  against detailed simulation, and emit a schema-versioned artifact
  with per-regime MAPE, a regime-confusion matrix and coverage stats;
* :mod:`repro.zoo.report` — table/ASCII-plot rendering of a campaign
  artifact in the :mod:`repro.analysis` house style.
"""

from repro.zoo.grammar import (
    Burst,
    Expr,
    GeneratedSpec,
    PhaseSpec,
    Prim,
    Ramp,
    Repeat,
    Seq,
    expr_from_json,
    realize,
    spec_from_payload,
)
from repro.zoo.sample import REGIMES, sample_batch, sample_spec
from repro.zoo.campaign import (
    CampaignPlan,
    plan_payload,
    run_campaign,
    validate_campaign_artifact,
)
from repro.zoo.report import render_campaign

__all__ = [
    "Burst",
    "CampaignPlan",
    "Expr",
    "GeneratedSpec",
    "PhaseSpec",
    "Prim",
    "Ramp",
    "Repeat",
    "Seq",
    "REGIMES",
    "expr_from_json",
    "plan_payload",
    "realize",
    "render_campaign",
    "run_campaign",
    "sample_batch",
    "sample_spec",
    "spec_from_payload",
    "validate_campaign_artifact",
]
