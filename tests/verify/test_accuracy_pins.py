"""Predictor accuracy, pinned: the place accuracy is held.

The golden ledger pins every quick-tier *simulator* payload bit for bit;
these pins hold the *predictor's* output on the same three scaling
regimes and on the seeded zoo sample.  Both recipes are the ones behind
``core.ape_pct.*`` and ``zoo.mape_pct`` / ``zoo.match_rate`` in
``BENCHMARK.json`` (``benchmarks/perf/workloads.py``), where they are
reported but deliberately not gated.

Every constant is deterministic per seed and was computed at the parent
of the commit that added this file.  A change that moves one must say
so and re-pin it on purpose, the way a model change re-blesses the
ledger; a refactor must not move any.
"""

import os

import pytest

from repro.analysis.faults import ExecutionPolicy
from repro.analysis.runner import CachedRunner, compute_mrc, compute_sim
from repro.core.workflow import predict_strong_scaling
from repro.workloads import get_benchmark
from repro.zoo import CampaignPlan, run_campaign

EXACT = dict(rel=1e-9, abs=0.0)

#: Scale-model APE (%) predicting 32 SMs from (8, 16) at a quarter of
#: the Table II input, seed 0 — one benchmark per scaling class.
QUICK_APE_PCT = {
    "va": 16.931401272902388,     # super-linear (falls off its cliff at 32)
    "btree": 18.351004522029413,  # sub-linear
    "bs": 10.2966439979562,       # linear
}
WORK_SCALE = 0.25


@pytest.mark.parametrize("abbr", sorted(QUICK_APE_PCT))
def test_quick_tier_scale_model_ape(abbr):
    spec = get_benchmark(abbr)
    study = predict_strong_scaling(
        spec, (8, 16), (32,),
        simulate_fn=lambda num_sms, work_scale: compute_sim(
            spec, num_sms, work_scale * WORK_SCALE, 0
        ),
        mrc_fn=lambda: compute_mrc(spec, WORK_SCALE, "stack", 0),
    )
    ape_pct = 100.0 * study.errors("scale-model")[32]
    assert ape_pct == pytest.approx(QUICK_APE_PCT[abbr], **EXACT)


#: ``CampaignPlan(n=6, seed=9, work_scale=0.1)``, serial: (intent,
#: measured, APE %) per generated workload in plan order.
ZOO_WORKLOADS = [
    ("linear", "sub-linear", 71.52221473936574),
    ("sub-linear", "sub-linear", 6.929957218683848),
    # The two intended-super-linear rows are the known-wrong part of the
    # zoo result (ROADMAP item 3): at this sample neither even measures
    # super-linear, and at the default campaign scale the super-linear
    # bucket's MAPE is 341 %.  Item 3 is expected to move these values
    # *on purpose*; they are pinned so nothing else moves them silently.
    ("super-linear", "sub-linear", 3.579746436885429),
    ("linear", "sub-linear", 4.183560669539054),
    ("sub-linear", "sub-linear", 28.79272826288807),
    ("super-linear", "sub-linear", 61.32841909960436),
]
ZOO_MAPE_PCT = 29.38943773782775
ZOO_MATCH_RATE = 2 / 6


def test_zoo_sample_accuracy(tmp_path):
    runner = CachedRunner(
        os.path.join(tmp_path, "store"),
        jobs=1,
        policy=ExecutionPolicy(keep_going=True),
    )
    artifact = run_campaign(CampaignPlan(n=6, seed=9, work_scale=0.1), runner)
    assert artifact["failures"] == []

    records = artifact["workloads"]
    assert [(r["intent"], r["measured"]) for r in records] == [
        row[:2] for row in ZOO_WORKLOADS
    ]
    for record, (_, _, ape_pct) in zip(records, ZOO_WORKLOADS):
        assert record["ape_pct"] == pytest.approx(ape_pct, **EXACT), record["abbr"]

    accuracy = artifact["accuracy"]
    assert accuracy["mape_pct"] == pytest.approx(ZOO_MAPE_PCT, **EXACT)
    assert accuracy["regime_match_rate"] == pytest.approx(ZOO_MATCH_RATE, **EXACT)
    # Per measured regime: all six land in one bucket at this sample.
    assert list(artifact["regimes"]) == ["sub-linear"]
    assert artifact["regimes"]["sub-linear"]["count"] == 6
    assert artifact["regimes"]["sub-linear"]["mape_pct"] == pytest.approx(
        ZOO_MAPE_PCT, **EXACT
    )
