"""Cache keys are a storage format: every on-disk store, journal and
golden ledger is addressed by them, so a faster derivation must produce
the same bytes — and must never answer for a spec that has changed.

The pins are the stored keys themselves: ``results/golden/ledger.json``
for the paper suite, and the literal table below for the zoo sample the
perf benchmark's ``campaign_store`` workload sweeps
(``CampaignPlan(n=6, seed=9)``).  The spec halves include the
generators' ``TRACE_CONTRACT``, so they move exactly when the way a spec
becomes a trace does.
"""

import json
import os
from dataclasses import fields, replace

import pytest

from repro.analysis import runner as runner_module
from repro.analysis.parallel import RunRequest
from repro.analysis.runner import MAX_SYSTEM_SIZE, mcm_key, mrc_key, sim_key
from repro.campaign import plan_digest
from repro.service.api import ApiError, parse_prediction_request
from repro.workloads import get_benchmark
from repro.workloads.spec import KernelShape
from repro.zoo import CampaignPlan, plan_payload, sample_batch
from repro.zoo.campaign import ZOO_ARTIFACT_KIND

LEDGER = os.path.join(
    os.path.dirname(__file__), "..", "..", "results", "golden", "ledger.json"
)

#: System half of a key, by size; ``None`` is the unscaled baseline an
#: MRC is collected against.
CONFIG_HALF = {
    8: "ad78f896c967c182",
    16: "ac470ce8a141b180",
    32: "a60c3593f7a56f4a",
    None: "6206b24eb99adea9",
}
#: Spec half of the zoo sample's keys: ``abbr -> (sim, mrc)``.
ZOO_SPEC_HALF = {
    "z8a2cad1114a2": ("0c2ca3f551e491c6", "b5d196c1bd609e3a"),
    "zb7b2937b0132": ("39beed4cd47d50d5", "a677a7a863c0e4f5"),
    "zec2428d89c6c": ("f3b53642cf494eb7", "26e8f97d8d3c5306"),
    "z16224780c1c8": ("867b2b8d24a79f0d", "3f5a40d8c81b043d"),
    "z91d540ceb9a5": ("8c658cb74399d4e8", "589ffbd94525b7e2"),
    "z94b59e426c5e": ("398972aef181f729", "ef1ec9882b9fbeb6"),
}


def entry_key(entry):
    spec = get_benchmark(entry["workload"])
    scale, seed = entry["work_scale"], entry["seed"]
    if entry["kind"] == "sim":
        return sim_key(spec, entry["size"], scale, seed)
    if entry["kind"] == "mcm":
        return mcm_key(spec, entry["size"], scale, seed)
    return mrc_key(spec, scale, entry["method"], seed)


class TestStoredKeysRecompute:
    def test_golden_ledger(self):
        with open(LEDGER) as handle:
            entries = json.load(handle)["entries"]
        assert len(entries) == 12
        for key, entry in entries.items():
            assert entry_key(entry) == key

    def test_zoo_sample(self):
        specs = sample_batch(6, seed=9)
        assert [spec.abbr for spec in specs] == list(ZOO_SPEC_HALF)
        for spec in specs:
            sim_half, mrc_half = ZOO_SPEC_HALF[spec.abbr]
            for size in (8, 16, 32):
                assert sim_key(spec, size, 1.0, 9) == (
                    f"sim|{sim_half}|{CONFIG_HALF[size]}"
                )
            assert mrc_key(spec, 1.0, "stack", 9) == (
                f"mrc|{mrc_half}|{CONFIG_HALF[None]}"
            )

    def test_run_request_key_is_the_function_s(self):
        spec = get_benchmark("bfs", weak=True)
        assert RunRequest("sim", spec, size=16, seed=3).key == sim_key(
            spec, 16, 1.0, 3
        )
        assert RunRequest("mcm", spec, size=4).key == mcm_key(spec, 4, 1.0, 0)
        assert RunRequest("mrc", spec, method="lru").key == mrc_key(
            spec, 1.0, "lru", 0
        )


class TestTraceContractVersionsKeys:
    """The literals are what trace contract 1 wrote: a store, service
    store or campaign journal holding them must not answer for traces of
    a later contract."""

    def test_sim_key_moved_off_the_previous_contract(self):
        assert sim_key(get_benchmark("va"), 8, 1.0, 0) != (
            "sim|66cd57de36bb99df|b5ef46454c28173e"
        )

    def test_campaign_plan_digest_moved_off_the_previous_contract(self):
        plan = CampaignPlan(n=6, seed=9, work_scale=0.1)
        assert plan_digest(ZOO_ARTIFACT_KIND, plan_payload(plan)) != (
            "a326df4ab4964ae2"
        )


class TestNoStaleMemo:
    """Nothing is memoized on spec identity: ``params`` is a mutable
    mapping and a frozen dataclass is only frozen by convention."""

    def spec(self):
        # Own params and kernels: the tests below mutate them in place.
        va = get_benchmark("va")
        return replace(
            va,
            params=dict(va.params, probe=1.0),
            kernels=tuple(replace(kernel) for kernel in va.kernels),
        )

    def test_replace_yields_a_different_key(self):
        spec = self.spec()
        before = sim_key(spec, 8, 1.0, 0)
        assert sim_key(replace(spec, footprint_mb=spec.footprint_mb * 2),
                       8, 1.0, 0) != before
        assert sim_key(spec, 8, 1.0, 0) == before

    def test_mutated_params_yield_a_different_key(self):
        spec = self.spec()
        before = sim_key(spec, 8, 1.0, 0), mrc_key(spec, 1.0, "stack", 0)
        spec.params["probe"] = 2.0
        after = sim_key(spec, 8, 1.0, 0), mrc_key(spec, 1.0, "stack", 0)
        assert after[0] != before[0] and after[1] != before[1]
        spec.params["probe"] = 1.0
        assert (sim_key(spec, 8, 1.0, 0), mrc_key(spec, 1.0, "stack", 0)) == before

    @pytest.mark.parametrize("field", [f.name for f in fields(KernelShape)])
    def test_every_kernel_shape_field_participates(self, field):
        spec = self.spec()
        before = sim_key(spec, 8, 1.0, 0)
        kernel = spec.kernels[0]
        original = getattr(kernel, field)
        object.__setattr__(kernel, field, original * 2)
        assert sim_key(spec, 8, 1.0, 0) != before
        object.__setattr__(kernel, field, original)
        assert sim_key(spec, 8, 1.0, 0) == before

    def test_run_request_derives_its_key_once(self, monkeypatch):
        calls = []
        real = runner_module.sim_key
        monkeypatch.setattr(
            runner_module, "sim_key",
            lambda *args: calls.append(args) or real(*args),
        )
        request = RunRequest("sim", self.spec(), size=8)
        assert request.key == request.key
        assert len(calls) == 1
        # A changed run is a new request, and a new request a new key.
        assert replace(request, seed=1).key != request.key
        assert len(calls) == 2


class TestConfigMemoIsBounded:
    def test_bound_is_the_api_size_limit(self):
        for memo in (runner_module._gpu_digest, runner_module._mcm_digest):
            assert memo.cache_info().maxsize == MAX_SYSTEM_SIZE

        def body(size):
            return json.dumps({"benchmark": "va", "size": size}).encode()

        assert parse_prediction_request(body(MAX_SYSTEM_SIZE)).size == (
            MAX_SYSTEM_SIZE
        )
        with pytest.raises(ApiError, match="size"):
            parse_prediction_request(body(MAX_SYSTEM_SIZE + 1))

    def test_equal_numbers_of_different_types_do_not_share_an_entry(self):
        # ``scaled(8.0)`` names its config "…-8.0sm": a different system
        # as far as the key is concerned, before the memo and after.
        va = get_benchmark("va")
        assert sim_key(va, 8.0, 1.0, 0) != sim_key(va, 8, 1.0, 0)
        assert sim_key(va, 8, 1.0, 0).endswith(CONFIG_HALF[8])
