"""Property-based simulator invariants over randomized tiny workloads."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu import GPUConfig, simulate
from repro.trace.kernel import WorkloadTrace
from tests.hand_traces import hand_kernel


def tiny_config(seed_free=True):
    return GPUConfig(
        num_sms=2, llc_slices=2, num_mcs=1, capacity_scale=1.0,
        latency_jitter=0.0 if seed_free else 0.3, name="prop",
    )


workload_strategy = st.builds(
    dict,
    num_ctas=st.integers(min_value=1, max_value=6),
    warps=st.integers(min_value=1, max_value=3),
    accesses=st.integers(min_value=0, max_value=12),
    compute=st.integers(min_value=0, max_value=20),
    tail=st.integers(min_value=0, max_value=9),
    footprint=st.integers(min_value=1, max_value=400),
    seed=st.integers(min_value=0, max_value=2**16),
)


def build_workload(params) -> WorkloadTrace:
    rng = np.random.default_rng(params["seed"])
    accesses = params["accesses"]
    ctas = params["num_ctas"]

    pregen = [
        [
            rng.integers(0, params["footprint"], accesses).tolist()
            for __ in range(params["warps"])
        ]
        for __ in range(ctas)
    ]

    def build(cta_id):
        return [
            ([params["compute"]] * accesses, pregen[cta_id][w], params["tail"], 0.0)
            for w in range(params["warps"])
        ]

    threads = params["warps"] * 32
    return WorkloadTrace(
        "prop", [hand_kernel("k", threads, [build(c) for c in range(ctas)])]
    )


class TestSimulatorInvariants:
    @settings(max_examples=40, deadline=None)
    @given(params=workload_strategy)
    def test_accounting_invariants(self, params):
        workload = build_workload(params)
        result = simulate(tiny_config(), workload)

        n_warps = params["num_ctas"] * params["warps"]
        expected_warp_insns = n_warps * (
            params["accesses"] * (params["compute"] + 1) + params["tail"]
        )
        assert result.warp_instructions == expected_warp_insns
        assert result.thread_instructions == expected_warp_insns * 32
        assert result.memory_accesses == n_warps * params["accesses"]

        # Cache accounting: LLC traffic is primary L1 misses only.
        assert result.l1_hits + result.l1_misses == result.memory_accesses
        llc_traffic = result.llc_hits + result.llc_misses
        assert llc_traffic <= result.l1_misses

        assert result.cycles > 0
        assert 0.0 <= result.memory_stall_fraction <= 1.0

    @settings(max_examples=15, deadline=None)
    @given(params=workload_strategy)
    def test_deterministic_with_jitter(self, params):
        workload_a = build_workload(params)
        workload_b = build_workload(params)
        a = simulate(tiny_config(seed_free=False), workload_a)
        b = simulate(tiny_config(seed_free=False), workload_b)
        assert a.cycles == b.cycles
        assert a.llc_misses == b.llc_misses

    @settings(max_examples=15, deadline=None)
    @given(
        params=workload_strategy.filter(lambda p: p["accesses"] > 0),
        extra_compute=st.integers(min_value=1, max_value=30),
    )
    def test_more_work_monotone_for_single_warp(self, params, extra_compute):
        """Strict monotonicity only holds without contention: in a
        contended machine, adding compute can *improve* cache interleaving
        (a genuine timing anomaly hypothesis found for us)."""
        solo = dict(params)
        solo["num_ctas"] = 1
        solo["warps"] = 1
        base = simulate(tiny_config(), build_workload(solo))
        heavier = dict(solo)
        heavier["compute"] = solo["compute"] + extra_compute
        more = simulate(tiny_config(), build_workload(heavier))
        assert more.cycles > base.cycles

    @settings(max_examples=15, deadline=None)
    @given(
        params=workload_strategy,
        extra_compute=st.integers(min_value=1, max_value=30),
    )
    def test_more_work_never_much_faster(self, params, extra_compute):
        """Contended case: interleaving shifts bound the anomaly, they do
        not let extra work cut runtime in half."""
        base = simulate(tiny_config(), build_workload(params))
        heavier = dict(params)
        heavier["compute"] = params["compute"] + extra_compute
        more = simulate(tiny_config(), build_workload(heavier))
        assert more.cycles >= 0.5 * base.cycles
