"""Integration tests for the banked-DRAM memory backend option."""

import pytest

from repro.exceptions import ConfigurationError
from repro.gpu import GPUConfig, simulate
from repro.gpu.memory import MemorySubsystem
from repro.trace.kernel import WorkloadTrace

from tests.gpu.test_memory import access
from tests.hand_traces import hand_kernel


def config(model="banked", **overrides):
    defaults = dict(
        num_sms=2, llc_slices=2, num_mcs=2, capacity_scale=1.0,
        latency_jitter=0.0, dram_model=model, name="t",
    )
    defaults.update(overrides)
    return GPUConfig(**defaults)


def stream_workload(num_ctas=8, accesses=16):
    def build(cta_id):
        base = cta_id * accesses * 64
        lines = [base + i for i in range(accesses)]  # row-friendly stream
        return [([4] * accesses, lines, 0, 0.0)]

    ctas = [build(c) for c in range(num_ctas)]
    return WorkloadTrace("w", [hand_kernel("k", 32, ctas)])


class TestBankedOption:
    def test_invalid_model_rejected(self):
        with pytest.raises(ConfigurationError):
            config(model="hbm4")

    def test_simple_has_no_banked_mcs(self):
        assert MemorySubsystem(config(model="simple")).banked_mcs == []

    def test_banked_builds_one_per_controller(self):
        mem = MemorySubsystem(config(model="banked", num_mcs=3))
        assert len(mem.banked_mcs) == 3

    def test_banked_simulation_runs_and_differs(self):
        simple = simulate(config(model="simple"), stream_workload())
        banked = simulate(config(model="banked"), stream_workload())
        assert simple.thread_instructions == banked.thread_instructions
        assert simple.cycles != banked.cycles

    def test_banked_row_locality_observed(self):
        cfg = config(model="banked")
        mem = MemorySubsystem(cfg)
        # Sequential lines within one row: mostly row hits.
        for i, line in enumerate(range(16)):
            access(mem, 0, line, float(i * 2000))
        hit_rates = [d.row_hit_rate for d in mem.banked_mcs if d.accesses]
        assert max(hit_rates) > 0.5

    def test_banked_deterministic(self):
        a = simulate(config(model="banked"), stream_workload())
        b = simulate(config(model="banked"), stream_workload())
        assert a.cycles == b.cycles
