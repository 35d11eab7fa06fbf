"""NoC topology model tests."""

import pytest

from repro.exceptions import ConfigurationError
from repro.gpu import GPUConfig, simulate
from repro.gpu.noc import build_noc_model
from repro.trace.kernel import WorkloadTrace
from tests.hand_traces import hand_kernel


class TestNocModel:
    def test_crossbar_is_identity(self):
        model = build_noc_model("crossbar", 160)
        assert model.bisection_derate == 1.0
        assert model.latency_factor == 1.0
        assert model.effective_bandwidth(1000.0) == 1000.0

    def test_mesh_derates_with_size(self):
        small = build_noc_model("mesh", 16)
        big = build_noc_model("mesh", 256)
        assert big.bisection_derate < small.bisection_derate
        assert big.latency_factor > small.latency_factor

    def test_ring_worse_than_mesh_at_scale(self):
        mesh = build_noc_model("mesh", 256)
        ring = build_noc_model("ring", 256)
        assert ring.bisection_derate < mesh.bisection_derate
        assert ring.latency_factor > mesh.latency_factor

    def test_tiny_networks_not_penalized(self):
        for topology in ("mesh", "ring"):
            model = build_noc_model(topology, 2)
            assert model.bisection_derate == 1.0
            assert model.latency_factor >= 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            build_noc_model("torus", 16)
        with pytest.raises(ConfigurationError):
            build_noc_model("mesh", 0)


class TestTopologyInConfig:
    def test_default_is_crossbar(self):
        assert GPUConfig.paper_baseline().noc_topology == "crossbar"

    def test_invalid_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            GPUConfig(noc_topology="hypercube")

    def test_mesh_reduces_effective_bandwidth(self):
        xbar = GPUConfig(num_sms=64, llc_slices=16, num_mcs=8, name="x")
        mesh = GPUConfig(num_sms=64, llc_slices=16, num_mcs=8, name="m",
                         noc_topology="mesh")
        assert mesh.noc_bytes_per_cycle < xbar.noc_bytes_per_cycle
        assert mesh.effective_noc_latency > xbar.effective_noc_latency

    def test_mesh_simulation_slower_on_noc_bound_workload(self):
        def workload():
            def build(cta_id):
                lines = [cta_id * 64 + i for i in range(32)]
                return [([1] * 32, lines, 0, 0.0)]
            ctas = [build(c) for c in range(16)]
            return WorkloadTrace("w", [hand_kernel("k", 32, ctas)])

        base = dict(num_sms=4, llc_slices=2, num_mcs=2, capacity_scale=1.0,
                    latency_jitter=0.0, name="t")
        xbar = simulate(GPUConfig(**base), workload())
        mesh = simulate(GPUConfig(noc_topology="mesh", **base), workload())
        assert mesh.cycles > xbar.cycles
