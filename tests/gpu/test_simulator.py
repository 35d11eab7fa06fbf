"""GPU simulator integration tests on small hand-built workloads."""

import pytest

from repro.exceptions import SimulationError
from repro.gpu import GPUConfig, GPUSimulator, simulate
from repro.trace.kernel import WorkloadTrace
from tests.hand_traces import hand_kernel


def tiny_config(**overrides) -> GPUConfig:
    defaults = dict(
        num_sms=2,
        llc_slices=2,
        num_mcs=1,
        capacity_scale=1.0,
        latency_jitter=0.0,
        name="tiny",
    )
    defaults.update(overrides)
    return GPUConfig(**defaults)


def uniform_workload(
    num_ctas=4,
    warps_per_cta=2,
    accesses=5,
    compute=8,
    threads_per_cta=64,
    line_stride=1,
    name="wl",
) -> WorkloadTrace:
    def build(cta_id):
        warps = []
        for w in range(warps_per_cta):
            base = (cta_id * warps_per_cta + w) * accesses * line_stride
            lines = [base + i * line_stride for i in range(accesses)]
            warps.append(([compute] * accesses, lines, 0, 0.0))
        return warps

    kernel = hand_kernel(
        name + "-k0", threads_per_cta, [build(c) for c in range(num_ctas)]
    )
    return WorkloadTrace(name, [kernel])


class TestBasicExecution:
    def test_completes_and_counts_instructions(self):
        wl = uniform_workload(num_ctas=4, warps_per_cta=2, accesses=5, compute=8)
        result = simulate(tiny_config(), wl)
        warp_instructions = 4 * 2 * 5 * (8 + 1)
        assert result.warp_instructions == warp_instructions
        assert result.thread_instructions == warp_instructions * 32
        assert result.memory_accesses == 4 * 2 * 5
        assert result.cycles > 0
        assert result.ipc > 0

    def test_single_use(self):
        sim = GPUSimulator(tiny_config())
        sim.run(uniform_workload())
        with pytest.raises(SimulationError):
            sim.run(uniform_workload())

    def test_deterministic(self):
        r1 = simulate(tiny_config(), uniform_workload())
        r2 = simulate(tiny_config(), uniform_workload())
        assert r1.cycles == r2.cycles
        assert r1.thread_instructions == r2.thread_instructions

    def test_multi_kernel_sequential(self):
        ctas = [[([1], [cta_id], 0, 0.0)] for cta_id in range(2)]
        k1 = hand_kernel("k1", 32, ctas)
        k2 = hand_kernel("k2", 32, ctas)
        result = simulate(tiny_config(), WorkloadTrace("two", [k1, k2]))
        assert result.warp_instructions == 4 * 2

    def test_tail_compute_counted(self):
        kernel = hand_kernel("k", 32, [[([2], [0], 10, 0.0)]])
        result = simulate(tiny_config(), WorkloadTrace("tail", [kernel]))
        assert result.warp_instructions == 13

    def test_start_offset_delays_completion(self):
        def build_with(offset):
            kernel = hand_kernel("k", 32, [[([1], [0], 0, offset)]])
            return WorkloadTrace("o", [kernel])

        base = simulate(tiny_config(), build_with(0.0)).cycles
        delayed = simulate(tiny_config(), build_with(500.0)).cycles
        assert delayed == pytest.approx(base + 500.0)


class TestScalingSanity:
    def test_more_sms_never_slower_on_parallel_work(self):
        wl_small = uniform_workload(num_ctas=32, accesses=4)
        r2 = simulate(tiny_config(num_sms=2), wl_small)
        wl_small = uniform_workload(num_ctas=32, accesses=4)
        r4 = simulate(tiny_config(num_sms=4, llc_slices=4, num_mcs=2), wl_small)
        assert r4.cycles < r2.cycles

    def test_compute_bound_ipc_near_peak(self):
        # One CTA of 2 warps with huge compute bursts: IPC per SM should
        # approach issue_width * threads_per_warp on the active SM.
        kernel = hand_kernel("k", 64, [[([5000], [w], 0, 0.0) for w in range(2)]])
        cfg = tiny_config(num_sms=1)
        result = simulate(cfg, WorkloadTrace("c", [kernel]))
        peak = cfg.issue_width * cfg.threads_per_warp
        assert result.ipc > 0.8 * peak

    def test_memory_stall_fraction_bounds(self):
        result = simulate(tiny_config(), uniform_workload(compute=0, accesses=20))
        assert 0.0 <= result.memory_stall_fraction <= 1.0
        # Zero-compute workload on two warps is heavily memory stalled.
        assert result.memory_stall_fraction > 0.5


class TestResultDerived:
    def test_mpki_consistent_with_counts(self):
        wl = uniform_workload(num_ctas=8, accesses=10)
        result = simulate(tiny_config(), wl)
        expected = 1000.0 * result.llc_misses / result.thread_instructions
        assert result.mpki == pytest.approx(expected)

    def test_summary_string(self):
        result = simulate(tiny_config(), uniform_workload())
        text = result.summary()
        assert "wl" in text and "IPC" in text

    def test_events_counted(self):
        result = simulate(tiny_config(), uniform_workload())
        assert result.events >= result.memory_accesses


class TestNoReferenceCycle:
    """A finished simulator is freed by reference counting alone.

    Storing a bound method of the simulator on itself (or a generator
    that holds its subsystem) makes a cycle that keeps the whole model —
    caches included — alive until the next collection, which shows up as
    peak RSS.
    """

    @staticmethod
    def _dies_without_the_collector(factory, trace) -> bool:
        import gc
        import weakref

        gc.disable()
        try:
            sim = factory()
            sim.run(trace)
            refs = [weakref.ref(sim), weakref.ref(sim.memory)]
            del sim
            return all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_gpu_simulator(self):
        from repro.workloads import STRONG_SCALING, build_trace

        config = GPUConfig.paper_baseline().scaled(4)
        trace = build_trace(STRONG_SCALING["btree"], work_scale=0.05,
                            capacity_scale=config.capacity_scale)
        assert self._dies_without_the_collector(
            lambda: GPUSimulator(config), trace
        )

    def test_mcm_simulator(self):
        from repro.gpu.chiplet import McmSimulator
        from repro.gpu.config import McmConfig
        from repro.workloads import STRONG_SCALING, build_trace

        config = McmConfig.paper_target().scaled(2)
        trace = build_trace(STRONG_SCALING["btree"], work_scale=0.05,
                            capacity_scale=config.chiplet.capacity_scale)
        assert self._dies_without_the_collector(
            lambda: McmSimulator(config), trace
        )
