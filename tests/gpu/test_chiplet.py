"""Multi-chiplet (MCM) GPU model tests."""

import pytest

from dataclasses import replace

from repro.exceptions import ConfigurationError
from repro.gpu.chiplet import McmMemory, McmSimulator, simulate_mcm
from repro.gpu.config import GPUConfig, McmConfig
from repro.trace.kernel import WorkloadTrace
from repro.units import GHZ, MB

from tests.gpu.test_memory import access
from tests.hand_traces import hand_kernel


def tiny_mcm(num_chiplets=2) -> McmConfig:
    chiplet = GPUConfig(
        num_sms=2,
        sm_clock_hz=1.0 * GHZ,
        llc_size=1 * MB,
        llc_slices=2,
        num_mcs=1,
        capacity_scale=1.0,
        latency_jitter=0.0,
        name="tiny-chiplet",
    )
    return McmConfig(
        num_chiplets=num_chiplets,
        chiplet=chiplet,
        page_size=4096,
        name="tiny-mcm",
    )


def workload(num_ctas=8, accesses=6, stride=1, compute=4):
    def build(cta_id):
        warps = []
        for w in range(2):
            base = (cta_id * 2 + w) * accesses * stride
            lines = [base + i * stride for i in range(accesses)]
            warps.append(([compute] * accesses, lines, 0, 0.0))
        return warps

    ctas = [build(c) for c in range(num_ctas)]
    return WorkloadTrace("mcm-wl", [hand_kernel("k", 64, ctas)])


class TestFirstTouchPlacement:
    def test_first_toucher_becomes_home(self):
        mem = McmMemory(tiny_mcm())
        access(mem, 0, 100, 0.0)  # SM 0 -> chiplet 0
        assert mem.page_home[100 // 32] == 0
        access(mem, 2, 5000, 0.0)  # SM 2 -> chiplet 1
        assert mem.page_home[5000 // 32] == 1

    def test_remote_access_counted_and_slower(self):
        mem = McmMemory(tiny_mcm())
        t_local, __ = access(mem, 0, 100, 0.0)
        # Same page from chiplet 1, long after the line left the L1s:
        t_remote, __ = access(mem, 2, 101, 50000.0)
        assert mem.remote_accesses == 1
        assert mem.local_accesses == 1
        # Remote crosses two inter-chiplet links and three NoCs.
        assert (t_remote - 50000.0) > (t_local - 0.0)

    def test_home_is_sticky(self):
        mem = McmMemory(tiny_mcm())
        access(mem, 0, 100, 0.0)
        access(mem, 2, 100, 10.0)
        assert mem.home_of(100, toucher=1) == 0


class TestMcmSimulator:
    def test_runs_and_reports_chiplets(self):
        result = simulate_mcm(tiny_mcm(), workload())
        assert result.num_sms == 4  # 2 chiplets x 2 SMs
        assert result.extra["num_chiplets"] == 2.0
        assert 0.0 <= result.extra["remote_fraction"] <= 1.0
        assert result.ipc > 0

    def test_deterministic(self):
        a = simulate_mcm(tiny_mcm(), workload())
        b = simulate_mcm(tiny_mcm(), workload())
        assert a.cycles == b.cycles

    def test_private_data_stays_local(self):
        """CTA-private streams are first-touched by their own chiplet, so
        with page-aligned strides remote traffic stays low."""
        wl = workload(num_ctas=8, accesses=32, stride=32)  # page-strided
        result = simulate_mcm(tiny_mcm(), wl)
        assert result.extra["remote_fraction"] < 0.2

    def test_shared_data_goes_remote(self):
        lines = list(range(64))  # everyone reads the same pages
        ctas = [[([2] * 64, lines, 0, 0.0)]] * 8
        wl = WorkloadTrace("shared", [hand_kernel("k", 32, ctas)])
        result = simulate_mcm(tiny_mcm(), wl)
        assert result.extra["remote_fraction"] > 0.2

    def test_warm_lines_respects_first_touch(self):
        mem = McmMemory(tiny_mcm())
        mem.warm_lines(0, 64)  # nothing placed yet: no-op
        assert mem.page_home == {}
        access(mem, 0, 0, 0.0)
        mem.warm_lines(0, 32)
        sub = mem.subsystems[0]
        assert any(s.resident_lines() for s in sub.llc_slices)

    def test_aggregate_stats_sum_chiplets(self):
        sim = McmSimulator(tiny_mcm())
        result = sim.run(workload())
        mem = sim.memory
        assert result.l1_misses == mem.l1_misses
        assert mem.llc_hits == sum(s.llc_hits for s in mem.subsystems)


class TestMcmValidation:
    """``simulate_mcm`` validates the package before building its memory:
    a nonsense interconnect must not produce a cycle count."""

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"inter_chiplet_latency": -500.0}, "inter_chiplet_latency"),
            ({"inter_chiplet_latency": float("nan")}, "inter_chiplet_latency"),
            ({"inter_chiplet_bw_per_chiplet_bps": 0.0}, "inter-chiplet bandwidth"),
        ],
        ids=["negative-latency", "nan-latency", "zero-bandwidth"],
    )
    def test_invalid_interconnect_rejected(self, overrides, match):
        lines = list(range(64))  # shared pages: half the accesses remote
        ctas = [[([2] * 64, lines, 0, 0.0)]] * 8
        wl = WorkloadTrace("shared", [hand_kernel("k", 32, ctas)])
        with pytest.raises(ConfigurationError, match=match):
            simulate_mcm(replace(tiny_mcm(), **overrides), wl)


class TestMcmScaling:
    def test_more_chiplets_faster_on_big_parallel_work(self):
        wl2 = workload(num_ctas=64, accesses=8, stride=32)
        r2 = simulate_mcm(tiny_mcm(2), wl2)
        wl4 = workload(num_ctas=64, accesses=8, stride=32)
        r4 = simulate_mcm(tiny_mcm(4), wl4)
        assert r4.cycles < r2.cycles


class TestRemoteSharesTheLocalPath:
    """The remote path runs the chiplet's own ``MemorySubsystem.access``
    around a home-chiplet detour; two things a hand-copied L1 front half
    used to get wrong."""

    def remote_setup(self):
        mem = McmMemory(tiny_mcm())
        # Chiplet 0 first-touches the pages; SM 2 (chiplet 1) is remote.
        for line in range(0, 8192, 32):
            mem.home_of(line, toucher=0)
        return mem

    def test_remote_misses_prune_the_merge_table(self):
        mem = self.remote_setup()
        l1 = mem.subsystems[1].l1s[0]
        now = 0.0
        for line in range(8192):  # far more misses than the merge table keeps
            done, __ = access(mem, 2, line, now)
            now = done + 1.0  # every fill has landed before the next miss
        assert mem.remote_accesses == 8192
        # Unpruned, the table would hold every line ever missed.
        assert len(l1.in_flight) <= 2 * l1.mshr_capacity

    def test_drop_miss_budget_applies_to_remote_accesses(self):
        mem = self.remote_setup()
        local = mem.subsystems[1]
        local._drop_miss_budget = 3
        for line in range(5):
            access(mem, 2, line, 0.0)
        assert mem.remote_accesses == 5
        assert local._drop_miss_budget == 0
        assert local.l1_misses == 2  # three increments swallowed
