"""SimulationResult record tests."""

import pytest

from repro.exceptions import SimulationError
from repro.gpu.results import SimulationResult


def result(**overrides):
    defaults = dict(
        workload="w", system="s-16sm", num_sms=16,
        cycles=1000.0, thread_instructions=64000, warp_instructions=2000,
        memory_accesses=500, memory_stall_fraction=0.4,
        l1_hits=300, l1_misses=200, llc_hits=120, llc_misses=80,
    )
    defaults.update(overrides)
    return SimulationResult(**defaults)


class TestDerivedMetrics:
    def test_ipc(self):
        r = result()
        assert r.ipc == pytest.approx(64.0)

    def test_mpki(self):
        r = result()
        assert r.mpki == pytest.approx(1000.0 * 80 / 64000)

    def test_mpki_no_instructions(self):
        assert result(thread_instructions=0).mpki == 0.0

    def test_miss_rates(self):
        r = result()
        assert r.l1_miss_rate == pytest.approx(0.4)
        assert r.llc_miss_rate == pytest.approx(0.4)

    def test_miss_rates_empty(self):
        r = result(l1_hits=0, l1_misses=0, llc_hits=0, llc_misses=0)
        assert r.l1_miss_rate == 0.0
        assert r.llc_miss_rate == 0.0

    def test_summary_mentions_key_numbers(self):
        text = result().summary()
        assert "w" in text and "IPC=64.0" in text and "f_mem=0.400" in text

    def test_non_positive_cycles_rejected(self):
        with pytest.raises(SimulationError):
            result(cycles=0.0)

    def test_frozen(self):
        with pytest.raises(Exception):
            result().cycles = 5.0
