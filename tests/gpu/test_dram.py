"""Banked DRAM model tests."""

import pytest

from repro.exceptions import ConfigurationError
from repro.gpu.dram import BankedDram, DramBank


class TestDramBank:
    def test_row_hit_is_cheap(self):
        bank = DramBank(t_cas=20, t_ras=30, t_rp=30)
        first = bank.access(0.0, row=5)
        assert first == pytest.approx(80.0)  # precharge+activate+cas
        second = bank.access(first, row=5)
        assert second - first == pytest.approx(20.0)  # cas only
        assert bank.row_hits == 1 and bank.row_misses == 1
        assert bank.state_dict()["server"] == {
            "next_free": second, "busy_time": 100.0, "requests": 2,
        }

    def test_row_switch_pays_full_cost(self):
        bank = DramBank(20, 30, 30)
        t1 = bank.access(0.0, row=1)
        t2 = bank.access(t1, row=2)
        assert t2 - t1 == pytest.approx(80.0)

    def test_bank_serializes(self):
        bank = DramBank(20, 30, 30)
        bank.access(0.0, row=1)
        done = bank.access(0.0, row=1)  # queued behind the first
        assert done == pytest.approx(100.0)


class TestBankedDram:
    def make(self, **kw):
        defaults = dict(bytes_per_cycle=64.0, num_banks=4, row_bytes=512,
                        line_size=128)
        defaults.update(kw)
        return BankedDram(**defaults)

    def test_sequential_lines_hit_open_row(self):
        dram = self.make()
        t = 0.0
        for line in range(4):  # 4 lines per 512-byte row
            t = dram.access(t, line)
        assert dram.row_hit_rate == pytest.approx(3 / 4)

    def test_rows_interleave_across_banks(self):
        dram = self.make()
        # lines_per_row = 4; rows 0..3 land on banks 0..3.
        assert dram.bank_of(0) == 0
        assert dram.bank_of(4) == 1
        assert dram.bank_of(12) == 3
        assert dram.bank_of(16) == 0
        assert dram.row_of(16) == 1

    def test_bank_parallelism_beats_single_bank(self):
        many = self.make(num_banks=4)
        one = self.make(num_banks=1)
        lines = [i * 4 for i in range(8)]  # all row misses
        t_many = max(many.access(0.0, line) for line in lines)
        t_one = max(one.access(0.0, line) for line in lines)
        assert t_many < t_one

    def test_bus_is_shared_bottleneck(self):
        dram = self.make(bytes_per_cycle=1.0)  # 128 cycles per line on bus
        done = [dram.access(0.0, i * 4) for i in range(4)]
        # Bus serializes at 128 cycles per transfer regardless of banks.
        assert max(done) >= 4 * 128

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self.make(num_banks=0)
        with pytest.raises(ConfigurationError):
            self.make(row_bytes=64)

    def test_utilization(self):
        """One line read holds the bus for one line's transfer time."""
        dram = self.make()
        done = dram.access(0.0, 0)
        bus = dram.state_dict()["bus"]
        assert bus == {"next_free": done, "busy_time": 2.0, "requests": 1}
        assert 0.0 < bus["busy_time"] / 1000.0 <= 1.0
