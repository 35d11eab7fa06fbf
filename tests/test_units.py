"""Unit-helper tests."""

import pytest

from repro.units import (
    GB,
    GBPS,
    GHZ,
    KB,
    MB,
    TBPS,
    bytes_per_cycle,
    format_bandwidth,
    format_bytes,
)


class TestConstants:
    def test_capacity_ladder(self):
        assert KB == 1024
        assert MB == 1024 * KB
        assert GB == 1024 * MB

    def test_bandwidth_constants_decimal(self):
        assert GBPS == 1e9
        assert TBPS == 1e12


class TestBytesPerCycle:
    def test_paper_noc(self):
        # 2606 GB/s at 1 GHz is 2606 bytes per cycle.
        assert bytes_per_cycle(2606 * GBPS, 1 * GHZ) == pytest.approx(2606.0)

    def test_higher_clock_fewer_bytes(self):
        assert bytes_per_cycle(1700 * GBPS, 1.7 * GHZ) == pytest.approx(1000.0)

    def test_zero_clock_rejected(self):
        with pytest.raises(ValueError):
            bytes_per_cycle(1.0, 0.0)


class TestFormatting:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (34 * MB, "34 MB"),
            (512 * KB, "512 KB"),
            (2 * GB, "2 GB"),
            (100, "100 B"),
            (int(2.125 * MB), "2.125 MB"),
        ],
    )
    def test_format_bytes(self, value, expected):
        assert format_bytes(value) == expected

    @pytest.mark.parametrize(
        "value,expected",
        [
            (2.7 * TBPS, "2.7 TB/s"),
            (145 * GBPS, "145 GB/s"),
            (168.5 * GBPS, "168.5 GB/s"),
        ],
    )
    def test_format_bandwidth(self, value, expected):
        assert format_bandwidth(value) == expected
