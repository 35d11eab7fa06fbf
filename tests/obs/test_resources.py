"""Peak-RSS gauge tests."""

from repro.obs import PEAK_RSS_GAUGE, peak_rss_bytes, sample_peak_rss
from repro.obs.metrics import MetricsRegistry


class TestPeakRss:
    def test_reports_positive_bytes(self):
        # A live Python process holds tens of MiB at minimum.
        assert peak_rss_bytes() > 10 * 2**20

    def test_monotonic_high_water_mark(self):
        before = peak_rss_bytes()
        ballast = bytearray(8 * 2**20)
        after = peak_rss_bytes()
        del ballast
        assert after >= before

    def test_sample_lands_in_registry_gauge(self):
        registry = MetricsRegistry()
        value = sample_peak_rss(registry)
        assert registry.gauge(PEAK_RSS_GAUGE).value == value
        assert value == peak_rss_bytes()
