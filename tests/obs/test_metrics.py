"""Metrics primitives: counter bags, streaming histogram accuracy,
registry snapshots and cross-registry merges."""

import math
import random

import pytest

from repro.obs.metrics import (
    CounterBag,
    Histogram,
    MetricsRegistry,
    get_registry,
)


class TestCounterBag:
    def test_add_get_and_item_access(self):
        bag = CounterBag()
        bag.add("hits")
        bag.add("hits", 2)
        bag["entries"] = 7
        assert bag["hits"] == 3
        assert bag.get("hits") == 3
        assert bag["entries"] == 7
        assert bag.get("absent", 5) == 5
        assert bag["absent"] == 0
        assert "hits" in bag and "absent" not in bag

    def test_initial_dict_is_copied(self):
        seed = {"a": 1}
        bag = CounterBag(seed)
        bag.add("a")
        assert seed["a"] == 1
        assert bag.as_dict() == {"a": 2}

    def test_as_dict_snapshots(self):
        bag = CounterBag({"a": 1})
        snap = bag.as_dict()
        bag.add("a")
        assert snap == {"a": 1}


class TestHistogram:
    def test_empty(self):
        h = Histogram("t")
        assert h.quantile(0.5) == 0.0
        assert h.summary() == {"count": 0}

    def test_single_sample_exact(self):
        h = Histogram("t")
        h.record(42.0)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert h.quantile(q) == pytest.approx(42.0)

    def test_endpoints_exact(self):
        h = Histogram("t")
        for v in (3.0, 8.0, 21.0, 1000.0):
            h.record(v)
        assert h.quantile(0.0) == 3.0
        assert h.quantile(1.0) == 1000.0
        assert h.min == 3.0 and h.max == 1000.0

    def test_two_samples_p95_is_the_larger(self):
        h = Histogram("t")
        h.record(5.0)
        h.record(477.0)
        assert h.quantile(0.95) == pytest.approx(477.0, rel=0.05)
        assert h.quantile(0.5) == pytest.approx(5.0, rel=0.05)

    def test_quantile_accuracy_uniform(self):
        # Streaming quantiles must stay within the documented ~4.5%
        # relative error of the exact sample quantiles.
        rng = random.Random(7)
        samples = [rng.uniform(1.0, 1e6) for _ in range(5000)]
        h = Histogram("t")
        for v in samples:
            h.record(v)
        samples.sort()
        for q in (0.5, 0.9, 0.95, 0.99):
            exact = samples[max(0, math.ceil(q * len(samples)) - 1)]
            assert h.quantile(q) == pytest.approx(exact, rel=0.05)

    def test_quantile_accuracy_lognormal(self):
        rng = random.Random(11)
        samples = [math.exp(rng.gauss(5.0, 2.0)) for _ in range(5000)]
        h = Histogram("t")
        for v in samples:
            h.record(v)
        samples.sort()
        for q in (0.5, 0.95, 0.99):
            exact = samples[max(0, math.ceil(q * len(samples)) - 1)]
            assert h.quantile(q) == pytest.approx(exact, rel=0.05)

    def test_memory_is_bounded_by_buckets_not_samples(self):
        h = Histogram("t")
        for i in range(100_000):
            h.record(1.0 + (i % 100))
        # 1..100 spans under two decades: far fewer buckets than samples.
        assert len(h._buckets) < 100
        assert h.count == 100_000

    def test_underflow_bucket(self):
        h = Histogram("t")
        h.record(0.0)
        h.record(-3.0)
        h.record(10.0)
        assert h.count == 3
        assert h.quantile(0.0) == -3.0
        assert h.quantile(1.0) == 10.0

    def test_mean_and_summary(self):
        h = Histogram("t")
        for v in (1.0, 2.0, 3.0):
            h.record(v)
        s = h.summary()
        assert s["count"] == 3
        assert s["mean"] == pytest.approx(2.0)
        assert s["sum"] == pytest.approx(6.0)
        assert set(s) == {"count", "sum", "min", "max", "mean",
                          "p50", "p95", "p99"}

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            Histogram("t", growth=1.0)
        h = Histogram("t")
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestMetricsRegistry:
    def test_handles_are_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.gauge("g") is reg.gauge("g")

    def test_snapshot_shape_and_json(self):
        import json

        reg = MetricsRegistry()
        reg.inc("runs", 3)
        reg.set_gauge("enabled", 1.0)
        reg.observe("lat_us", 120.0)
        snap = json.loads(reg.to_json())
        assert snap["counters"] == {"runs": 3}
        assert snap["gauges"] == {"enabled": 1.0}
        assert snap["histograms"]["lat_us"]["count"] == 1

    def test_merge_snapshot_prefixes(self):
        reg, other = MetricsRegistry(), MetricsRegistry()
        other.inc("hits", 4)
        other.observe("us", 10.0)
        reg.merge_snapshot(other, "runner.")
        snap = reg.snapshot()
        assert snap["counters"] == {"runner.hits": 4}
        assert snap["histograms"]["runner.us"]["count"] == 1

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("x")
        reg.reset()
        assert reg.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_global_registry_is_a_singleton(self):
        assert get_registry() is get_registry()
