"""Process-wide metrics: counters, gauges and streaming histograms.

The registry is the single substrate for every stat bag in the
repository: the result store's telemetry dict and the per-run execution
counters are both thin views over the primitives here (see the "Observability" section of
``docs/ARCHITECTURE.md``).

Design constraints, in order:

* **Hot-path cheap.**  Incrementing a counter is one dict-free attribute
  add; recording a histogram sample is one ``log`` call and a dict
  increment.  Nothing allocates per observation.
* **No sample storage.**  Histograms are streaming: samples land in
  geometrically spaced buckets, so p50/p95/p99 come from bucket
  interpolation with a bounded relative error (one half bucket width,
  ~4.5% with the default resolution) regardless of how many samples were
  recorded.
* **Snapshot-able.**  :meth:`MetricsRegistry.snapshot` returns a plain
  JSON-serializable dict (counters, gauges, histogram quantiles) that
  ``--metrics-out`` writes verbatim.

Registries are plain objects: the process-wide default from
:func:`get_registry` backs the global observability surface, while
components that need isolated counts (e.g. one
:class:`repro.analysis.runner.CachedRunner` per test) instantiate their
own.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterator, Optional, Tuple

__all__ = [
    "CounterBag",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
]


class CounterBag:
    """A named bag of numeric counters with dict-like access.

    The shared stat-bag primitive: ``add`` accumulates, item assignment
    overwrites (for gauge-ish members such as ``entries``), and
    :meth:`as_dict` snapshots.  Values are ints until a float is added,
    mirroring how the pre-existing ad-hoc dicts behaved.
    """

    __slots__ = ("_counts",)

    def __init__(self, initial: Optional[Dict[str, float]] = None) -> None:
        self._counts: Dict[str, float] = dict(initial) if initial else {}

    def add(self, key: str, amount: float = 1) -> None:
        self._counts[key] = self._counts.get(key, 0) + amount

    def get(self, key: str, default: float = 0) -> float:
        return self._counts.get(key, default)

    def as_dict(self) -> Dict[str, float]:
        return dict(self._counts)

    def reset(self) -> None:
        self._counts.clear()

    def items(self) -> Iterator[Tuple[str, float]]:
        return iter(self._counts.items())

    def __getitem__(self, key: str) -> float:
        return self._counts.get(key, 0)

    def __setitem__(self, key: str, value: float) -> None:
        self._counts[key] = value

    def __contains__(self, key: str) -> bool:
        return key in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._counts.items()))
        return f"{type(self).__name__}({inner})"


class Counter:
    """A single monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A single point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A streaming histogram with geometrically spaced buckets.

    Positive samples land in bucket ``ceil(log(value) / log(growth))``;
    with the default ``growth = 2 ** (1/8)`` adjacent bucket bounds are
    ~9% apart, so any quantile read back from a bucket midpoint is within
    ~4.5% of the exact sample quantile.  Zero and negative samples are
    counted in a dedicated underflow bucket (durations and sizes, the
    intended inputs, are non-negative).  Memory is O(occupied buckets),
    never O(samples).
    """

    __slots__ = (
        "name", "count", "total", "min", "max", "_buckets", "_log_growth",
        "_underflow",
    )

    #: Default bucket growth factor: 8 buckets per doubling.
    GROWTH = 2.0 ** 0.125

    def __init__(self, name: str, growth: float = GROWTH) -> None:
        if growth <= 1.0:
            raise ValueError(f"histogram growth must be > 1, got {growth}")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._buckets: Dict[int, int] = {}
        self._log_growth = math.log(growth)
        self._underflow = 0

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self._underflow += 1
            return
        index = math.ceil(math.log(value) / self._log_growth)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (``0 <= q <= 1``) of the samples.

        Nearest-rank: the bucket holding the ``ceil(q * count)``-th
        smallest sample answers, as its geometric midpoint clamped into
        ``[min, max]`` — so the endpoints are exact and interior
        quantiles are within half a bucket width (~4.5% relative with
        the default growth) of the true sample quantile.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        rank = max(0, math.ceil(q * self.count) - 1)
        seen = self._underflow
        if rank < seen:
            return self.min
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if rank < seen:
                # Geometric midpoint of (growth**(i-1), growth**i].
                mid = math.exp((index - 0.5) * self._log_growth)
                return min(max(mid, self.min), self.max)
        return self.max

    def summary(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count})"


class MetricsRegistry:
    """Named counters, gauges and histograms with a JSON snapshot.

    Metric handles are create-on-first-use and stable, so hot paths can
    hold the handle (``c = registry.counter("x")`` once, ``c.inc()``
    per event) and pay no lookup.  Operations are single bytecode-level
    mutations, safe under the GIL for the process-internal use here.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # --- handles -----------------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name)
        return metric

    # --- one-shot conveniences ---------------------------------------------
    def inc(self, name: str, amount: float = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).record(value)

    # --- snapshots ---------------------------------------------------------
    def counters_dict(self) -> Dict[str, float]:
        return {name: c.value for name, c in self._counters.items()}

    def snapshot(self) -> dict:
        """JSON-able view of every metric (see ``--metrics-out``)."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].summary()
                for name in sorted(self._histograms)
            },
        }

    def merge_snapshot(self, other: "MetricsRegistry", prefix: str) -> None:
        """Copy ``other``'s current values in under ``prefix``.

        Used at export time to fold per-component registries (e.g. a
        runner's isolated execution counters) into the process-wide
        snapshot without sharing mutable state.
        """
        for name, counter in other._counters.items():
            self.counter(f"{prefix}{name}").value = counter.value
        for name, gauge in other._gauges.items():
            self.gauge(f"{prefix}{name}").value = gauge.value
        for name, histogram in other._histograms.items():
            self._histograms[f"{prefix}{name}"] = histogram

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY
