"""Sample recording and the stall-proof estimators every metric uses.

A workload is a fixed list of op *kinds* run round-robin.  Each kind
keeps its own list of wall-time samples and is summarized by its lower
quartile ``q_k``; every reported host-time number is built from those,
never from one total wall time over the run.

Why the lower quartile and not the median: on a shared 2-core sandbox
the noise is one-sided — a neighbour only ever slows an op down, in
phases that last seconds — so the fast side of a kind's distribution is
the code and the slow side is the host.  Measured over 40 runs of
unchanged code (NOISE.md), the lower quartile's run-to-run spread is
about half the median's, while a real regression moves both alike.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from spans import SpanRecorder


class Recorder:
    """Times ops, keeps per-kind samples, counts attempts and failures."""

    def __init__(self, spans: SpanRecorder) -> None:
        self.spans = spans
        #: kind -> seconds per op, from rounds run with spans off.
        self.samples: Dict[str, List[float]] = {}
        #: the same, from rounds run with spans on.
        self.traced_samples: Dict[str, List[float]] = {}
        self.attempted = 0
        #: Seconds the op timed last took.
        self.last_s = 0.0
        self.failures: List[str] = []
        self._failed_ops: set = set()

    @contextmanager
    def op(self, kind: str, layer: str, collect: bool = True) -> Iterator[None]:
        """Time one op of ``kind``; its root span carries ``layer``.

        ``gc.collect()`` runs first, outside the timed window, so a
        collection triggered by an earlier op's garbage is not billed to
        this one.  Batches of sub-10 ms ops pass ``collect=False`` after
        collecting once themselves: a full collection per op would cost
        more than the op.
        """
        if collect:
            gc.collect()
        self.attempted += 1
        into = self.traced_samples if self.spans.enabled else self.samples
        with self.spans.span(kind, layer):
            start = time.perf_counter()
            try:
                yield
            finally:
                self.last_s = time.perf_counter() - start
                into.setdefault(kind, []).append(self.last_s)

    def check(self, ok: bool, message: str) -> None:
        """A wrong output fails the op that was timed last."""
        if not ok:
            self.failures.append(message)
            self._failed_ops.add(self.attempted)

    @property
    def failed(self) -> int:
        return len(self._failed_ops)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def kind_quartiles(
    samples: Mapping[str, Sequence[float]], kinds: Sequence[str]
) -> Dict[str, float]:
    """Kind -> lower quartile of its samples (up to 4 samples: the least)."""
    return {kind: percentile(samples[kind], 25) for kind in kinds}


def op_p25(samples: Mapping[str, Sequence[float]], kinds: Sequence[str]) -> float:
    """Mean over ``kinds`` of each kind's lower quartile."""
    return statistics.fmean(kind_quartiles(samples, kinds).values())


def work_rate(
    samples: Mapping[str, Sequence[float]], work: Mapping[str, float]
) -> float:
    """Σ work_k / Σ q_k: deterministic work per host second."""
    quartiles = kind_quartiles(samples, list(work))
    return sum(work.values()) / sum(quartiles.values())


def tail(values: Sequence[float]) -> Tuple[str, float]:
    """The highest of p90/p95/p99 with at least ten samples beyond it."""
    best = ("p50", statistics.median(values))
    for q in (90, 95, 99):
        if len(values) * (100 - q) / 100 >= 10:
            best = (f"p{q}", percentile(values, q))
    return best


def spreads(values: Sequence[float]) -> Tuple[float, float, float]:
    """(median, IQR ÷ median, (max − min) ÷ median) of repeated runs."""
    mid = statistics.median(values)
    if len(values) < 2 or mid == 0:
        return mid, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return mid, (q3 - q1) / abs(mid), (max(values) - min(values)) / abs(mid)
