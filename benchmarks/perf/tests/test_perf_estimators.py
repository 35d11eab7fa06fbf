import statistics

import pytest

from measure import Recorder, kind_quartiles, op_p25, percentile, spreads, tail, work_rate
from spans import SpanRecorder

#: Five rounds, one 10x descheduling stall per kind.
SAMPLES = {
    "a": [1.0, 1.0, 10.0, 1.0, 1.0],
    "b": [2.0, 20.0, 2.0, 2.0, 2.0],
}


def test_one_stall_per_kind_moves_nothing():
    assert kind_quartiles(SAMPLES, ["a", "b"]) == {"a": 1.0, "b": 2.0}
    assert op_p25(SAMPLES, ["a", "b"]) == 1.5
    assert op_p25(SAMPLES, ["a"]) == 1.0
    assert work_rate(SAMPLES, {"a": 30.0, "b": 60.0}) == 30.0
    # What the stall would have done to a total-wall estimator.
    total = sum(map(sum, SAMPLES.values()))
    assert 90.0 / (total / 5) < 0.5 * 30.0


def test_a_slow_phase_over_half_the_samples_moves_nothing():
    # Four of eight samples 40 % slow: the median moves, the quartile not.
    samples = {"a": [1.0, 1.4, 1.0, 1.4, 1.4, 1.0, 1.4, 1.0]}
    assert statistics.median(samples["a"]) == pytest.approx(1.2)
    assert op_p25(samples, ["a"]) == 1.0


def test_lower_quartile_of_up_to_four_samples_is_the_least():
    assert kind_quartiles({"a": [3.0, 2.0, 4.0]}, ["a"]) == {"a": 2.0}
    assert kind_quartiles({"a": [3.0, 2.0, 4.0, 5.0]}, ["a"]) == {"a": 2.0}
    assert kind_quartiles({"a": [3.0, 2.0, 4.0, 5.0, 6.0]}, ["a"]) == {"a": 3.0}


def test_work_rate_uses_only_the_kinds_it_is_given_work_for():
    assert work_rate(SAMPLES, {"a": 7.0}) == 7.0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([5.0], 99) == 5.0


@pytest.mark.parametrize(
    "n, label", [(50, "p50"), (100, "p90"), (200, "p95"), (6000, "p99")]
)
def test_tail_needs_ten_samples_beyond_it(n, label):
    assert tail([float(i) for i in range(n)])[0] == label


def test_spreads_match_the_drivers_definition():
    values = [10.0, 10.2, 9.9, 10.1, 10.0, 10.4, 9.8, 10.0, 10.1, 9.9]
    mid, iqr, full = spreads(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert mid == statistics.median(values)
    assert iqr == pytest.approx((q3 - q1) / mid)
    assert full == pytest.approx(0.6 / mid)
    assert spreads([3.0]) == (3.0, 0.0, 0.0)


def test_recorder_counts_each_failed_op_once():
    rec = Recorder(SpanRecorder())
    with rec.op("x", "layer"):
        pass
    rec.check(False, "first")
    rec.check(False, "second")
    with rec.op("x", "layer"):
        pass
    rec.check(True, "fine")
    assert (rec.attempted, rec.failed) == (2, 1)
    assert rec.failures == ["first", "second"]
    assert len(rec.samples["x"]) == 2


def test_traced_rounds_keep_their_samples_apart():
    rec = Recorder(SpanRecorder())
    with rec.op("x", "layer"):
        pass
    rec.spans.enabled = True
    with rec.op("x", "layer", collect=False):
        pass
    assert len(rec.samples["x"]) == 1
    assert len(rec.traced_samples["x"]) == 1
    assert [s.name for s in rec.spans.roots()] == ["x"]
