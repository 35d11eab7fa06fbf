import pytest

import spans as spans_module
from spans import SpanRecorder


@pytest.fixture
def clock(monkeypatch):
    """perf_counter that returns the scripted instants, in order."""
    ticks = []
    monkeypatch.setattr(spans_module.time, "perf_counter", lambda: ticks.pop(0))
    return ticks


def test_self_time_with_nested_and_sibling_children(clock):
    #        A: 0..10   B: 1..4   C: 5..9   D (in C): 6..8
    clock.extend([0, 1, 4, 5, 6, 8, 9, 10])
    rec = SpanRecorder()
    rec.enabled = True
    with rec.span("A", "harness"):
        with rec.span("B", "engine"):
            pass
        with rec.span("C", "mrc"):
            with rec.span("D", "engine"):
                pass
    by_name = {s.name: s for s in rec.spans}
    self_times = rec.self_times()
    assert {n: self_times[s.id] for n, s in by_name.items()} == {
        "A": 3, "B": 3, "C": 2, "D": 2,
    }
    assert by_name["D"].parent == by_name["C"].id
    assert by_name["B"].parent == by_name["C"].parent == by_name["A"].id
    layers = rec.layer_self_times()[by_name["A"].op]
    assert layers == {"harness": 3, "engine": 5, "mrc": 2}
    assert sum(layers.values()) == by_name["A"].duration


def test_each_root_span_starts_a_new_op(clock):
    clock.extend([0, 1, 2, 3, 4, 5])
    rec = SpanRecorder()
    rec.enabled = True
    with rec.span("first", "harness"):
        with rec.span("child", "engine"):
            pass
    with rec.span("second", "harness"):
        pass
    assert [s.op for s in rec.spans] == [1, 1, 2]
    assert [s.name for s in rec.roots()] == ["first", "second"]
    assert [s.name for s in rec.roots("second")] == ["second"]


def test_disabled_recorder_records_nothing():
    rec = SpanRecorder()
    with rec.span("A", "harness"):
        pass
    assert rec.spans == []
    assert rec.chrome_trace()["traceEvents"] == []


def test_span_closes_when_the_body_raises(clock):
    clock.extend([0, 2])
    rec = SpanRecorder()
    rec.enabled = True
    with pytest.raises(ValueError):
        with rec.span("A", "harness"):
            raise ValueError("boom")
    assert rec.spans[0].duration == 2
    assert rec._stack == []


def test_chrome_trace_has_complete_events(clock, tmp_path):
    clock.extend([10.0, 10.5, 10.75, 11.0])
    rec = SpanRecorder()
    rec.enabled = True
    with rec.span("op", "harness"):
        with rec.span("sim8", "engine"):
            pass
    events = rec.chrome_trace()["traceEvents"]
    assert [(e["name"], e["cat"], e["ph"]) for e in events] == [
        ("op", "harness", "X"), ("sim8", "engine", "X"),
    ]
    assert events[0]["ts"] == 0 and events[0]["dur"] == pytest.approx(1e6)
    assert events[1]["ts"] == pytest.approx(5e5)
    assert events[1]["args"]["parent"] == events[0]["args"]["id"]
    rec.write(str(tmp_path / "trace.json"))
    assert (tmp_path / "trace.json").stat().st_size > 0
