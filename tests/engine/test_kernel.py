"""Simulation-kernel (clock + event loop) tests."""

import pytest

from repro.engine.kernel import SimulationKernel
from repro.exceptions import SimulationError


class TestScheduling:
    def test_schedule_relative(self):
        k = SimulationKernel()
        seen = []
        k.schedule(5.0, seen.append, "x")
        k.run()
        assert seen == ["x"]
        assert k.now == 5.0

    def test_schedule_absolute(self):
        k = SimulationKernel()
        seen = []
        k.post(3.0, lambda arg: seen.append((k.now, arg)), "y")
        k.run()
        assert seen == [(3.0, "y")]

    def test_cannot_schedule_into_past(self):
        k = SimulationKernel()
        k.post(10.0, lambda __: None)
        k.run()
        assert k.now == 10.0
        with pytest.raises(SimulationError):
            k.schedule(-1.0, lambda __: None)

    def test_events_cascade(self):
        k = SimulationKernel()
        order = []

        def first(__):
            order.append("first")
            k.schedule(2.0, second)

        def second(__):
            order.append("second")

        k.schedule(1.0, first)
        k.run()
        assert order == ["first", "second"]
        assert k.now == 3.0


class TestRunControl:
    def test_events_processed_counter(self):
        k = SimulationKernel()
        for i in range(7):
            k.post(float(i), lambda __: None)
        k.run()
        assert k.events_processed == 7
        assert k.seq == 7

    def test_events_processed_counts_the_running_event(self):
        # Boundary state is read inside a callback and must include the
        # event that carried the simulation there.
        k = SimulationKernel()
        seen = []
        k.post(1.0, lambda __: seen.append(k.events_processed))
        k.post(2.0, lambda __: seen.append(k.events_processed))
        k.run()
        assert seen == [1, 2]


class TestCheckpointState:
    """The read side of kernel-boundary state (``state_dict``), which
    differential replay digests."""

    def test_snapshot_refused_with_live_events(self):
        k = SimulationKernel()
        k.post(1.0, lambda __: None)
        with pytest.raises(SimulationError):
            k.state_dict()

    def test_snapshot_of_a_drained_kernel(self):
        k = SimulationKernel()
        k.schedule(1.0, lambda __: None)
        k.schedule(2.0, lambda __: None)
        k.run()
        assert k.state_dict() == {
            "now": 2.0, "events_processed": 2, "queue_seq": 2,
        }
