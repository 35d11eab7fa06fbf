"""Simulation-kernel (clock + event loop) tests."""

import pytest

from repro.engine.kernel import SimulationKernel
from repro.exceptions import SimulationError


class TestScheduling:
    def test_schedule_relative(self):
        k = SimulationKernel()
        seen = []
        k.schedule(5.0, lambda: seen.append(k.now))
        k.run()
        assert seen == [5.0]

    def test_schedule_absolute(self):
        k = SimulationKernel()
        seen = []
        k.schedule_at(3.0, lambda: seen.append(k.now))
        k.run()
        assert seen == [3.0]

    def test_cannot_schedule_into_past(self):
        k = SimulationKernel()
        k.schedule_at(10.0, lambda: None)
        k.run()
        assert k.now == 10.0
        with pytest.raises(SimulationError):
            k.schedule_at(5.0, lambda: None)
        with pytest.raises(SimulationError):
            k.schedule(-1.0, lambda: None)

    def test_events_cascade(self):
        k = SimulationKernel()
        order = []

        def first():
            order.append("first")
            k.schedule(2.0, second)

        def second():
            order.append("second")

        k.schedule(1.0, first)
        k.run()
        assert order == ["first", "second"]
        assert k.now == 3.0


class TestRunControl:
    def test_until_is_inclusive(self):
        k = SimulationKernel()
        seen = []
        k.schedule_at(5.0, seen.append, "at5")
        k.schedule_at(6.0, seen.append, "at6")
        k.run(until=5.0)
        assert seen == ["at5"]
        assert k.now == 5.0
        k.run()
        assert seen == ["at5", "at6"]

    def test_event_beyond_until_is_preserved(self):
        k = SimulationKernel()
        seen = []
        k.schedule_at(10.0, seen.append, "later")
        k.run(until=3.0)
        assert seen == []
        assert k.pending_events == 1
        k.run()
        assert seen == ["later"]

    def test_max_events(self):
        k = SimulationKernel()
        seen = []
        for i in range(5):
            k.schedule_at(float(i), seen.append, i)
        k.run(max_events=2)
        assert seen == [0, 1]

    def test_stop_from_handler(self):
        k = SimulationKernel()
        seen = []
        k.schedule_at(1.0, lambda: (seen.append(1), k.stop()))
        k.schedule_at(2.0, seen.append, 2)
        k.run()
        assert seen == [1]
        k.run()
        assert seen == [1, 2]

    def test_events_processed_counter(self):
        k = SimulationKernel()
        for i in range(7):
            k.schedule_at(float(i), lambda: None)
        k.run()
        assert k.events_processed == 7

    def test_cancel_survives_horizon_pause(self):
        # Regression: run(until=...) pops and re-inserts the first event
        # beyond the horizon; the handle must still cancel it afterwards.
        k = SimulationKernel()
        fired = []
        handle = k.schedule(10.0, fired.append, "late")
        k.run(until=5.0)
        handle.cancel()
        k.run()
        assert fired == []
        assert k.now == 5.0

    def test_reset(self):
        k = SimulationKernel()
        k.schedule_at(4.0, lambda: None)
        k.run()
        k.reset()
        assert k.now == 0.0
        assert k.pending_events == 0
        assert k.events_processed == 0


class TestCheckpointState:
    """The read side of kernel-boundary state (``state_dict``), which
    differential replay digests."""

    def test_snapshot_allowed_with_only_cancelled_events(self):
        # Regression: cancelled entries linger in the heap until popped,
        # and state_dict() used to refuse a kernel-boundary snapshot
        # because len(queue) counted the corpses.
        k = SimulationKernel()
        k.schedule_at(1.0, lambda: None)
        handle = k.schedule_at(9.0, lambda: None)
        k.run(until=1.0)
        handle.cancel()
        assert k.pending_events == 0
        state = k.state_dict()
        assert state["now"] == 1.0
        assert state["events_processed"] == 1

    def test_snapshot_refused_with_live_events(self):
        k = SimulationKernel()
        k.schedule_at(1.0, lambda: None)
        with pytest.raises(SimulationError):
            k.state_dict()

    def test_reset_kernel_checkpoints_like_fresh_kernel(self):
        # Regression: reset() kept the queue's seq counter, so the same
        # schedule replayed after a reset reported a different queue_seq
        # than a fresh kernel — breaking bit-identical state comparison
        # across resets.
        def drive(kernel):
            kernel.schedule(1.0, lambda: None)
            kernel.schedule(2.0, lambda: None)
            kernel.run()
            return kernel.state_dict()

        fresh = drive(SimulationKernel())
        reused = SimulationKernel()
        drive(reused)
        reused.reset()
        assert drive(reused) == fresh
