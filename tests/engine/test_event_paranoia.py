"""Regression: an event cancelled between pop and fire is a counted
no-op on the plain queue and a hard error on the checked one, and the
checked queue's per-pop checks (the ones paranoia mode's run loop used
to carry) fire from ``pop_entry``."""

from types import SimpleNamespace

import pytest

from repro.engine.event import (
    QUEUE_CHECK_INTERVAL, CheckedEventQueue, EventQueue,
)
from repro.engine.kernel import SimulationKernel
from repro.exceptions import InvariantError
from repro.verify import hooks


class TestCancelledFire:
    def test_counted_noop_by_default(self):
        queue = EventQueue()
        fired = []
        queue.push(1.0, fired.append, "x")
        event = queue.pop()
        event.cancel()  # a component replays a handle it gave up
        event.fire()
        assert fired == []
        assert queue.cancelled_fires == 1
        event.fire()
        assert queue.cancelled_fires == 2

    def test_live_fire_is_never_counted(self):
        queue = EventQueue()
        fired = []
        queue.push(1.0, fired.append, "x")
        queue.pop().fire()
        assert fired == ["x"]
        assert queue.cancelled_fires == 0

    def test_hard_error_under_paranoia(self):
        queue = CheckedEventQueue(SimpleNamespace(now=0.0))
        queue.push(2.5, lambda: None)
        event = queue.pop()
        event.cancel()
        with pytest.raises(InvariantError, match="cancelled event"):
            event.fire()
        assert queue.cancelled_fires == 0  # escalated, not counted

    def test_reset_zeroes_the_tally(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        event = queue.pop()
        event.cancel()
        event.fire()
        assert queue.cancelled_fires == 1
        queue.reset()
        assert queue.cancelled_fires == 0


class TestCheckedPop:
    def test_kernel_picks_its_queue_at_construction(self):
        plain = SimulationKernel()
        with hooks.paranoia(True):
            checked = SimulationKernel()
            assert type(plain._queue) is EventQueue  # not retrofitted
        assert type(checked._queue) is CheckedEventQueue  # stays checked
        assert type(SimulationKernel()._queue) is EventQueue

    def test_clock_going_backwards_is_caught(self):
        with hooks.paranoia(True):
            kernel = SimulationKernel()
        kernel.schedule(20.0, lambda: None)
        kernel.run(until=10.0)  # the horizon pause leaves now == 10
        kernel.post(7.0, lambda: None, ())  # post() has no past-time check
        with pytest.raises(InvariantError, match="clock would run backwards"):
            kernel.run()

    def test_scans_every_interval_and_when_drained(self):
        with hooks.paranoia(True):
            kernel = SimulationKernel()
        for i in range(QUEUE_CHECK_INTERVAL + 1):
            kernel.post(float(i), lambda: None, ())
        hooks.reset_stats()
        kernel.run()
        stats = hooks.VERIFY_STATS
        assert stats["events_checked"] == QUEUE_CHECK_INTERVAL + 1
        assert stats["queue_scans"] == 2  # one periodic, one at the drain
        assert stats["runs_checked"] == 1

    def test_drain_scan_sees_a_corrupted_heap(self):
        with hooks.paranoia(True):
            kernel = SimulationKernel()
        kernel.schedule(1.0, lambda: None)
        kernel._queue._live += 1  # a drifted live count
        with pytest.raises(InvariantError, match="live count drifted"):
            kernel.run()

    def test_checked_and_plain_deliver_identically(self):
        def drive(kernel):
            order = []
            doomed = kernel.schedule(2.0, order.append, "cancelled")
            for tag, delay in (("a", 3.0), ("b", 1.0), ("c", 3.0)):
                kernel.schedule(delay, order.append, tag)
            doomed.cancel()
            kernel.run(until=2.0)
            kernel.run(max_events=1)
            kernel.run()
            return order, kernel.now, kernel.events_processed

        with hooks.paranoia(True):
            checked = SimulationKernel()
        assert drive(checked) == drive(SimulationKernel())
