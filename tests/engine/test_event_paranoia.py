"""Paranoia mode's per-event checks live in a checked ``post`` that a
kernel binds at construction: a backwards post is refused, the heap is
scanned every interval and once when the run drains, a corrupted heap is
caught, and checked and plain kernels deliver identically."""

import pytest

from repro.engine.kernel import QUEUE_CHECK_INTERVAL, SimulationKernel
from repro.exceptions import InvariantError
from repro.verify import hooks


def _checked_kernel() -> SimulationKernel:
    with hooks.paranoia(True):
        return SimulationKernel()


class TestCheckedPop:
    def test_kernel_picks_its_queue_at_construction(self):
        plain = SimulationKernel()
        with hooks.paranoia(True):
            checked = SimulationKernel()
            assert "post" not in vars(plain)  # not retrofitted
        assert "post" in vars(checked)  # stays checked
        assert "post" not in vars(SimulationKernel())

    def test_clock_going_backwards_is_caught(self):
        kernel = _checked_kernel()
        kernel.post(10.0, lambda __: kernel.post(7.0, lambda __: None))
        with pytest.raises(InvariantError, match="clock would run backwards"):
            kernel.run()

    def test_scans_every_interval_and_when_drained(self):
        kernel = _checked_kernel()
        hooks.reset_stats()
        for i in range(QUEUE_CHECK_INTERVAL + 1):
            kernel.post(float(i), lambda __: None)
        stats = hooks.VERIFY_STATS
        assert stats["events_checked"] == QUEUE_CHECK_INTERVAL + 1
        assert stats["queue_scans"] == 1  # the periodic one
        kernel.run()
        assert stats["queue_scans"] == 2  # plus one at the drain
        assert stats["runs_checked"] == 1

    def test_interval_scan_sees_a_corrupted_heap(self):
        kernel = _checked_kernel()
        for i in range(QUEUE_CHECK_INTERVAL - 1):
            kernel.post(float(i), lambda __: None)
        heap = kernel.heap
        heap[0], heap[-1] = heap[-1], heap[0]  # reordered behind heapq's back
        with pytest.raises(InvariantError, match="heap property"):
            kernel.post(0.5, lambda __: None)

    def test_checked_and_plain_deliver_identically(self):
        def drive(kernel):
            order = []

            def spawn(tag):
                order.append(tag)
                if tag == "b":
                    kernel.schedule(2.0, order.append, "d")

            for tag, delay in (("a", 3.0), ("b", 1.0), ("c", 3.0)):
                kernel.schedule(delay, spawn, tag)
            kernel.run()
            return order, kernel.state_dict()

        assert drive(_checked_kernel()) == drive(SimulationKernel())
