"""Paranoia mode's per-step checks live in the checked push a simulator
chooses at construction: a backwards step is refused, the heap is
scanned every interval and once when the loop drains, a corrupted heap
is caught, and checked and plain loops deliver identically."""

import dataclasses

import pytest

from repro.exceptions import InvariantError
from repro.gpu import GPUSimulator
from repro.gpu.gpu import QUEUE_CHECK_INTERVAL
from repro.verify import hooks

from tests.engine.conftest import scripted_simulator
from tests.verify.conftest import small_setup


class TestCheckedPop:
    def test_kernel_picks_its_queue_at_construction(self):
        config, trace = small_setup()
        plain = GPUSimulator(config)
        with hooks.paranoia(True):
            checked = GPUSimulator(config)
            hooks.reset_stats()
            plain.run(trace)  # not retrofitted
            assert hooks.VERIFY_STATS["events_checked"] == 0
        result = checked.run(trace)  # stays checked
        assert hooks.VERIFY_STATS["events_checked"] == result.events

    def test_clock_going_backwards_is_caught(self):
        config, trace = small_setup()
        with hooks.paranoia(True):
            sim, __ = scripted_simulator(config, lambda sim, time, done: -1.0)
        with pytest.raises(InvariantError, match="clock would run backwards"):
            sim.run(trace)

    def test_scans_every_interval_and_when_drained(self):
        config, trace = small_setup()
        with hooks.paranoia(True):
            sim = GPUSimulator(config)
        hooks.reset_stats()
        result = sim.run(trace)
        stats = hooks.VERIFY_STATS
        assert result.events > QUEUE_CHECK_INTERVAL
        assert stats["events_checked"] == result.events
        # The periodic scans, plus one at the drain.
        assert stats["queue_scans"] == result.events // QUEUE_CHECK_INTERVAL + 1
        assert stats["runs_checked"] == 1

    def test_interval_scan_sees_a_corrupted_heap(self):
        # Reorder the heap behind heapq's back just before the push that
        # triggers the first periodic scan.
        def corrupt(sim, time, done):
            if sim.seq + 1 == QUEUE_CHECK_INTERVAL:
                heap = sim.heap
                heap[-1] = (-99.0,) + heap[-1][1:]
            return done

        config, trace = small_setup()
        with hooks.paranoia(True):
            sim, __ = scripted_simulator(config, corrupt)
        with pytest.raises(InvariantError, match="heap property"):
            sim.run(trace)
        assert sim.seq == QUEUE_CHECK_INTERVAL

    def test_checked_and_plain_deliver_identically(self):
        config, trace = small_setup()  # btree: 2 kernels

        def drive(paranoid):
            with hooks.paranoia(paranoid):
                sim = GPUSimulator(config)
            states = []
            result = sim.run(trace, on_boundary=lambda *boundary: states.append(boundary))
            return dataclasses.replace(result, wall_time_s=0.0), states

        plain, checked = drive(False), drive(True)
        assert len(plain[1]) == len(trace.kernels) - 1 == 1
        assert checked == plain
