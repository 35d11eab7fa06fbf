"""Event queue ordering, cancellation and determinism tests."""

import pytest

from repro.engine.event import EventQueue


class TestOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        fired = []
        q.push(3.0, fired.append, "c")
        q.push(1.0, fired.append, "a")
        q.push(2.0, fired.append, "b")
        while (entry := q.pop_entry()) is not None:
            __, __, callback, args = entry[:4]
            callback(*args)
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        q = EventQueue()
        fired = []
        for tag in range(10):
            q.push(5.0, fired.append, tag)
        while (entry := q.pop_entry()) is not None:
            entry[2](*entry[3])
        assert fired == list(range(10))

    def test_peek_time_does_not_remove(self):
        q = EventQueue()
        q.push(7.0, lambda: None)
        assert q.peek_time() == 7.0
        assert len(q) == 1

    def test_empty_queue(self):
        q = EventQueue()
        assert q.pop() is None
        assert q.pop_entry() is None
        assert q.peek_time() is None
        assert len(q) == 0


class TestCancellation:
    def test_cancelled_event_not_fired(self):
        q = EventQueue()
        fired = []
        handle = q.push(1.0, fired.append, "dead")
        q.push(2.0, fired.append, "alive")
        handle.cancel()
        assert handle.cancelled
        while (entry := q.pop_entry()) is not None:
            entry[2](*entry[3])
        assert fired == ["alive"]

    def test_peek_skips_cancelled_head(self):
        q = EventQueue()
        handle = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        handle.cancel()
        assert q.peek_time() == 2.0

    def test_fire_on_cancelled_is_noop(self):
        q = EventQueue()
        fired = []
        handle = q.push(1.0, fired.append, 1)
        handle.cancel()
        handle.fire()
        assert fired == []


class TestEventHandle:
    def test_exposes_time_and_seq(self):
        q = EventQueue()
        a = q.push(1.5, lambda: None)
        b = q.push(1.5, lambda: None)
        assert a.time == 1.5
        assert b.seq == a.seq + 1

    def test_push_entry_reinserts(self):
        q = EventQueue()
        fired = []
        q.push_entry(4.0, fired.append, ("x",))
        entry = q.pop_entry()
        assert entry[0] == 4.0
        entry[2](*entry[3])
        assert fired == ["x"]

    def test_push_entry_preserves_seq_fifo_position(self):
        # A horizon-paused entry re-inserted with its original seq must
        # still fire before same-time events pushed after it was popped.
        q = EventQueue()
        fired = []
        q.push(5.0, fired.append, "paused")
        time, seq, callback, args = q.pop_entry()[:4]
        q.push(5.0, fired.append, "late")
        q.push_entry(time, callback, args, seq=seq)
        while (entry := q.pop_entry()) is not None:
            entry[2](*entry[3])
        assert fired == ["paused", "late"]

    def test_handle_stays_live_across_reinsert(self):
        # Regression: re-inserting a popped entry used to build a *new*
        # entry list, orphaning the Event handle — cancel() flipped the
        # old list and the re-inserted copy fired anyway.
        q = EventQueue()
        fired = []
        handle = q.push(5.0, fired.append, "dead")
        popped = q.pop_entry()
        q.push_entry(popped[0], popped[2], popped[3], seq=popped[1],
                     entry=popped)
        handle.cancel()
        assert handle.cancelled
        while (entry := q.pop_entry()) is not None:
            entry[2](*entry[3])
        assert fired == []

    def test_pop_entry_returns_live_entry(self):
        # The popped value must BE the handle's entry list, not a copy,
        # so push_entry(entry=...) keeps the handle linked.
        q = EventQueue()
        handle = q.push(1.0, lambda: None)
        assert q.pop_entry() is handle._entry

    def test_push_entry_fresh_seq_without_original(self):
        q = EventQueue()
        fired = []
        q.push(5.0, fired.append, "first")
        q.push_entry(5.0, fired.append, ("second",))
        while (entry := q.pop_entry()) is not None:
            entry[2](*entry[3])
        assert fired == ["first", "second"]

    def test_clear(self):
        q = EventQueue()
        q.push(1.0, lambda: None)
        q.clear()
        assert len(q) == 0


class TestLiveCount:
    def test_len_excludes_cancelled_entries(self):
        # Regression: a cancelled event lingers in the heap until popped,
        # and len() used to count the corpse.
        q = EventQueue()
        handle = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        handle.cancel()
        assert len(q) == 1

    def test_len_zero_when_only_corpses_remain(self):
        q = EventQueue()
        handles = [q.push(float(i), lambda: None) for i in range(4)]
        for handle in handles:
            handle.cancel()
        assert len(q) == 0

    def test_double_cancel_does_not_double_count(self):
        q = EventQueue()
        handle = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert len(q) == 1

    def test_cancel_after_pop_does_not_corrupt_count(self):
        # Cancelling a handle whose entry already left the heap must not
        # decrement the live count of events still queued.
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.pop()  # removes `first`
        first.cancel()
        assert len(q) == 1

    def test_cancel_after_clear_does_not_corrupt_count(self):
        q = EventQueue()
        handle = q.push(1.0, lambda: None)
        q.clear()
        handle.cancel()
        q.push(2.0, lambda: None)
        assert len(q) == 1

    def test_reinserted_entry_counts_once(self):
        q = EventQueue()
        handle = q.push(5.0, lambda: None)
        popped = q.pop_entry()
        assert len(q) == 0
        q.push_entry(popped[0], popped[2], popped[3], seq=popped[1],
                     entry=popped)
        assert len(q) == 1
        handle.cancel()
        assert len(q) == 0

    def test_peek_time_keeps_count(self):
        q = EventQueue()
        dead = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        dead.cancel()
        assert q.peek_time() == 2.0
        assert len(q) == 1

    def test_reset_rewinds_seq(self):
        # Regression: clear() kept the seq counter, so a reset queue and
        # a fresh queue disagreed on the boundary state's queue_seq.
        q = EventQueue()
        q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.reset()
        assert q.seq == 0
        assert len(q) == 0
        assert q.push(1.0, lambda: None).seq == EventQueue().push(1.0, lambda: None).seq
