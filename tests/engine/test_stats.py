"""Statistics helper tests."""

import pytest

from repro.gpu.sm import StateTimeTracker


class TestStateTimeTracker:
    def test_single_transition(self):
        t = StateTimeTracker("idle")
        t.transition(10.0, "active")
        t.finish(25.0)
        assert t.time_in("idle") == 10.0
        assert t.time_in("active") == 15.0

    def test_repeated_states_accumulate(self):
        t = StateTimeTracker("idle")
        t.transition(5.0, "active")
        t.transition(8.0, "idle")
        t.transition(10.0, "active")
        t.finish(11.0)
        assert t.time_in("idle") == 7.0
        assert t.time_in("active") == 4.0

    def test_time_cannot_go_backwards(self):
        t = StateTimeTracker("a")
        t.transition(10.0, "b")
        with pytest.raises(ValueError):
            t.transition(5.0, "a")

    def test_unknown_state_is_zero(self):
        assert StateTimeTracker("a").time_in("zzz") == 0.0
