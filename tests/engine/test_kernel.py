"""The simulator's clock and event loop: steps fire at their own time,
cascade, and are counted; the clock's boundary state."""

from tests.engine.conftest import one_sm_config, scripted_simulator, warps_workload


class TestScheduling:
    def test_schedule_absolute(self):
        # A step pushed for time T runs with the clock at T.
        sim, memory = scripted_simulator(
            one_sm_config(), lambda sim, time, done: time + 300.0
        )
        sim.run(warps_workload(warps=1, accesses=3))
        issued = [time for __, time, __, __ in memory.log]
        seen = [now for __, __, now, __ in memory.log]
        assert seen[0] == 0.0
        assert seen[1:] == [time + 300.0 for time in issued[:-1]]

    def test_events_cascade(self):
        # Each access's step pushes the next one: one warp's accesses run
        # back to back, each issued after the previous one completed.
        sim, memory = scripted_simulator(one_sm_config())
        result = sim.run(warps_workload(warps=1, accesses=4))
        assert [line for line, *__ in memory.log] == [0, 1, 2, 3]
        issued = [time for __, time, __, __ in memory.log]
        assert issued == sorted(issued) and len(set(issued)) == 4
        assert sim.now == result.cycles


class TestRunControl:
    def test_events_processed_counter(self):
        # One step per warp start plus one per access, every one popped.
        sim, __ = scripted_simulator(one_sm_config())
        result = sim.run(warps_workload(warps=3, accesses=5))
        assert result.events == 3 + 3 * 5
        assert sim.seq == result.events
        assert sim.heap == []

    def test_events_processed_counts_the_running_event(self):
        # Boundary state is read inside a step and must include the step
        # that carried the simulation there.
        sim, memory = scripted_simulator(one_sm_config())
        sim.run(warps_workload(warps=1, accesses=3))
        assert [events for *__, events in memory.log] == [1, 2, 3]


class TestCheckpointState:
    """The clock's part of kernel-boundary state, which differential
    replay digests."""

    def test_snapshot_of_a_drained_kernel(self):
        sim, __ = scripted_simulator(one_sm_config())
        clocks = []
        sim.run(
            warps_workload(warps=2, accesses=1, kernels=2),
            on_boundary=lambda k, cycles, state: clocks.append((cycles, state["clock"])),
        )
        [(cycles, clock)] = clocks
        assert clock == {"now": cycles, "events_processed": 4, "queue_seq": 4}
