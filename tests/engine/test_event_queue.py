"""Event heap ordering: time order, FIFO among ties, a fresh simulator."""

from repro.gpu import GPUSimulator

from tests.engine.conftest import one_sm_config, scripted_simulator, warps_workload


class TestOrdering:
    def test_pops_in_time_order(self):
        # Completions that fall out of issue order: warp w's first access
        # completes at 1000 - 100 * w, so the last warp resumes first.
        def reversed_completion(sim, time, done):
            warp = len(memory.log) - 1
            return 1000.0 - 100.0 * warp if warp < 4 else done

        sim, memory = scripted_simulator(one_sm_config(), reversed_completion)
        sim.run(warps_workload(warps=4, accesses=2))
        seen = [now for __, __, now, __ in memory.log]
        assert seen == sorted(seen)
        assert [line for line, *__ in memory.log] == [0, 2, 4, 6, 7, 5, 3, 1]

    def test_ties_break_by_insertion_order(self):
        # Every access completes at the same time, so all second steps
        # tie: they must run in the order they were pushed.
        sim, memory = scripted_simulator(
            one_sm_config(), lambda sim, time, done: 500.0
        )
        sim.run(warps_workload(warps=10, accesses=2))
        lines = [line for line, *__ in memory.log]
        assert lines[:10] == [2 * w for w in range(10)]
        assert lines[10:] == [2 * w + 1 for w in range(10)]
        assert all(now == 500.0 for __, __, now, __ in memory.log[10:])

    def test_empty_queue(self):
        sim = GPUSimulator(one_sm_config())
        assert sim.now == 0.0
        assert sim.events_processed == 0
        assert sim.heap == []
