"""Event heap ordering: time order, FIFO among ties, an empty run."""

from repro.engine.kernel import SimulationKernel


class TestOrdering:
    def test_pops_in_time_order(self):
        k = SimulationKernel()
        fired = []
        k.post(3.0, fired.append, "c")
        k.post(1.0, fired.append, "a")
        k.post(2.0, fired.append, "b")
        k.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        k = SimulationKernel()
        fired = []
        for tag in range(10):
            k.post(5.0, fired.append, tag)
        k.run()
        assert fired == list(range(10))

    def test_empty_queue(self):
        k = SimulationKernel()
        k.run()
        assert k.now == 0.0
        assert k.events_processed == 0
        assert k.heap == []
