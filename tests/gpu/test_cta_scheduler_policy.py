"""CTA scheduling-policy test: Table III's round-robin placement."""

from repro.gpu import GPUConfig
from repro.gpu.cta import CTADispatcher
from repro.gpu.sm import StreamingMultiprocessor


def sms(n=2):
    cfg = GPUConfig(num_sms=n, name="t")
    return [StreamingMultiprocessor(i, cfg) for i in range(n)]


class TestDispatcherPolicies:
    def test_round_robin_spreads(self):
        d = CTADispatcher(sms(2))
        d.load_kernel(4, max_resident=2)
        assert d.initial_placements() == [(0, 0), (1, 1), (2, 0), (3, 1)]
