"""Bit-identity pin for the multi-chiplet memory path.

The golden ledger holds no MCM entry, so these payload digests are what
pins ``McmMemory``: first-touch placement, the inter-chiplet detour and
the home chiplet's LLC/DRAM leg.  Recorded at 4 chiplets, work scale
0.25, seed 0.
"""

from dataclasses import asdict

import pytest

from repro.analysis.runner import compute_mcm
from repro.verify.digest import payload_digest
from repro.workloads import get_benchmark

MCM_4_PINS = {
    "va": (
        "sha256:e454b223499e141bcdb81fa2e663630a577be5927b8fb43c890b011a613a4316",
        804639.4161127234,
    ),
    "gr": (
        "sha256:c251070e466e320016fc37ec376238b92dac47c418f3f907a85eca2337867549",
        527042.1284523619,
    ),
}


@pytest.mark.parametrize("abbr", sorted(MCM_4_PINS))
def test_mcm_payload_matches_the_pin(abbr):
    result = compute_mcm(get_benchmark(abbr), 4, 0.25, 0)
    assert (payload_digest(asdict(result)), result.cycles) == MCM_4_PINS[abbr]
