"""Work-counter gate on the result store's on-disk record size.

Bytes per stored record is a deterministic count, so it gates where a
wall-clock timer could not: every byte of envelope the store adds
(key, digest, framing) is paid again on each write, each reopen and
each salvage scan.  The perf benchmark reports the same ratio as
``simcache.bytes_per_record`` over its 2,000 seeded filler records;
this holds it on a small fixed input.
"""

import os
from dataclasses import asdict

from repro.analysis.simcache import ResultStore
from repro.gpu.results import SimulationResult

RECORDS = 64
#: Measures exactly 463.0 today (the sha256 digest is 71 of it, the key
#: 37, the rest payload and framing); ~5 % headroom — not room for a
#: second digest or a duplicated key.
BYTES_PER_RECORD_BUDGET = 486


def test_bytes_per_record_within_budget(tmp_path):
    root = os.path.join(tmp_path, "simcache")
    store = ResultStore(root)
    for i in range(RECORDS):
        result = SimulationResult(
            workload=f"w{i % 4}", system="8-SM", num_sms=8,
            cycles=123456.0 + i,
            thread_instructions=32 * (10**6 + i),
            warp_instructions=10**6 + i,
            memory_accesses=54321 + i, memory_stall_fraction=0.25,
            l1_hits=40000 + i, l1_misses=14321,
            llc_hits=9000, llc_misses=5321,
            events=11480 + i, wall_time_s=0.5,
        )
        # Real keys are ``sim|<16 hex>|<16 hex>``.
        store.put(
            f"sim|{i:016x}|{i:016x}", asdict(result), shard=result.workload
        )
    store.flush()
    on_disk = sum(
        os.path.getsize(os.path.join(base, name))
        for base, _, names in os.walk(root) for name in names
    )
    assert len(ResultStore(root)) == RECORDS
    assert on_disk / RECORDS <= BYTES_PER_RECORD_BUDGET
