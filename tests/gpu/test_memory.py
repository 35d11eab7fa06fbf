"""Memory-subsystem tests: access path, merging, MSHRs, statistics."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.config import GPUConfig
from repro.gpu.memory import (
    DRAM, L1_HIT, LLC_HIT, MERGED, TAPE_CHUNK, MemorySubsystem, hash_lines,
    lcg_jump,
)
from repro.memory_regions import BYPASS_BASE

_HASH_K = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF
_LCG_SEED = 0x9E3779B97F4A7C15


def scalar_hash(line: int) -> int:
    """The address hash on Python ints: the reference for ``hash_lines``."""
    return ((line * _HASH_K) & _MASK) >> 20


class ScalarLcg:
    """The jitter LCG stepped once per draw: the reference for the tape."""

    def __init__(self, jitter: float) -> None:
        self.jitter = jitter
        self.state = _LCG_SEED
        self.draws = 0

    def scale(self) -> float:
        if self.jitter == 0.0:
            return 1.0
        self.state = (
            self.state * 6364136223846793005 + 1442695040888963407
        ) & _MASK
        self.draws += 1
        u = (self.state >> 11) / float(1 << 53)
        return 1.0 + self.jitter * (2.0 * u - 1.0)


def access(mem, sm_id: int, line: int, now: float):
    """``mem.access`` with the line's hash computed for one line."""
    return mem.access(sm_id, line, int(hash_lines([line])[0]), now)


def slice_of(mem: MemorySubsystem, line: int) -> int:
    return int(hash_lines([line])[0]) % len(mem.llc_slices)


def small_config(**overrides) -> GPUConfig:
    defaults = dict(
        num_sms=2,
        llc_slices=2,
        num_mcs=1,
        capacity_scale=1.0,
        latency_jitter=0.0,
        name="test",
    )
    defaults.update(overrides)
    return GPUConfig(**defaults)


class TestAccessPath:
    def test_first_access_goes_to_dram(self):
        mem = MemorySubsystem(small_config())
        t, where = access(mem, 0, 100, 0.0)
        assert where == DRAM
        assert t > 400  # at least L1 + NoC + LLC + DRAM latency
        assert mem.llc_misses == 1

    def test_l1_hit_after_fill(self):
        cfg = small_config()
        mem = MemorySubsystem(cfg)
        access(mem, 0, 100, 0.0)
        t, where = access(mem, 0, 100, 1000.0)
        assert where == L1_HIT
        assert t == 1000.0 + cfg.l1_hit_latency
        assert mem.l1_hits == 1

    def test_llc_hit_from_other_sm(self):
        mem = MemorySubsystem(small_config())
        access(mem, 0, 100, 0.0)
        __, where = access(mem, 1, 100, 5000.0)
        assert where == LLC_HIT
        assert mem.llc_hits == 1

    def test_in_flight_merge(self):
        mem = MemorySubsystem(small_config())
        t1, w1 = access(mem, 0, 100, 0.0)
        # A second warp on the same SM misses L1 on the same line while the
        # primary is still in flight: it merges and completes with it.
        # First evict the L1 copy? No: the L1 fill happened functionally, so
        # force a different warp pattern: access a line that maps to the
        # same L1 set to evict, then re-access.
        t2, w2 = access(mem, 0, 100, 1.0)
        assert w2 == L1_HIT  # functional fill makes it an L1 hit
        assert mem.merged == 0

    def test_merge_when_line_not_in_l1(self):
        # Use an L1 with a single set and assoc 6: seven distinct lines
        # evict the first, whose fill is still outstanding.
        cfg = small_config(l1_size=6 * 128, l1_assoc=6)
        mem = MemorySubsystem(cfg)
        assert cfg.l1_sets == 1
        t1, __ = access(mem, 0, 0, 0.0)
        for line in range(1, 7):  # evicts line 0 from the tiny L1
            access(mem, 0, line, 0.0)
        t2, where = access(mem, 0, 0, 1.0)
        assert where == MERGED
        assert t2 == t1
        assert mem.merged == 1

    def test_completion_after_issue_time(self):
        mem = MemorySubsystem(small_config())
        for i, line in enumerate(range(0, 4000, 7)):
            t, __ = access(mem, i % 2, line, float(i))
            assert t > i

    def test_dram_latency_jitter_bounds(self):
        cfg = small_config(latency_jitter=0.3)
        mem = MemorySubsystem(cfg)
        lo = hi = None
        for i, line in enumerate(range(0, 100000, 97)):
            t, where = access(mem, 0, line, 1e9 * (i + 1))  # huge gaps: no queueing
            if where != DRAM:
                continue
            lat = t - 1e9 * (i + 1)
            lo = lat if lo is None else min(lo, lat)
            hi = lat if hi is None else max(hi, lat)
        spread = hi - lo
        assert spread > 0  # jitter present
        # Total jitter span is bounded by 0.3*(llc+dram) latencies.
        assert spread <= 0.6 * (cfg.llc_latency + cfg.dram_latency) + 1e-6


class TestAddressMapping:
    def test_mapping_is_hashed_and_stable(self):
        mem = MemorySubsystem(small_config(llc_slices=2, num_mcs=1))
        assert slice_of(mem, 123) == slice_of(mem, 123)
        assert 0 <= slice_of(mem, 123) < 2
        assert int(hash_lines([12345])[0]) % len(mem.mcs) == 0  # one MC

    def test_hashing_spreads_consecutive_lines(self):
        """Consecutive lines must not walk slices in lockstep order (the
        phase-locking pathology hashing exists to break)."""
        mem = MemorySubsystem(small_config(llc_slices=8))
        slices = [slice_of(mem, line) for line in range(64)]
        # Roughly balanced...
        counts = [slices.count(s) for s in range(8)]
        assert max(counts) <= 2 * (64 // 8)
        # ...but NOT the identity pattern 0,1,2,...
        assert slices[:8] != list(range(8))

    def test_slice_camping_serializes(self):
        """Concurrent accesses to one slice queue at the slice port."""
        cfg = small_config(llc_slices=2)
        mem = MemorySubsystem(cfg)
        target_slice = slice_of(mem, 0)
        lines = [l for l in range(400) if slice_of(mem, l) == target_slice][:50]
        for line in lines:
            access(mem, 1, line, 0.0)  # warm the LLC from another SM
        base = 100000.0
        completions = [access(mem, 0, line, base)[0] for line in lines]
        # Port throughput is 1/cycle: the last completion is pushed out by
        # at least the queueing of its 49 predecessors.
        assert max(completions) - min(completions) >= 45.0


class TestStatistics:
    def test_stats_dict(self):
        """The counters and the boundary state account for one miss and
        one hit: a request and a response line on the NoC, one line
        read from DRAM."""
        cfg = small_config()
        mem = MemorySubsystem(cfg)
        access(mem, 0, 1, 0.0)
        access(mem, 0, 1, 500.0)
        assert (mem.l1_hits, mem.l1_misses, mem.llc_misses) == (1, 1, 1)
        state = mem.state_dict()
        assert state["noc_request"]["bytes_moved"] == cfg.noc_request_bytes
        assert state["noc_response"]["bytes_moved"] == cfg.line_size
        assert state["mcs"][0]["bytes_moved"] == 128
        assert state["mcs"][0]["requests"] == 1

    def test_miss_rates(self):
        mem = MemorySubsystem(small_config())
        assert mem.llc_hits + mem.llc_misses == 0
        access(mem, 0, 1, 0.0)
        assert (mem.llc_hits, mem.llc_misses) == (0, 1)
        assert [mc["requests"] for mc in mem.state_dict()["mcs"]] == [1]
        access(mem, 1, 1, 5000.0)  # the other SM's L1 misses, the LLC hits
        assert (mem.llc_hits, mem.llc_misses) == (1, 1)
        assert [mc["requests"] for mc in mem.state_dict()["mcs"]] == [1]

    def test_extra_stats(self):
        mem = MemorySubsystem(small_config())
        access(mem, 0, 1, 0.0)
        extra = mem.extra_stats(1000.0)
        assert 0.0 <= extra["noc_utilization"] <= 1.0
        assert extra["l1_merged"] == 0.0


def fifo(queue, now: float, service: float) -> float:
    """The FIFO recurrence on a ``[next_free, busy, requests]`` queue,
    written out independently of the model's."""
    queue[0] = max(now, queue[0]) + service
    queue[1] += service
    queue[2] += 1
    return queue[0]


def mshr_acquire(l1, now: float) -> float:
    """Earliest time an MSHR is free: ``now`` unless all are held."""
    if len(l1.mshr_releases) < l1.mshr_capacity:
        return now
    start = max(now, l1.mshr_releases[0])
    l1.mshr_wait += start - now
    return start


def mshr_hold(l1, release: float) -> None:
    """Hold an MSHR until ``release``, retiring the earliest when full."""
    if len(l1.mshr_releases) >= l1.mshr_capacity:
        heapq.heappop(l1.mshr_releases)
    heapq.heappush(l1.mshr_releases, release)
    l1.mshr_acquired += 1


def reference_access(
    mem: MemorySubsystem, lcg: ScalarLcg, sm_id: int, line: int, now: float
):
    """The access path composed step by step.

    What ``MemorySubsystem.access`` inlines, written as
    ``SetAssocCache.access`` calls and the test-local :func:`fifo`,
    :func:`mshr_acquire` and :func:`mshr_hold` steps on the subsystem's
    queues and MSHR heap, with the scalar address hash and the scalar
    jitter LCG — the executable definition the flat path must match.
    """
    cfg = mem.config

    def dram(hashed, t):
        mc = mem.mcs[hashed % len(mem.mcs)]
        t = fifo(mc, t, cfg.line_size / cfg.mc_bytes_per_cycle)
        return t + cfg.dram_latency * lcg.scale()

    l1 = mem.l1s[sm_id]
    if l1.cache.access(line):
        mem.l1_hits += 1
        return now + cfg.l1_hit_latency, L1_HIT
    mem.l1_misses += 1
    pending = l1.in_flight.get(line)
    if pending is not None and pending > now:
        l1.merged += 1
        mem.merged += 1
        return pending, MERGED
    t = mshr_acquire(l1, now) + cfg.l1_hit_latency
    t = fifo(mem.noc_request, t, cfg.noc_request_bytes / cfg.noc_bytes_per_cycle)
    t += cfg.noc_latency
    hashed = scalar_hash(line)
    slice_id = hashed % len(mem.llc_slices)
    t = fifo(mem.llc_ports[slice_id], t, 1.0 / cfg.llc_slice_throughput)
    if line >= BYPASS_BASE:
        mem.llc_misses += 1
        t, where = dram(hashed, t), DRAM
    else:
        hit = mem.llc_slices[slice_id].access(line)
        t += cfg.llc_latency * lcg.scale()
        if hit:
            mem.llc_hits += 1
            where = LLC_HIT
        else:
            mem.llc_misses += 1
            t, where = dram(hashed, t), DRAM
    t = fifo(mem.noc_response, t, cfg.line_size / cfg.noc_bytes_per_cycle)
    t += cfg.noc_latency
    l1.in_flight[line] = t
    mshr_hold(l1, t)
    if l1.mshr_acquired % l1.mshr_capacity == 0:
        l1.prune_in_flight(now)
    return t, where


def differential_config(jitter: float):
    """Tiny caches, so a short stream already hits, merges, evicts and
    waits for MSHRs."""
    return small_config(
        l1_size=4 * 128, l1_assoc=2, l1_mshrs=2,
        llc_size=16 * 128, llc_assoc=2, num_mcs=2,
        latency_jitter=jitter,
    )


#: (sm, line pick, time step): few distinct lines over tiny caches.
ACCESS_STREAM = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.integers(0, 39),
        st.sampled_from([0.0, 0.0, 1.0, 7.5, 400.0, 5000.0]),
    ),
    min_size=1,
    max_size=300,
)


class TestFlatPathMatchesPrimitives:
    """The inlined path against the step-by-step reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        stream=ACCESS_STREAM,
        jitter=st.sampled_from([0.0, 0.25]),
    )
    def test_differential(self, stream, jitter):
        cfg = differential_config(jitter)
        flat, reference = MemorySubsystem(cfg), MemorySubsystem(cfg)
        lcg = ScalarLcg(jitter)
        now = 0.0
        for sm_id, pick, step in stream:
            now += step
            # Every fourth line carries the LLC no-allocate hint.
            line = BYPASS_BASE + pick if pick % 4 == 3 else pick * 3
            assert access(flat, sm_id, line, now) == reference_access(
                reference, lcg, sm_id, line, now
            )
        assert flat.state_dict() == reference.state_dict()
        assert flat.state_dict()["rng_state"] == lcg.state


class TestHashLines:
    def test_matches_the_scalar_hash(self):
        rng = np.random.default_rng(7)
        lines = np.concatenate((
            rng.integers(0, 1 << 20, 500),
            rng.integers(0, BYPASS_BASE, 500),
            BYPASS_BASE + rng.integers(0, 1 << 20, 500),
            rng.integers(BYPASS_BASE, 1 << 63, 500, dtype=np.int64),
            [0, 1, BYPASS_BASE - 1, BYPASS_BASE, (1 << 63) - 1],
        ))
        assert hash_lines(lines).tolist() == [
            scalar_hash(line) for line in lines.tolist()
        ]


class TestJitterTape:
    """The tape replays the scalar LCG draw for draw, across chunks."""

    def test_jump_matches_stepping(self):
        lcg = ScalarLcg(0.5)
        for draws in range(1, 300):
            lcg.scale()
            assert lcg_jump(_LCG_SEED, draws) == lcg.state

    @pytest.mark.parametrize("jitter", [0.25, 0.3])
    def test_tape_matches_scalar_lcg_across_chunks(self, jitter):
        cfg = differential_config(jitter)
        flat, reference = MemorySubsystem(cfg), MemorySubsystem(cfg)
        lcg = ScalarLcg(jitter)
        rng = np.random.default_rng(3)
        now = 0.0
        # Mostly fresh lines (misses draw), one in four on the bypass
        # region (no LLC draw), until the tape has crossed three chunks.
        while lcg.draws <= 3 * TAPE_CHUNK + 50:
            pick = int(rng.integers(0, 1 << 16))
            line = BYPASS_BASE + pick if pick % 4 == 3 else pick
            now += float(rng.choice([0.0, 1.0, 50.0]))
            sm_id = pick & 1
            assert access(flat, sm_id, line, now) == reference_access(
                reference, lcg, sm_id, line, now
            )
            assert flat.rng_state() == lcg.state
        assert reference.rng_state() == lcg.state
        assert flat.state_dict() == reference.state_dict()


class TestMergeTableStaysBounded:
    def test_every_l1_holds_at_most_twice_its_mshrs(self):
        # One shared prune countdown used to prune only the L1 that
        # reached zero, so every other merge table kept nearly every
        # completed fill (1,801 entries in one L1 here).
        from repro.gpu import GPUSimulator
        from repro.workloads import STRONG_SCALING, build_trace

        config = GPUConfig.paper_baseline().scaled(32)
        trace = build_trace(
            STRONG_SCALING["bs"], work_scale=0.25,
            capacity_scale=config.capacity_scale, seed=0,
        )
        simulator = GPUSimulator(config)
        simulator.run(trace)
        bound = 2 * config.l1_mshrs
        assert max(len(l1.in_flight) for l1 in simulator.memory.l1s) <= bound
