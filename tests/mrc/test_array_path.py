"""The array-at-a-time MRC path against the one-reference-at-a-time code.

``collect_miss_rate_curve`` never simulates a cache and never walks a
tree: it derives L1 hits and LLC misses from stack distances counted
offline on whole arrays.  Each stage is checked here against the
streaming implementation of the same definition — ``StackDistanceProfiler``
(Fenwick tree), ``lru_misses`` and ``SetAssocCache`` (LRU
simulation), ``ReuseDistanceSampler`` — which stay in the tree as the
public streaming API and as this oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.cache import SetAssocCache
from repro.gpu.config import GPUConfig
from repro.memory_regions import BYPASS_BASE
from repro.mrc.collector import collect_miss_rate_curve, l1_miss_mask
from repro.mrc.interleave import interleaved_stream
from repro.mrc.stack_distance import (
    COLD, StackDistanceProfiler, lru_misses,
    previous_occurrences, stack_distances,
)
from repro.mrc.statstack import ReuseDistanceSampler
from repro.trace import patterns
from repro.trace.kernel import WorkloadTrace
from repro.workloads import build_trace, get_benchmark, strong_scaling_names
from tests.hand_traces import hand_kernel, warps_of
from tests.mrc.test_stack_distance import CAPACITIES
from tests.workloads.test_trace_pins import variant


@st.composite
def streams(draw):
    """Reference streams of the shapes the benchmarks are made of."""
    shape = draw(st.sampled_from(
        ["random", "cyclic", "pointer_chase", "all_distinct", "single_line"]
    ))
    n = draw(st.integers(min_value=0, max_value=1200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if n == 0:
        return []
    if shape == "random":
        return rng.integers(0, draw(st.integers(1, 900)), size=n).tolist()
    if shape == "cyclic":
        return patterns.cyclic_sweep(5, draw(st.integers(1, 400)), n).tolist()
    if shape == "pointer_chase":
        return patterns.pointer_chase_tree(0, 4, 6, n // 4 + 1, rng).tolist()[:n]
    if shape == "all_distinct":
        return rng.permutation(n).tolist()
    return [1 << 40] * n


class TestStackDistances:
    @settings(max_examples=120, deadline=None)
    @given(streams())
    def test_equal_the_profiler_and_lru_simulation(self, stream):
        previous = previous_occurrences(np.asarray(stream, dtype=np.int64))
        distances = stack_distances(previous)

        profiler = StackDistanceProfiler(expected_length=4)
        assert distances.tolist() == [profiler.access(line) for line in stream]

        cold = np.count_nonzero(distances == COLD)
        assert [
            cold + np.count_nonzero(distances >= capacity)
            for capacity in CAPACITIES
        ] == lru_misses(stream, CAPACITIES)

    @settings(max_examples=60, deadline=None)
    @given(streams())
    def test_reuse_distances_equal_the_sampler(self, stream):
        previous = previous_occurrences(np.asarray(stream, dtype=np.int64))
        warm = np.flatnonzero(previous >= 0)
        sampler = ReuseDistanceSampler()
        sampler.consume(stream)
        assert (warm - previous[warm] - 1).tolist() == sampler.reuse_distances
        assert len(stream) - len(warm) == sampler.cold_misses


def reference_previous(keys):
    """Previous position of each key, with a plain dict."""
    last, previous = {}, []
    for position, key in enumerate(keys):
        previous.append(last.get(key, COLD))
        last[key] = position
    return previous


#: Keys around every edge of the packed sort: the int64 extremes, 2**62,
#: negative keys and lines at or above ``BYPASS_BASE``.
EDGE_KEYS = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(2**62 - 40, 2**62 + 40),
    st.integers(-(2**63), -(2**63) + 40),
    st.integers(2**63 - 41, 2**63 - 1),
    st.integers(-40, 40),
    st.integers(BYPASS_BASE - 4, BYPASS_BASE + 40),
)


class TestPreviousOccurrences:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(EDGE_KEYS, min_size=1, max_size=8).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=300)
    ))
    def test_equal_a_dict_on_any_int64_keys(self, keys):
        previous = previous_occurrences(np.asarray(keys, dtype=np.int64))
        assert previous.tolist() == reference_previous(keys)

    @pytest.mark.parametrize("keys", [
        [0, 2**61 - 1, 0],  # 61 + 2 bits: the widest span that packs
        [0, 2**61, 0],  # one bit too many: ranked first
        [-(2**63), 2**63 - 1, -(2**63), 2**63 - 1],
        [-(2**63), 0, -(2**63), 0],  # packs only once shifted to 0
        [BYPASS_BASE + 7, 3, BYPASS_BASE + 7, 3],
        [5],
        [],
    ])
    def test_packing_edges(self, keys):
        previous = previous_occurrences(np.asarray(keys, dtype=np.int64))
        assert previous.tolist() == reference_previous(keys)


def reference_interleave(workload, num_virtual_sms, ctas_per_sm):
    """The interleaving model spelled out CTA by CTA, on Python lists."""
    vsm, lines = [], []
    window = num_virtual_sms * ctas_per_sm
    for kernel in workload.kernels:
        for first in range(0, kernel.num_ctas, window):
            merged = []
            for cta_id in range(first, min(first + window, kernel.num_ctas)):
                warps = [lines.tolist() for __, lines in warps_of(kernel, cta_id)]
                merged.append((cta_id, [
                    w[slot] for slot in range(max(map(len, warps)))
                    for w in warps if slot < len(w)
                ]))
            for start in range(0, max(len(m) for __, m in merged), 32):
                for cta_id, stream in merged:
                    piece = stream[start : start + 32]
                    lines += piece
                    vsm += [cta_id % num_virtual_sms] * len(piece)
    return vsm, lines


@pytest.mark.parametrize("shape", [(16, 6), (3, 2), (1, 1)])
def test_interleaving_equals_the_model_spelled_out(shape):
    workload = hand_built_workload(5)
    vsm, lines = interleaved_stream(workload, *shape)
    assert (vsm.tolist(), lines.tolist()) == reference_interleave(workload, *shape)


def replay_l1s(vsm, lines, num_sets, assoc):
    """The L1 filter as a simulation: one ``SetAssocCache`` per virtual SM."""
    l1s = [
        SetAssocCache(num_sets, assoc) for __ in range(int(vsm.max(initial=-1)) + 1)
    ]
    return [not l1s[v].access(line) for v, line in zip(vsm.tolist(), lines.tolist())]


def hand_built_workload(seed):
    """Two hand-written kernels: ragged warps, an empty warp, bypass
    lines, and lines the second kernel re-reads so L1 state has to carry
    over from the first."""
    rng = np.random.default_rng(seed)

    def kernel(name, num_ctas, footprint):
        ctas = []
        for cta_id in range(num_ctas):
            warps = []
            for w in range(int(rng.integers(1, 5))):
                n = 0 if (cta_id + w) % 7 == 0 else int(rng.integers(1, 90))
                lines = rng.integers(0, footprint, size=n)
                lines[rng.random(n) < 0.1] += BYPASS_BASE
                warps.append(([2] * n, lines.tolist(), w, 0.0))
            ctas.append(warps)
        return hand_kernel(name, 128, ctas)

    return WorkloadTrace("hand", [kernel("a", 130, 300), kernel("b", 37, 120)])


WORKLOADS = {
    "hand-built": lambda: hand_built_workload(11),
    "sweep+cold": lambda: build_trace(
        variant("va", cold_frac=0.3, fp_mb=40.0), work_scale=0.05, seed=2
    ),
    "ragged-chase": lambda: build_trace(get_benchmark("btree"), work_scale=0.05, seed=2),
    "four-kernels": lambda: build_trace(get_benchmark("gr"), work_scale=0.05, seed=2),
}

#: Every Table II benchmark, small.
TABLE_II = {
    f"table-ii.{abbr}": lambda abbr=abbr: build_trace(
        get_benchmark(abbr), work_scale=0.05, seed=2
    )
    for abbr in strong_scaling_names()
}


@pytest.mark.parametrize("name", sorted(WORKLOADS) + list(TABLE_II))
@pytest.mark.parametrize("capacity_scale", [0.125, 1.0])
def test_l1_filter_equals_cache_replay(name, capacity_scale):
    workload = {**WORKLOADS, **TABLE_II}[name]()
    config = GPUConfig.paper_baseline(capacity_scale=capacity_scale)
    vsm, lines = interleaved_stream(workload, 16, 6)
    assert len(lines) == workload.count_accesses()
    mask = l1_miss_mask(vsm, lines, config.l1_sets, config.l1_assoc)
    assert mask.tolist() == replay_l1s(vsm, lines, config.l1_sets, config.l1_assoc)


@st.composite
def l1_streams(draw):
    """``(vsm, lines, num_sets, assoc)`` of the shapes the window scan
    treats apart: any stream, one virtual SM, an empty stream, and a
    window far longer than the scan's offset cap whose first offsets hold
    fewer than ``assoc`` distinct lines of its group (the stack-distance
    fallback decides it)."""
    shape = draw(st.sampled_from(["random", "one_vsm", "empty", "long_window"]))
    num_sets, assoc = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    num_vsms = 1 if shape == "one_vsm" else draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 0 if shape == "empty" else draw(st.integers(1, 600))
    lines = rng.integers(0, draw(st.integers(1, 60)), size=n)
    vsm = rng.integers(0, num_vsms, size=n)
    if shape == "long_window":  # the last virtual SM holds only the window
        assoc = max(assoc, 3)
        few = rng.integers(1, assoc, size=draw(st.integers(80, 300)))
        # Line 0, fewer than ``assoc`` other lines of its set (then, or
        # not, ``assoc`` more to evict it), line 0.
        evict = np.arange(assoc, 2 * assoc) if draw(st.booleans()) else []
        window = np.concatenate(([0], few, evict, [0])) * num_sets
        at = np.sort(rng.integers(0, n + 1, size=len(window)))
        lines, vsm = np.insert(lines, at, window), np.insert(vsm, at, num_vsms)
    return vsm.astype(np.int16), lines.astype(np.int64), num_sets, assoc


@settings(max_examples=150, deadline=None)
@given(l1_streams())
def test_l1_filter_shapes_equal_cache_replay(stream):
    vsm, lines, num_sets, assoc = stream
    mask = l1_miss_mask(vsm, lines, num_sets, assoc)
    assert mask.dtype == bool and len(mask) == len(lines)
    assert mask.tolist() == replay_l1s(vsm, lines, num_sets, assoc)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_curve_equals_reference_replay(name):
    """End to end: the collector's exact methods against a replay of the
    same stream through simulated L1s and a Fenwick-tree profiler."""
    workload = WORKLOADS[name]()
    config = GPUConfig.paper_baseline()
    vsm, lines = interleaved_stream(workload, 16, 6)
    llc = [
        line for line, miss in zip(
            lines.tolist(), replay_l1s(vsm, lines, config.l1_sets, config.l1_assoc)
        )
        if miss
    ]
    profiler = StackDistanceProfiler()
    profiler.consume(line for line in llc if line < BYPASS_BASE)
    bypass = sum(line >= BYPASS_BASE for line in llc)

    curves = {
        method: collect_miss_rate_curve(workload, config=config, method=method)
        for method in ("stack", "lru")
    }
    cap_lines = [
        max(1, int(c * config.capacity_scale) // config.line_size)
        for c in curves["stack"].capacities_bytes
    ]
    expected = tuple(
        (misses + bypass) / len(llc) for misses in profiler.miss_curve(cap_lines)
    )
    for curve in curves.values():
        assert curve.metadata["llc_accesses"] == len(llc)
        assert curve.miss_ratio == expected
