"""The shared memory subsystem: L1s, NoC, sliced LLC and DRAM channels.

The subsystem resolves one warp-level memory access analytically: given the
issue time, it walks the resource chain (L1 → NoC → LLC slice → memory
controller → NoC) and returns the completion time.  Because the simulation
kernel delivers accesses in global time order, the FIFO next-free-time
bookkeeping of each queue (:mod:`repro.gpu.fifo`) is an exact queueing
model.  The subsystem owns every queue on that chain.

Structure per the paper's Table III:

* one L1 per SM (never scaled), with MSHR merging of in-flight lines;
* a crossbar NoC modelled by its bisection bandwidth, with *separate
  request and response channels* (as in real GPU interconnects, and
  necessary here so that a response booked far in the future never blocks
  an earlier request — each channel sees near-time-ordered arrivals);
* the LLC split into address-interleaved slices, each with a tag-pipeline
  throughput port — concurrent accesses to the same slice serialize,
  which is the "camping" congestion mechanism the paper cites for
  sub-linear scaling;
* one bandwidth queue per memory controller; lines map to MCs by address
  interleaving.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import chain, repeat
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.gpu.cache import SetAssocCache
from repro.gpu.config import GPUConfig
from repro.gpu.fifo import new_queue, queue_state, utilization
from repro.memory_regions import BYPASS_BASE
from repro.validate import validate_config

#: The latency-jitter LCG (Knuth's MMIX constants), its seed and its
#: output scale.
_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_SEED = 0x9E3779B97F4A7C15
_MASK_64 = 0xFFFFFFFFFFFFFFFF
_TWO_53 = float(1 << 53)

#: Jitter draws made per NumPy pass.
TAPE_CHUNK = 4096

_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)
_HASH_SHIFT = np.uint64(20)


def hash_lines(lines: np.ndarray) -> np.ndarray:
    """The address hash of every line: ``(line * K) mod 2**64 >> 20``.

    Lines are hashed before interleaving (as real GPU memory systems hash
    channel/slice selection): plain modulo lets strided streams
    phase-lock onto one controller at a time — every warp walking lines
    4g..4g+3 hits MC (k mod 4) in lockstep at the 4-controller size,
    which serializes the whole machine at that size only.  ``hash %
    llc_slices`` picks a line's LLC slice, ``hash % num_mcs`` its memory
    controller.  NumPy ``uint64`` multiplication wraps modulo 2**64.
    """
    return (np.asarray(lines).astype(np.uint64) * _HASH_MUL) >> _HASH_SHIFT


def _lcg_tables() -> Tuple[np.ndarray, np.ndarray]:
    """``(A_i, C_i)`` for i = 1..TAPE_CHUNK: ``state_i = A_i*state + C_i``."""
    powers = np.cumprod(np.full(TAPE_CHUNK, _LCG_MUL, dtype=np.uint64))
    # C_i = C * (1 + A + ... + A**(i-1)), every sum and product mod 2**64.
    partial_sums = np.cumsum(
        np.concatenate((np.ones(1, dtype=np.uint64), powers[:-1]))
    )
    return powers, partial_sums * np.uint64(_LCG_INC)


_JUMP_MUL, _JUMP_INC = _lcg_tables()


def _jitter_tape(jitter: float) -> Iterator[List[float]]:
    """Latency scale factors ``1 + jitter * (2u - 1)``, one chunk per pass.

    ``u`` is the top 53 bits of successive LCG states from the seed —
    the same draws, in the same order, as stepping the LCG once per
    jittered latency.  Holds no reference to its subsystem.
    """
    state = np.uint64(_LCG_SEED)
    while True:
        states = _JUMP_MUL * state + _JUMP_INC
        state = states[-1]
        u = (states >> np.uint64(11)) / _TWO_53
        yield (1.0 + jitter * (2.0 * u - 1.0)).tolist()


def lcg_jump(state: int, draws: int) -> int:
    """The LCG state ``draws`` steps after ``state`` (O(log draws))."""
    mul, inc = _LCG_MUL, _LCG_INC
    acc_mul, acc_inc = 1, 0
    while draws:
        if draws & 1:
            acc_mul = acc_mul * mul & _MASK_64
            acc_inc = (acc_inc * mul + inc) & _MASK_64
        inc = (mul + 1) * inc & _MASK_64
        mul = mul * mul & _MASK_64
        draws >>= 1
    return (acc_mul * state + acc_inc) & _MASK_64


#: Result tags for where an access was served.
L1_HIT = 0
LLC_HIT = 1
DRAM = 2
MERGED = 3


class L1Cache:
    """Per-SM L1 with an MSHR file and in-flight miss merging.

    The MSHR file is a min-heap of fill times, at most ``mshr_capacity``
    long: a primary miss with every MSHR held waits for the earliest
    release.
    """

    def __init__(self, config: GPUConfig, sm_id: int) -> None:
        self.cache = SetAssocCache(
            num_sets=config.l1_sets,
            assoc=config.l1_assoc,
            name=f"l1-sm{sm_id}",
        )
        self.mshr_capacity = config.l1_mshrs
        self.mshr_releases: List[float] = []
        self.mshr_acquired = 0
        self.mshr_wait = 0.0
        self.in_flight: Dict[int, float] = {}
        self.merged = 0

    def prune_in_flight(self, now: float) -> None:
        """Drop the fills that landed by ``now`` from the merge table."""
        done = [line for line, t in self.in_flight.items() if t <= now]
        for line in done:
            del self.in_flight[line]

    def state_dict(self) -> dict:
        # JSON keys are strings, so the in-flight merge table travels as
        # (line, completion-time) pairs in insertion order.
        return {
            "cache": self.cache.state_dict(),
            "mshrs": {
                "releases": list(self.mshr_releases),
                "acquired": self.mshr_acquired,
                "wait_time": self.mshr_wait,
            },
            "in_flight": [[line, t] for line, t in self.in_flight.items()],
            "merged": self.merged,
        }


class MemorySubsystem:
    """All shared memory resources of one (monolithic) GPU."""

    def __init__(self, config: GPUConfig) -> None:
        # Rejects the non-positive rates and capacities the queues and
        # the MSHR heap cannot serve.
        self.config = validate_config(config)
        self.l1s: List[L1Cache] = [L1Cache(config, i) for i in range(config.num_sms)]
        # The queues (repro.gpu.fifo): NoC request and response channels,
        # one tag port per LLC slice, one bandwidth queue per MC.
        self.noc_request = new_queue()
        self.noc_response = new_queue()
        sets = config.llc_sets_per_slice
        self.llc_slices: List[SetAssocCache] = [
            SetAssocCache(sets, config.llc_assoc, name=f"llc-slice{i}")
            for i in range(config.llc_slices)
        ]
        self.llc_ports = [new_queue() for _ in range(config.llc_slices)]
        self.mcs = [new_queue() for _ in range(config.num_mcs)]
        # Constants of the access path, bound once instead of read off
        # ``config`` per access.
        self._num_slices = config.llc_slices
        self._num_mcs = config.num_mcs
        self._slice_service = 1.0 / config.llc_slice_throughput
        self._line_size = config.line_size
        self._request_bytes = config.noc_request_bytes
        self._request_service = config.noc_request_bytes / config.noc_bytes_per_cycle
        self._response_service = config.line_size / config.noc_bytes_per_cycle
        self._mc_service = config.line_size / config.mc_bytes_per_cycle
        self._noc_latency = config.noc_latency
        self._l1_hit_latency = config.l1_hit_latency
        self._llc_latency = config.llc_latency
        self._dram_latency = config.dram_latency
        # Deterministic LCG driving per-access latency jitter (see
        # GPUConfig.latency_jitter): reproducible, yet decorrelates warps.
        # Every non-bypass LLC probe and every DRAM read takes the next
        # scale factor off the tape.
        self._jitter = config.latency_jitter
        self._next_scale = (
            chain.from_iterable(_jitter_tape(self._jitter)).__next__
            if self._jitter
            else repeat(1.0).__next__
        )
        # Aggregate counters.
        self.l1_hits = 0
        self.l1_misses = 0
        self.llc_hits = 0
        self.llc_misses = 0
        self.merged = 0
        # Fault-injection seam (REPRO_FAULT_INJECT drop-miss directive):
        # while positive, L1 miss increments are silently swallowed —
        # the seeded model mutation the verify subsystem must catch.
        # Deliberately absent from state_dict: injected corruption is
        # not model state.
        self._drop_miss_budget = 0

    def warm_lines(self, base: int, count: int) -> None:
        """Pre-fill the LLC slices with ``count`` lines starting at ``base``
        (no latency, no statistics) — steady-state warm-up."""
        slices = self.llc_slices
        n = len(slices)
        lines = np.arange(base, min(base + count, BYPASS_BASE))
        for line, hashed in zip(lines.tolist(), hash_lines(lines).tolist()):
            slices[hashed % n].fill(line)

    # --- the access path ----------------------------------------------------
    # Straight-line code (docs/ARCHITECTURE.md, "Hot path"): the L1 and
    # LLC lookups and every FIFO step are written out inline, on the
    # queues and MSHR heap this subsystem owns.
    def access(
        self,
        sm_id: int,
        line: int,
        hashed: int,
        now: float,
        llc_leg: Optional[Callable[[int, int, float], Tuple[float, int]]] = None,
    ) -> Tuple[float, int]:
        """Resolve one warp memory access to ``line`` issued at ``now``.

        ``hashed`` is the line's :func:`hash_lines` value, computed once
        per kernel by the simulator.  Returns ``(completion_time, where)``
        with ``where`` one of :data:`L1_HIT`, :data:`LLC_HIT`,
        :data:`DRAM`, :data:`MERGED`.

        ``llc_leg`` is passed on to :meth:`shared_path`: the multi-chiplet
        model detours a remote line through its home chiplet.
        """
        l1 = self.l1s[sm_id]
        cache = l1.cache
        cache_set = cache._sets[line % cache.num_sets]
        if line in cache_set:
            del cache_set[line]
            cache_set[line] = None
            cache.hits += 1
            self.l1_hits += 1
            return now + self._l1_hit_latency, L1_HIT
        cache.misses += 1
        if len(cache_set) >= cache.assoc:
            for victim in cache_set:  # the oldest key, without a call
                break
            del cache_set[victim]
        cache_set[line] = None
        if self._drop_miss_budget > 0:
            self._drop_miss_budget -= 1
        else:
            self.l1_misses += 1

        # Merge with an in-flight miss to the same line (secondary miss):
        # no new NoC/LLC/DRAM traffic, data arrives with the primary.
        in_flight = l1.in_flight
        if line in in_flight:
            pending = in_flight[line]
            if pending > now:
                l1.merged += 1
                self.merged += 1
                return pending, MERGED

        # Primary miss: wait for an MSHR, then the shared side.
        t = now
        releases = l1.mshr_releases
        full = len(releases) >= l1.mshr_capacity
        if full:
            if releases[0] > now:
                t = releases[0]
            l1.mshr_wait += t - now
        t, where = self.shared_path(line, hashed, t + self._l1_hit_latency, llc_leg)
        # The fill lands and frees the MSHR.
        in_flight[line] = t
        if full:
            heappop(releases)
        heappush(releases, t)
        l1.mshr_acquired += 1
        # Prune this L1's merge table every ``mshr_capacity`` primary
        # misses.  Each SM's access times are monotone, so a fill that
        # landed by ``now`` can never merge again: no decision changes.
        if not l1.mshr_acquired % l1.mshr_capacity:
            l1.prune_in_flight(now)
        return t, where

    def shared_path(
        self,
        line: int,
        hashed: int,
        t: float,
        llc_leg: Optional[Callable[[int, int, float], Tuple[float, int]]] = None,
    ) -> Tuple[float, int]:
        """The shared side of a primary miss leaving its L1 at ``t``.

        Request hop → LLC port and slice → DRAM on a miss → response
        hop; returns ``(fill_time, where)``.  ``llc_leg(line, hashed, t)``
        replaces the LLC and DRAM part between the two hops: the
        multi-chiplet model crosses to the line's home chiplet and runs
        *that* subsystem's shared path.
        """
        link = self.noc_request
        if link[0] > t:
            t = link[0]
        service = self._request_service
        t += service
        link[0] = t
        link[1] += service
        link[2] += 1
        t += self._noc_latency
        if llc_leg is not None:
            t, where = llc_leg(line, hashed, t)
        else:
            slice_id = hashed % self._num_slices
            port = self.llc_ports[slice_id]
            if port[0] > t:
                t = port[0]
            service = self._slice_service
            t += service
            port[0] = t
            port[1] += service
            port[2] += 1
            hit = False
            if line < BYPASS_BASE:
                cache = self.llc_slices[slice_id]
                cache_set = cache._sets[line % cache.num_sets]
                hit = line in cache_set
                if hit:
                    del cache_set[line]
                    cache.hits += 1
                else:
                    cache.misses += 1
                    if len(cache_set) >= cache.assoc:
                        for victim in cache_set:
                            break
                        del cache_set[victim]
                cache_set[line] = None
                t += self._llc_latency * self._next_scale()
            if hit:
                self.llc_hits += 1
                where = LLC_HIT
            else:
                # An LLC miss, or a no-allocate streaming line (never
                # cached): one line read through its memory controller.
                self.llc_misses += 1
                where = DRAM
                mc = self.mcs[hashed % self._num_mcs]
                if mc[0] > t:
                    t = mc[0]
                service = self._mc_service
                t += service
                mc[0] = t
                mc[1] += service
                mc[2] += 1
                t += self._dram_latency * self._next_scale()

        # The response line crosses the NoC back to the SM.
        link = self.noc_response
        if link[0] > t:
            t = link[0]
        service = self._response_service
        t += service
        link[0] = t
        link[1] += service
        link[2] += 1
        return t + self._noc_latency, where

    def extra_stats(self, end_time: float) -> Dict[str, float]:
        """Diagnostics attached to the simulation result."""
        return {
            "noc_utilization": utilization(self.noc_response, end_time),
            "l1_merged": float(self.merged),
        }

    # --- boundary state --------------------------------------------------------
    def rng_state(self) -> int:
        """The scalar LCG state after the jitter draws made so far.

        One draw per non-bypass LLC probe (the slices count those) and
        per DRAM read (the controllers count those).
        """
        if not self._jitter:
            return _LCG_SEED
        draws = sum(s.hits + s.misses for s in self.llc_slices)
        draws += sum(mc[2] for mc in self.mcs)
        return lcg_jump(_LCG_SEED, draws)

    def state_dict(self) -> dict:
        """JSON-able snapshot of every stateful component and counter."""
        return {
            "l1s": [l1.state_dict() for l1 in self.l1s],
            "noc_request": queue_state(self.noc_request, self._request_bytes),
            "noc_response": queue_state(self.noc_response, self._line_size),
            "llc_slices": [s.state_dict() for s in self.llc_slices],
            "llc_ports": [queue_state(p) for p in self.llc_ports],
            "mcs": [queue_state(mc, self._line_size) for mc in self.mcs],
            "rng_state": self.rng_state(),
            "l1_hits": self.l1_hits,
            "l1_misses": self.l1_misses,
            "llc_hits": self.llc_hits,
            "llc_misses": self.llc_misses,
            "merged": self.merged,
        }
