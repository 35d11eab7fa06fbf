"""The shared memory subsystem: L1s, NoC, sliced LLC and DRAM channels.

The subsystem resolves one warp-level memory access analytically: given the
issue time, it walks the resource chain (L1 → NoC → LLC slice → memory
controller → NoC) and returns the completion time.  Because the simulation
kernel delivers accesses in global time order, the FIFO next-free-time
bookkeeping in each resource is an exact queueing model.

Structure per the paper's Table III:

* one L1 per SM (never scaled), with MSHR merging of in-flight lines;
* a crossbar NoC modelled by its bisection bandwidth, with *separate
  request and response channels* (as in real GPU interconnects, and
  necessary here so that a response booked far in the future never blocks
  an earlier request — each channel sees near-time-ordered arrivals);
* the LLC split into address-interleaved slices, each with a tag-pipeline
  throughput server — concurrent accesses to the same slice serialize,
  which is the "camping" congestion mechanism the paper cites for
  sub-linear scaling;
* one bandwidth server per memory controller; lines map to MCs by address
  interleaving.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine.resource import BandwidthResource, FifoServer, TokenPool
from repro.gpu.cache import SetAssocCache
from repro.gpu.config import GPUConfig
from repro.gpu.dram import BankedDram
from repro.memory_regions import BYPASS_BASE

#: The latency-jitter LCG (Knuth's MMIX constants) and its output scale.
_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK_64 = 0xFFFFFFFFFFFFFFFF
_TWO_53 = float(1 << 53)

#: Result tags for where an access was served.
L1_HIT = 0
LLC_HIT = 1
DRAM = 2
MERGED = 3


class L1Cache:
    """Per-SM L1 with an MSHR file and in-flight miss merging."""

    def __init__(self, config: GPUConfig, sm_id: int) -> None:
        self.cache = SetAssocCache(
            num_sets=config.l1_sets,
            assoc=config.l1_assoc,
            name=f"l1-sm{sm_id}",
        )
        self.mshrs = TokenPool(config.l1_mshrs, name=f"mshr-sm{sm_id}")
        self.in_flight: Dict[int, float] = {}
        self.merged = 0

    def prune_in_flight(self, now: float) -> None:
        """Drop completed fills from the merge table (called sparingly)."""
        done = [line for line, t in self.in_flight.items() if t <= now]
        for line in done:
            del self.in_flight[line]

    def state_dict(self) -> dict:
        # JSON keys are strings, so the in-flight merge table travels as
        # (line, completion-time) pairs in insertion order.
        return {
            "cache": self.cache.state_dict(),
            "mshrs": self.mshrs.state_dict(),
            "in_flight": [[line, t] for line, t in self.in_flight.items()],
            "merged": self.merged,
        }


class MemorySubsystem:
    """All shared memory resources of one (monolithic) GPU."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.l1s: List[L1Cache] = [L1Cache(config, i) for i in range(config.num_sms)]
        self.noc_request = BandwidthResource(
            config.noc_bytes_per_cycle, name="noc-req"
        )
        self.noc_response = BandwidthResource(
            config.noc_bytes_per_cycle, name="noc-rsp"
        )
        sets = config.llc_sets_per_slice
        self.llc_slices: List[SetAssocCache] = [
            SetAssocCache(sets, config.llc_assoc, name=f"llc-slice{i}")
            for i in range(config.llc_slices)
        ]
        self.llc_ports: List[FifoServer] = [
            FifoServer(name=f"llc-port{i}") for i in range(config.llc_slices)
        ]
        self.mcs: List[BandwidthResource] = [
            BandwidthResource(config.mc_bytes_per_cycle, name=f"mc{i}")
            for i in range(config.num_mcs)
        ]
        self.banked_mcs: List[BankedDram] = (
            [
                BankedDram(
                    config.mc_bytes_per_cycle,
                    line_size=config.line_size,
                    name=f"mc{i}",
                )
                for i in range(config.num_mcs)
            ]
            if config.dram_model == "banked"
            else []
        )
        # Constants of the access path, bound once instead of read off
        # ``config`` per access.
        self._num_slices = config.llc_slices
        self._num_mcs = config.num_mcs
        self._slice_service = 1.0 / config.llc_slice_throughput
        self._line_size = config.line_size
        self._request_bytes = config.noc_request_bytes
        self._request_service = config.noc_request_bytes / self.noc_request.bytes_per_cycle
        self._response_service = config.line_size / self.noc_response.bytes_per_cycle
        self._mc_service = config.line_size / config.mc_bytes_per_cycle
        self._noc_latency = config.effective_noc_latency
        self._l1_hit_latency = config.l1_hit_latency
        self._llc_latency = config.llc_latency
        self._dram_latency = config.dram_latency
        # Deterministic LCG driving per-access latency jitter (see
        # GPUConfig.latency_jitter): reproducible, yet decorrelates warps.
        self._rng_state = 0x9E3779B97F4A7C15
        self._jitter = config.latency_jitter
        # Aggregate counters.
        self.l1_hits = 0
        self.l1_misses = 0
        self.llc_hits = 0
        self.llc_misses = 0
        self.merged = 0
        self._prune_countdown = 4096
        # Fault-injection seam (REPRO_FAULT_INJECT drop-miss directive):
        # while positive, L1 miss increments are silently swallowed —
        # the seeded model mutation the verify subsystem must catch.
        # Deliberately absent from state_dict: injected corruption is
        # not model state.
        self._drop_miss_budget = 0

    # --- address mapping -------------------------------------------------
    # Lines are hashed before interleaving (as real GPU memory systems
    # hash channel/slice selection): plain modulo lets strided streams
    # phase-lock onto one controller at a time — every warp walking lines
    # 4g..4g+3 hits MC (k mod 4) in lockstep at the 4-controller size,
    # which serializes the whole machine at that size only.
    @staticmethod
    def hash_line(line: int) -> int:
        h = (line * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        return h >> 20

    def slice_for(self, line: int) -> int:
        return self.hash_line(line) % len(self.llc_slices)

    def mc_for(self, line: int) -> int:
        return self.hash_line(line) % len(self.mcs)

    def warm_lines(self, base: int, count: int) -> None:
        """Pre-fill the LLC slices with ``count`` lines starting at ``base``
        (no latency, no statistics) — steady-state warm-up."""
        slices = self.llc_slices
        n = len(slices)
        for line in range(base, base + count):
            if line >= BYPASS_BASE:
                continue
            slices[self.hash_line(line) % n].fill(line)

    # --- the access path ----------------------------------------------------
    # Straight-line code (docs/ARCHITECTURE.md, "Hot path"): it inlines
    # SetAssocCache.access, TokenPool.acquire/hold, BandwidthResource.transfer
    # and FifoServer.service, writing the same fields of the same objects
    # those methods would.  The objects still own the state; the methods
    # are the reference the differential test replays against.
    def access(
        self,
        sm_id: int,
        line: int,
        now: float,
        llc_leg: Optional[Callable[[int, float], Tuple[float, int]]] = None,
    ) -> Tuple[float, int]:
        """Resolve one warp memory access to ``line`` issued at ``now``.

        Returns ``(completion_time, where)`` with ``where`` one of
        :data:`L1_HIT`, :data:`LLC_HIT`, :data:`DRAM`, :data:`MERGED`.

        ``llc_leg(line, t)`` replaces :meth:`llc_dram_path` between the
        request and response NoC hops of a primary miss: the multi-chiplet
        model passes a detour through the line's home chiplet.
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

        # Primary miss: wait for an MSHR, cross the NoC, probe the LLC side.
        t = now
        mshrs = l1.mshrs
        releases = mshrs._releases
        full = len(releases) >= mshrs.capacity
        if full:
            if releases[0] > now:
                t = releases[0]
            mshrs._wait_time += t - now
        t += self._l1_hit_latency
        link = self.noc_request
        if link._next_free > t:
            t = link._next_free
        service = self._request_service
        t += service
        link._next_free = t
        link._busy_time += service
        link._requests += 1
        link._bytes_moved += self._request_bytes
        t += self._noc_latency
        if llc_leg is None:
            t, where = self.llc_dram_path(line, t)
        else:
            t, where = llc_leg(line, t)

        # Response line crosses the NoC back to the SM and frees the MSHR.
        link = self.noc_response
        if link._next_free > t:
            t = link._next_free
        service = self._response_service
        t += service
        link._next_free = t
        link._busy_time += service
        link._requests += 1
        link._bytes_moved += self._line_size
        t += self._noc_latency
        in_flight[line] = t
        if full:
            heappop(releases)
        heappush(releases, t)
        mshrs._acquired += 1
        self._prune_countdown -= 1
        if self._prune_countdown <= 0:
            self._prune_countdown = 4096
            l1.prune_in_flight(now)
        return t, where

    def llc_dram_path(self, line: int, t: float) -> Tuple[float, int]:
        """LLC slice probe plus DRAM on a miss; the post-NoC leg of a request.

        Separate from :meth:`access` so the multi-chiplet model can route a
        remote request into its *home* chiplet's LLC/DRAM after crossing
        the inter-chiplet network.
        """
        hashed = ((line * 0x9E3779B97F4A7C15) & _MASK_64) >> 20  # hash_line
        slice_id = hashed % self._num_slices
        port = self.llc_ports[slice_id]
        if port._next_free > t:
            t = port._next_free
        service = self._slice_service
        t += service
        port._next_free = t
        port._busy_time += service
        port._requests += 1
        jitter = self._jitter
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
            scale = 1.0
            if jitter:
                state = self._rng_state = (
                    self._rng_state * _LCG_MUL + _LCG_INC
                ) & _MASK_64
                scale += jitter * (2.0 * ((state >> 11) / _TWO_53) - 1.0)
            t += self._llc_latency * scale
            if hit:
                self.llc_hits += 1
                return t, LLC_HIT
        # An LLC miss, or a no-allocate streaming line (never cached).
        self.llc_misses += 1

        # One line read through the configured memory backend.
        if self.banked_mcs:
            # Banked model: row-buffer state supplies the latency variation
            # (no synthetic jitter on top); a fixed controller overhead
            # stands in for command queues and the PHY.
            banked = self.banked_mcs[hashed % len(self.banked_mcs)]
            return banked.access(t, line) + 0.5 * self._dram_latency, DRAM
        mc = self.mcs[hashed % self._num_mcs]
        if mc._next_free > t:
            t = mc._next_free
        service = self._mc_service
        t += service
        mc._next_free = t
        mc._busy_time += service
        mc._requests += 1
        mc._bytes_moved += self._line_size
        scale = 1.0
        if jitter:
            state = self._rng_state = (
                self._rng_state * _LCG_MUL + _LCG_INC
            ) & _MASK_64
            scale += jitter * (2.0 * ((state >> 11) / _TWO_53) - 1.0)
        return t + self._dram_latency * scale, DRAM

    # --- statistics ------------------------------------------------------------
    @property
    def llc_accesses(self) -> int:
        return self.llc_hits + self.llc_misses

    @property
    def dram_accesses(self) -> int:
        return self.llc_misses

    def llc_miss_rate(self) -> float:
        total = self.llc_accesses
        if total == 0:
            return 0.0
        return self.llc_misses / total

    def extra_stats(self, end_time: float) -> Dict[str, float]:
        """Diagnostics attached to the simulation result."""
        return {
            "noc_utilization": self.noc_response.utilization(end_time),
            "l1_merged": float(self.merged),
        }

    # --- boundary state --------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able snapshot of every stateful component and counter."""
        return {
            "l1s": [l1.state_dict() for l1 in self.l1s],
            "noc_request": self.noc_request.state_dict(),
            "noc_response": self.noc_response.state_dict(),
            "llc_slices": [s.state_dict() for s in self.llc_slices],
            "llc_ports": [p.state_dict() for p in self.llc_ports],
            "mcs": [mc.state_dict() for mc in self.mcs],
            "banked_mcs": [b.state_dict() for b in self.banked_mcs],
            "rng_state": self._rng_state,
            "prune_countdown": self._prune_countdown,
            "l1_hits": self.l1_hits,
            "l1_misses": self.l1_misses,
            "llc_hits": self.llc_hits,
            "llc_misses": self.llc_misses,
            "merged": self.merged,
        }

    def stats(self) -> Dict[str, float]:
        return {
            "l1_hits": self.l1_hits,
            "l1_misses": self.l1_misses,
            "l1_merged": self.merged,
            "llc_hits": self.llc_hits,
            "llc_misses": self.llc_misses,
            "noc_bytes": self.noc_request.bytes_moved + self.noc_response.bytes_moved,
            "dram_bytes": sum(mc.bytes_moved for mc in self.mcs),
        }
