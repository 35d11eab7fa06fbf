"""Multi-chip-module (MCM) GPU model — the paper's Section VII-D substrate.

An MCM GPU packages several chiplets, each a complete GPU (SMs, L1s,
intra-chiplet crossbar, LLC slices, memory controllers), connected by an
inter-chiplet network.  Following Table V:

* CTAs are scheduled *distributed*: round-robin across all SMs of all
  chiplets (the flat dispatcher already does this when SMs are numbered
  chiplet-major);
* pages are placed *first touch*: the first chiplet to access a page
  becomes its home; later accesses from other chiplets cross the
  inter-chiplet network in both directions;
* each chiplet owns ingress/egress inter-chiplet bandwidth
  (``inter_chiplet_bw_per_chiplet``), so package bisection bandwidth
  scales with chiplet count — the proportional-scaling rule that makes
  4- and 8-chiplet systems valid scale models of the 16-chiplet target.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gpu.config import GPUConfig, McmConfig
from repro.gpu.fifo import new_queue, queue_state, serve, utilization
from repro.gpu.gpu import BoundaryHook, GPUSimulator
from repro.gpu.memory import MemorySubsystem, hash_lines
from repro.gpu.results import SimulationResult
from repro.trace.kernel import WorkloadTrace
from repro.validate import validate_mcm_config


class McmMemory:
    """Memory backend routing accesses across chiplets with first-touch pages."""

    def __init__(self, config: McmConfig) -> None:
        self.config = validate_mcm_config(config)
        self.subsystems: List[MemorySubsystem] = [
            MemorySubsystem(config.chiplet) for _ in range(config.num_chiplets)
        ]
        chiplet = config.chiplet
        bytes_per_cycle = config.inter_chiplet_bw_per_chiplet_bps / chiplet.sm_clock_hz
        # Separate request/response link queues (repro.gpu.fifo) per
        # chiplet so late response bookings never block earlier requests
        # (see repro.gpu.memory).
        self.links_request = [new_queue() for _ in range(config.num_chiplets)]
        self.links_response = [new_queue() for _ in range(config.num_chiplets)]
        self.page_home: Dict[int, int] = {}
        self._lines_per_page = max(1, config.page_size // chiplet.line_size)
        self._sms_per_chiplet = chiplet.num_sms
        self._line_size = chiplet.line_size
        self._request_bytes = chiplet.noc_request_bytes
        self._request_service = chiplet.noc_request_bytes / bytes_per_cycle
        self._response_service = chiplet.line_size / bytes_per_cycle
        self.remote_accesses = 0
        self.local_accesses = 0

    # --- placement ----------------------------------------------------------
    def home_of(self, line: int, toucher: int) -> int:
        """Home chiplet of the page holding ``line`` (first touch wins)."""
        page = line // self._lines_per_page
        home = self.page_home.get(page)
        if home is None:
            self.page_home[page] = toucher
            return toucher
        return home

    def warm_lines(self, base: int, count: int) -> None:
        """Pre-fill every chiplet's LLC home slice with the hot region.

        First-touch pages are not assigned here; warming only loads the
        cache arrays, so the first toucher still becomes the page home.
        """
        lines = np.arange(base, base + count)
        for line, hashed in zip(lines.tolist(), hash_lines(lines).tolist()):
            home = self.page_home.get(line // self._lines_per_page)
            if home is None:
                continue
            slices = self.subsystems[home].llc_slices
            slices[hashed % len(slices)].fill(line)

    # --- the access path ----------------------------------------------------
    def access(
        self, sm_id: int, line: int, hashed: int, now: float
    ) -> Tuple[float, int]:
        """Resolve a memory access from a (globally numbered) SM.

        ``hashed`` is the line's address hash; the home chiplet's LLC and
        DRAM interleave on it like the local ones.
        """
        chiplet_id = sm_id // self._sms_per_chiplet
        local_sm = sm_id % self._sms_per_chiplet
        local = self.subsystems[chiplet_id]
        home_id = self.home_of(line, chiplet_id)
        if home_id == chiplet_id:
            self.local_accesses += 1
            return local.access(local_sm, line, hashed, now)

        # Remote access: the local chiplet's own access path (L1, MSHR,
        # local NoC both ways) around a detour to the home chiplet.
        self.remote_accesses += 1
        return local.access(
            local_sm, line, hashed, now,
            partial(self._home_leg, chiplet_id, home_id),
        )

    def _home_leg(
        self, chiplet_id: int, home_id: int, line: int, hashed: int, t: float
    ) -> Tuple[float, int]:
        """The inter-chiplet round trip: the request link, the home
        chiplet's shared path (its NoC, LLC and DRAM), the response link."""
        hop = self.config.inter_chiplet_latency
        t = serve(self.links_request[chiplet_id], t, self._request_service) + hop
        t, where = self.subsystems[home_id].shared_path(line, hashed, t)
        t = serve(self.links_response[home_id], t, self._response_service)
        return t + hop, where

    # --- aggregate statistics ----------------------------------------------
    @property
    def l1_hits(self) -> int:
        return sum(s.l1_hits for s in self.subsystems)

    @property
    def l1_misses(self) -> int:
        return sum(s.l1_misses for s in self.subsystems)

    @property
    def llc_hits(self) -> int:
        return sum(s.llc_hits for s in self.subsystems)

    @property
    def llc_misses(self) -> int:
        return sum(s.llc_misses for s in self.subsystems)

    @property
    def merged(self) -> int:
        return sum(s.merged for s in self.subsystems)

    # --- boundary state --------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able snapshot: per-chiplet subsystems, links, page table."""
        return {
            "subsystems": [s.state_dict() for s in self.subsystems],
            "links_request": [
                queue_state(link, self._request_bytes) for link in self.links_request
            ],
            "links_response": [
                queue_state(link, self._line_size) for link in self.links_response
            ],
            "page_home": [[page, home] for page, home in self.page_home.items()],
            "remote_accesses": self.remote_accesses,
            "local_accesses": self.local_accesses,
        }

    def extra_stats(self, end_time: float) -> Dict[str, float]:
        total = self.remote_accesses + self.local_accesses
        link_util = max(
            (utilization(link, end_time) for link in self.links_response),
            default=0.0,
        )
        return {
            "remote_fraction": self.remote_accesses / total if total else 0.0,
            "max_xlink_utilization": link_util,
            "pages_placed": float(len(self.page_home)),
        }


def _flat_config(config: McmConfig) -> GPUConfig:
    """A flat SM-side view of the MCM package for the core simulator loop."""
    return replace(
        config.chiplet,
        num_sms=config.total_sms,
        name=f"{config.name}-{config.num_chiplets}c",
    )


class McmSimulator:
    """Runs workloads on an MCM GPU configuration."""

    def __init__(self, config: McmConfig) -> None:
        self.config = config
        self.memory = McmMemory(config)  # validates the package first
        self._core = GPUSimulator(_flat_config(config), memory=self.memory)

    def run(
        self, workload: WorkloadTrace, on_boundary: Optional[BoundaryHook] = None
    ) -> SimulationResult:
        result = self._core.run(workload, on_boundary=on_boundary)
        extra = dict(result.extra)
        extra["num_chiplets"] = float(self.config.num_chiplets)
        return replace(result, extra=extra)


def simulate_mcm(config: McmConfig, workload: WorkloadTrace) -> SimulationResult:
    """Convenience wrapper: simulate ``workload`` on an MCM configuration."""
    return McmSimulator(config).run(workload)
