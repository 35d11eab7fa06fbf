"""GPU system configurations and proportional resource scaling.

This module encodes Table III (the 128-SM baseline), Table I (the scale
models and intermediate targets derived by *proportional resource
scaling*), and Table V (the 16-chiplet MCM target) of the paper.

Proportional scaling is the paper's first design rule: a scale model with
``F`` times fewer SMs gets an LLC ``F`` times smaller, a NoC with ``F``
times less bisection bandwidth and ``F`` times fewer memory controllers,
while every per-SM resource (warp slots, L1, issue width) is unchanged.
:meth:`GPUConfig.scaled` implements exactly that derivation.

Miniaturization
---------------
The paper simulates billions of instructions on a C++ simulator.  A pure
Python host cannot, so the whole *capacity* axis (cache sizes and workload
footprints alike) is shrunk by :data:`DEFAULT_CAPACITY_SCALE`.  Because
footprints and capacities shrink together, cliff positions — footprint
relative to LLC capacity, the thing the predictor keys on — are preserved.
All capacities reported to the user stay in paper units ("34 MB"); the
effective simulated capacity is ``nominal * capacity_scale``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from repro.exceptions import ConfigurationError
from repro.units import GBPS, GHZ, KB, MB, format_bandwidth, format_bytes

#: Capacity miniaturization factor (see module docstring).
DEFAULT_CAPACITY_SCALE = 0.125

#: System sizes used throughout the paper (SM counts).
PAPER_SYSTEM_SIZES: Tuple[int, ...] = (8, 16, 32, 64, 128)

#: The two scale models of the paper.
PAPER_SCALE_MODEL_SIZES: Tuple[int, ...] = (8, 16)

#: The target systems of the paper.
PAPER_TARGET_SIZES: Tuple[int, ...] = (32, 64, 128)

#: MCM system sizes (chiplet counts): two scale models and the target.
PAPER_MCM_SIZES: Tuple[int, ...] = (4, 8, 16)


@dataclass(frozen=True)
class GPUConfig:
    """A monolithic GPU system configuration.

    All capacities are *nominal* (paper-scale) bytes; the timing and
    functional models apply :attr:`capacity_scale` internally.  Bandwidths
    are bytes/second and are used at face value.
    """

    num_sms: int = 128
    sm_clock_hz: float = 1.0 * GHZ

    # Per-SM resources (identical across scale models and targets).
    warps_per_sm: int = 48
    threads_per_warp: int = 32
    max_threads_per_sm: int = 1536
    issue_width: int = 2  # warp instructions issued per SM per cycle

    # L1 (private, never scaled).
    l1_size: int = 48 * KB
    l1_assoc: int = 6
    l1_mshrs: int = 384
    l1_hit_latency: float = 30.0

    # Shared LLC (scaled proportionally).
    llc_size: int = 34 * MB
    llc_slices: int = 32
    llc_assoc: int = 64
    llc_latency: float = 90.0
    llc_slice_throughput: float = 1.0  # accesses per cycle per slice

    # NoC (crossbar bisection bandwidth, scaled proportionally).
    noc_bisection_bps: float = 2606.0 * GBPS
    noc_request_bytes: int = 32
    noc_latency: float = 20.0

    # DRAM (per-MC bandwidth fixed; MC count scaled proportionally).
    num_mcs: int = 16
    mc_bandwidth_bps: float = 145.0 * GBPS
    dram_latency: float = 350.0
    # Achievable fraction of peak DRAM bandwidth under GPU access streams
    # (row conflicts, bank contention, read/write turnaround).  Peak numbers
    # are what describe() reports; the timing model uses the effective rate.
    dram_efficiency: float = 0.55
    # Relative spread of LLC/DRAM access latency (bank conflicts, row hits
    # vs misses): each access sees latency * U(1 - j, 1 + j).  Besides
    # realism this decorrelates warp phases; without it, deterministic
    # latencies lock thousands of warps into synchronized request bursts.
    latency_jitter: float = 0.3

    line_size: int = 128
    capacity_scale: float = DEFAULT_CAPACITY_SCALE
    name: str = "gpu"

    def __post_init__(self) -> None:
        if self.num_sms < 1:
            raise ConfigurationError(f"num_sms must be >= 1, got {self.num_sms}")
        if self.llc_slices < 1:
            raise ConfigurationError(f"llc_slices must be >= 1, got {self.llc_slices}")
        if self.num_mcs < 1:
            raise ConfigurationError(f"num_mcs must be >= 1, got {self.num_mcs}")
        if not (0 <= self.latency_jitter < 1):
            raise ConfigurationError(
                f"latency_jitter must be in [0, 1), got {self.latency_jitter}"
            )
        if not (0 < self.dram_efficiency <= 1):
            raise ConfigurationError(
                f"dram_efficiency must be in (0, 1], got {self.dram_efficiency}"
            )
        if not (0 < self.capacity_scale <= 1):
            raise ConfigurationError(
                f"capacity_scale must be in (0, 1], got {self.capacity_scale}"
            )
        if self.max_threads_per_sm % self.threads_per_warp:
            raise ConfigurationError(
                "max_threads_per_sm must be a multiple of threads_per_warp"
            )

    # --- derived quantities ------------------------------------------------
    @property
    def dram_bandwidth_bps(self) -> float:
        """Aggregate memory bandwidth (bytes/second)."""
        return self.num_mcs * self.mc_bandwidth_bps

    @property
    def effective_llc_size(self) -> int:
        """LLC capacity actually simulated (after miniaturization)."""
        return max(self.line_size, int(self.llc_size * self.capacity_scale))

    @property
    def effective_l1_size(self) -> int:
        return max(self.line_size, int(self.l1_size * self.capacity_scale))

    @property
    def llc_sets_per_slice(self) -> int:
        """Simulated sets per slice (>= 1)."""
        slice_bytes = self.effective_llc_size // self.llc_slices
        return max(1, slice_bytes // (self.llc_assoc * self.line_size))

    @property
    def l1_sets(self) -> int:
        return max(1, self.effective_l1_size // (self.l1_assoc * self.line_size))

    def max_resident_ctas(self, threads_per_cta: int) -> int:
        """How many CTAs of the given size fit on one SM concurrently."""
        if threads_per_cta < 1:
            raise ConfigurationError(
                f"threads_per_cta must be >= 1, got {threads_per_cta}"
            )
        by_threads = self.max_threads_per_sm // threads_per_cta
        return max(1, by_threads)

    @property
    def noc_bytes_per_cycle(self) -> float:
        """Crossbar bisection bytes/cycle seen by the timing model."""
        return self.noc_bisection_bps / self.sm_clock_hz

    @property
    def mc_bytes_per_cycle(self) -> float:
        """Effective per-controller bytes/cycle seen by the timing model."""
        return self.dram_efficiency * self.mc_bandwidth_bps / self.sm_clock_hz

    # --- proportional scaling (Table I) -------------------------------------
    def scaled(self, num_sms: int) -> "GPUConfig":
        """Derive a proportionally scaled system with ``num_sms`` SMs.

        Shared resources (LLC capacity and slice count, NoC bisection
        bandwidth, memory-controller count) scale by ``num_sms /
        self.num_sms``; per-SM resources are untouched.  This is Table I's
        derivation rule applied to any baseline.
        """
        if num_sms < 1:
            raise ConfigurationError(f"num_sms must be >= 1, got {num_sms}")
        factor = num_sms / self.num_sms
        llc_slices = max(1, round(self.llc_slices * factor))
        num_mcs = max(1, round(self.num_mcs * factor))
        return replace(
            self,
            num_sms=num_sms,
            llc_size=int(round(self.llc_size * factor)),
            llc_slices=llc_slices,
            noc_bisection_bps=self.noc_bisection_bps * factor,
            num_mcs=num_mcs,
            name=f"{self.name}-{num_sms}sm",
        )

    # --- presentation ---------------------------------------------------------
    def describe(self) -> Dict[str, str]:
        """Table-I-style row describing this configuration."""
        return {
            "#SMs": str(self.num_sms),
            "LLC": f"{format_bytes(self.llc_size)}, {self.llc_slices} slices",
            "NoC bisection BW": format_bandwidth(self.noc_bisection_bps),
            "Main memory": (
                f"{format_bandwidth(self.dram_bandwidth_bps)}, {self.num_mcs} MCs, "
                f"{format_bandwidth(self.mc_bandwidth_bps)} per MC"
            ),
        }

    @classmethod
    def paper_baseline(cls, capacity_scale: float = DEFAULT_CAPACITY_SCALE) -> "GPUConfig":
        """The 128-SM baseline of Table III (and Table I's first row)."""
        return cls(capacity_scale=capacity_scale, name="paper-128sm")

    @classmethod
    def paper_system(
        cls, num_sms: int, capacity_scale: float = DEFAULT_CAPACITY_SCALE
    ) -> "GPUConfig":
        """A paper system (scale model or target) with ``num_sms`` SMs."""
        if num_sms not in PAPER_SYSTEM_SIZES:
            raise ConfigurationError(
                f"paper systems have {PAPER_SYSTEM_SIZES} SMs, got {num_sms}"
            )
        return cls.paper_baseline(capacity_scale).scaled(num_sms)


@dataclass(frozen=True)
class McmConfig:
    """A multi-chip-module (MCM) GPU: Table V of the paper.

    The scale-model rule for MCM systems fixes the *chiplet* configuration
    and scales the package-level shared resources — the inter-chiplet
    network bisection bandwidth — with the chiplet count, while aggregate
    memory bandwidth and SM count scale linearly because each chiplet
    carries its own LLC and memory controllers.
    """

    num_chiplets: int = 16
    chiplet: GPUConfig = field(
        default_factory=lambda: GPUConfig(
            num_sms=64,
            sm_clock_hz=1.7 * GHZ,
            llc_size=18 * MB,
            llc_slices=64,
            noc_bisection_bps=1700.0 * GBPS,
            num_mcs=8,
            mc_bandwidth_bps=150.0 * GBPS,  # 8 MCs x 150 GB/s = 1.2 TB/s per chiplet
            name="chiplet",
        )
    )
    inter_chiplet_bw_per_chiplet_bps: float = 900.0 * GBPS
    inter_chiplet_latency: float = 80.0
    page_size: int = 4 * KB
    name: str = "mcm"

    def __post_init__(self) -> None:
        if self.num_chiplets < 1:
            raise ConfigurationError(
                f"num_chiplets must be >= 1, got {self.num_chiplets}"
            )
        if self.page_size < self.chiplet.line_size:
            raise ConfigurationError("page_size must be >= cache line size")

    @property
    def total_sms(self) -> int:
        return self.num_chiplets * self.chiplet.num_sms

    def scaled(self, num_chiplets: int) -> "McmConfig":
        """Derive a scale model with ``num_chiplets`` chiplets.

        The chiplet itself is fixed; the per-chiplet inter-chiplet
        bandwidth is held constant so the package *bisection* bandwidth
        scales with chiplet count — the MCM analogue of Table I.
        """
        if num_chiplets < 1:
            raise ConfigurationError(
                f"num_chiplets must be >= 1, got {num_chiplets}"
            )
        return replace(self, num_chiplets=num_chiplets, name=f"{self.name}-{num_chiplets}c")

    def describe(self) -> Dict[str, str]:
        """Table-V-style description of this MCM system."""
        return {
            "#chiplets": str(self.num_chiplets),
            "#SMs/chiplet": str(self.chiplet.num_sms),
            "SM clock": f"{self.chiplet.sm_clock_hz / GHZ:g} GHz",
            "LLC per chiplet": format_bytes(self.chiplet.llc_size),
            "Intra-chiplet NoC": format_bandwidth(self.chiplet.noc_bisection_bps),
            "Inter-chiplet NoC": (
                f"{format_bandwidth(self.inter_chiplet_bw_per_chiplet_bps)} per chiplet"
            ),
            "Memory": (
                f"{self.chiplet.num_mcs} MCs, "
                f"{format_bandwidth(self.chiplet.dram_bandwidth_bps)} per chiplet"
            ),
        }

    @classmethod
    def paper_target(cls) -> "McmConfig":
        """The 16-chiplet, 1,024-SM target of Table V."""
        return cls()
