"""Throughput-bound analytical model (roofline-style, MLP-aware).

Model inputs are per-workload summary statistics — instructions per
memory access and the L1/LLC miss rates — plus the machine configuration.
Four first-order bounds on aggregate IPC (thread instructions/cycle):

* **issue**:   ``num_sms * issue_width * threads_per_warp``;
* **latency**: each warp sustains one access per (burst + avg latency)
  cycles; with ``W`` warps per SM the machine sustains
  ``num_sms * W / (burst + latency)`` accesses/cycle (Little's law),
  times instructions per access;
* **noc**:     every L1 miss moves a request plus a response line across
  the NoC bisection;
* **dram**:    every LLC miss moves one line through the effective DRAM
  bandwidth.

The predicted IPC is the minimum; the binding bound names the workload's
bottleneck, which maps directly onto the paper's scaling taxonomy
(issue-bound -> linear, DRAM-bound with a fitting working set ->
super-linear once the cliff is crossed, and so on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.exceptions import PredictionError
from repro.gpu.config import GPUConfig
from repro.gpu.results import SimulationResult


@dataclass(frozen=True)
class WorkloadStats:
    """Per-workload summary statistics consumed by the model."""

    instructions_per_access: float  # thread instructions per warp access
    l1_miss_rate: float
    llc_miss_rate: float            # misses per LLC access

    def __post_init__(self) -> None:
        if self.instructions_per_access <= 0:
            raise PredictionError("instructions_per_access must be positive")
        for name in ("l1_miss_rate", "llc_miss_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise PredictionError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class AnalyticalEstimate:
    """Bound breakdown and the resulting IPC prediction."""

    bounds: Dict[str, float]
    ipc: float
    bottleneck: str

    def as_text(self) -> str:
        rows = "\n".join(
            f"  {name:8s} {value:10.1f}" + ("  <- binding" if name == self.bottleneck else "")
            for name, value in sorted(self.bounds.items(), key=lambda kv: kv[1])
        )
        return f"analytical IPC bounds:\n{rows}\npredicted IPC: {self.ipc:.1f}"


def stats_from_result(result: SimulationResult) -> WorkloadStats:
    """Summarize a simulation result into model inputs."""
    if result.memory_accesses == 0:
        raise PredictionError("workload performed no memory accesses")
    return WorkloadStats(
        instructions_per_access=(
            result.thread_instructions / result.memory_accesses
        ),
        l1_miss_rate=result.l1_miss_rate,
        llc_miss_rate=result.llc_miss_rate,
    )


def analyze(
    config: GPUConfig,
    stats: WorkloadStats,
    avg_memory_latency: float = None,
) -> AnalyticalEstimate:
    """Compute the four bounds and the predicted IPC."""
    threads = config.threads_per_warp
    ipa = stats.instructions_per_access

    issue_bound = config.num_sms * config.issue_width * threads

    if avg_memory_latency is None:
        hit = config.l1_hit_latency
        llc = (
            config.l1_hit_latency
            + 2 * config.noc_latency
            + config.llc_latency
        )
        dram = llc + config.dram_latency
        p_l1 = 1.0 - stats.l1_miss_rate
        p_llc = stats.l1_miss_rate * (1.0 - stats.llc_miss_rate)
        p_dram = stats.l1_miss_rate * stats.llc_miss_rate
        avg_memory_latency = p_l1 * hit + p_llc * llc + p_dram * dram
    burst = (ipa / threads) / config.issue_width
    accesses_per_cycle = (
        config.num_sms * config.warps_per_sm / (burst + avg_memory_latency)
    )
    latency_bound = accesses_per_cycle * ipa

    line = config.line_size
    request = config.noc_request_bytes
    noc_bytes_per_access = stats.l1_miss_rate * (line + request)
    if noc_bytes_per_access > 0:
        noc_bound = config.noc_bytes_per_cycle / noc_bytes_per_access * ipa
    else:
        noc_bound = float("inf")

    dram_bytes_per_access = stats.l1_miss_rate * stats.llc_miss_rate * line
    if dram_bytes_per_access > 0:
        total_dram = config.num_mcs * config.mc_bytes_per_cycle
        dram_bound = total_dram / dram_bytes_per_access * ipa
    else:
        dram_bound = float("inf")

    bounds = {
        "issue": issue_bound,
        "latency": latency_bound,
        "noc": noc_bound,
        "dram": dram_bound,
    }
    bottleneck = min(bounds, key=bounds.get)
    return AnalyticalEstimate(
        bounds=bounds, ipc=bounds[bottleneck], bottleneck=bottleneck
    )
