"""Sieve-style stratified kernel sampling (Naderan-Tahan et al. [47]).

The paper traces MLPerf workloads with tens of thousands of kernel
invocations and uses the *Sieve* methodology to pick representative
invocations: kernels are grouped into strata by execution signature, one
representative is simulated per stratum, and each representative's
contribution is weighted by its stratum's total work.

This module provides the same facility for this repository's traces:

>>> plan = sieve_sample(workload, max_strata=4)
>>> reduced = plan.reduced_workload()        # simulate this instead
>>> est = plan.estimate_cycles({...})        # weight results back up

Stratification uses the kernels' static signature (warp instructions,
memory accesses, access density) with a deterministic 1-D quantile
clustering — no randomness, no training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import math

from repro.exceptions import TraceError
from repro.trace.kernel import KernelTrace, WorkloadTrace


@dataclass(frozen=True)
class KernelSignature:
    """Static per-kernel execution signature used for stratification."""

    index: int
    name: str
    warp_instructions: int
    accesses: int

    @property
    def access_density(self) -> float:
        if self.warp_instructions == 0:
            return 0.0
        return self.accesses / self.warp_instructions

    def feature(self) -> float:
        """1-D stratification feature: log-work x density blend."""
        work = math.log2(max(1, self.warp_instructions))
        return work + self.access_density


@dataclass
class SievePlan:
    """A stratified sampling plan over one workload's kernels."""

    workload: WorkloadTrace
    signatures: List[KernelSignature]
    strata: List[List[int]]            # kernel indices per stratum
    representatives: List[int]         # one kernel index per stratum

    @property
    def weights(self) -> List[float]:
        """Work-share weight of each representative's stratum."""
        total = sum(s.warp_instructions for s in self.signatures)
        out = []
        for members in self.strata:
            stratum_work = sum(
                self.signatures[i].warp_instructions for i in members
            )
            out.append(stratum_work / total if total else 0.0)
        return out

    def reduced_workload(self) -> WorkloadTrace:
        """A workload containing only the representative kernels."""
        kernels = [self.workload.kernels[i] for i in self.representatives]
        return WorkloadTrace(
            name=f"{self.workload.name}-sieve",
            kernels=kernels,
            footprint_bytes=self.workload.footprint_bytes,
            metadata={**self.workload.metadata, "sieve": True},
        )

    def estimate_cycles(self, representative_cycles: Mapping[int, float]) -> float:
        """Scale representative cycle counts back to the full workload.

        ``representative_cycles`` maps kernel index (as in
        :attr:`representatives`) to its simulated cycle count; each is
        scaled by its stratum's work relative to the representative's own.
        """
        total = 0.0
        for members, rep in zip(self.strata, self.representatives):
            if rep not in representative_cycles:
                raise TraceError(f"missing cycles for representative {rep}")
            rep_work = self.signatures[rep].warp_instructions
            stratum_work = sum(
                self.signatures[i].warp_instructions for i in members
            )
            scale = stratum_work / rep_work if rep_work else 0.0
            total += representative_cycles[rep] * scale
        return total

    @property
    def reduction_factor(self) -> float:
        """Simulated-work reduction of the plan (>= 1)."""
        total = sum(s.warp_instructions for s in self.signatures)
        kept = sum(
            self.signatures[i].warp_instructions for i in self.representatives
        )
        return total / kept if kept else float("inf")


def kernel_signature(index: int, kernel: KernelTrace) -> KernelSignature:
    """Compute one kernel's signature from its compiled arrays."""
    compiled = kernel.compiled()
    return KernelSignature(
        index=index,
        name=kernel.name,
        warp_instructions=compiled.warp_instructions,
        accesses=len(compiled.lines),
    )


def sieve_sample(workload: WorkloadTrace, max_strata: int = 4) -> SievePlan:
    """Build a stratified sampling plan with at most ``max_strata`` strata.

    Kernels are ordered by their 1-D feature and cut into equal-width
    quantile strata; the kernel with the largest work inside each stratum
    becomes its representative (it dominates the stratum's contribution).
    """
    if max_strata < 1:
        raise TraceError(f"max_strata must be >= 1, got {max_strata}")
    signatures = [
        kernel_signature(i, k) for i, k in enumerate(workload.kernels)
    ]
    order = sorted(range(len(signatures)), key=lambda i: signatures[i].feature())
    num_strata = min(max_strata, len(order))
    strata: List[List[int]] = [[] for __ in range(num_strata)]
    for rank, idx in enumerate(order):
        strata[rank * num_strata // len(order)].append(idx)
    strata = [s for s in strata if s]
    representatives = [
        max(members, key=lambda i: signatures[i].warp_instructions)
        for members in strata
    ]
    return SievePlan(
        workload=workload,
        signatures=signatures,
        strata=strata,
        representatives=representatives,
    )
