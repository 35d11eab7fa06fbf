"""Workload traces: the interface between benchmarks and simulators.

A workload is a sequence of kernels; a kernel is a grid of CTAs; a CTA is
a handful of warps; a warp trace is an alternating sequence of compute
bursts and memory accesses at cache-line granularity.  Traces are built
lazily and deterministically — ``build_cta(cta_id)`` always returns the
same trace for the same spec and seed — so the timing simulator and the
miss-rate-curve collector replay identical streams.  Generated kernels
are held as flat arrays (:class:`~repro.trace.kernel.CompiledKernel`),
never as Python objects per access.
"""

from repro.trace.kernel import CTATrace, KernelTrace, WarpTrace, WorkloadTrace
from repro.trace import patterns
from repro.trace.io import trace_digest

__all__ = [
    "WarpTrace",
    "CTATrace",
    "KernelTrace",
    "WorkloadTrace",
    "patterns",
    "trace_digest",
]
