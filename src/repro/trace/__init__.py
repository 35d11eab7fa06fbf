"""Workload traces: the interface between benchmarks and simulators.

A workload is a sequence of kernels; a kernel is a grid of CTAs; a CTA is
a handful of warps; a warp alternates compute bursts and memory accesses
at cache-line granularity.  Each kernel is held as flat arrays
(:class:`~repro.trace.kernel.CompiledKernel`), never as Python objects
per access, generated lazily and deterministically on first use, so the
timing simulator and the miss-rate-curve collector replay identical
streams.
"""

from repro.trace.kernel import CompiledKernel, KernelTrace, WorkloadTrace, trace_digest
from repro.trace import patterns

__all__ = [
    "CompiledKernel",
    "KernelTrace",
    "WorkloadTrace",
    "patterns",
    "trace_digest",
]
