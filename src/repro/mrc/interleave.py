"""GPU access-stream interleaving for miss-rate-curve collection.

The LLC does not see one thread's references in program order: it sees
the merge of thousands of concurrent warps.  Following the modelling
approach of Nugteren et al. [49], the collector reconstructs a plausible
LLC-side ordering from a functional trace:

* warps of one CTA issue round-robin (they progress in lockstep through
  the same kernel code);
* a window of concurrently resident CTAs — ``ctas_per_sm`` on each of
  ``num_virtual_sms`` virtual SMs — interleaves round-robin;
* each virtual SM's references are filtered through a functional model of
  its private L1 before entering the LLC stream.

The miss-rate curve is a per-workload artifact, so the interleaving uses
a fixed *reference* concurrency rather than any particular system size;
the default (16 virtual SMs) sits between the paper's scale models.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.exceptions import TraceError
from repro.trace.kernel import WorkloadTrace


def interleave_cta(warp_lines: List[np.ndarray]) -> np.ndarray:
    """Round-robin merge of one CTA's warp streams (unequal lengths ok)."""
    if not warp_lines:
        raise TraceError("cannot interleave an empty CTA")
    lengths = [len(w) for w in warp_lines]
    width = max(lengths)
    if width == 0:
        return np.empty(0, dtype=np.int64)
    if len(set(lengths)) == 1:
        stacked = np.stack(warp_lines)
        return stacked.T.reshape(-1)
    merged = np.full((width, len(warp_lines)), -1, dtype=np.int64)
    for i, lines in enumerate(warp_lines):
        merged[: len(lines), i] = lines
    flat = merged.reshape(-1)  # row-major: slot 0 of every warp, then slot 1...
    return flat[flat >= 0]


class StreamStats:
    """Accumulates trace totals during the single interleaving pass."""

    def __init__(self) -> None:
        self.warp_instructions = 0
        self.accesses = 0
        self.ctas = 0

    def thread_instructions(self, threads_per_warp: int = 32) -> int:
        return self.warp_instructions * threads_per_warp


def iter_interleaved(
    workload: WorkloadTrace,
    num_virtual_sms: int = 16,
    ctas_per_sm: int = 6,
    stats: "StreamStats" = None,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(virtual_sm, lines_chunk)`` in interleaved global order.

    CTAs are assigned to virtual SMs round-robin (mirroring the dispatch
    policy) in windows of ``num_virtual_sms * ctas_per_sm`` concurrent
    CTAs; within a window, CTA streams interleave in fine-grained chunks
    so the LLC sees their references mixed, as it would in hardware.
    """
    if num_virtual_sms < 1 or ctas_per_sm < 1:
        raise TraceError("need at least one virtual SM and one CTA slot")
    window_size = num_virtual_sms * ctas_per_sm
    chunk = 32  # references per CTA per interleave round
    for kernel in workload.kernels:
        compiled = kernel.compiled()
        if stats is not None:
            stats.warp_instructions += compiled.warp_instructions
            stats.accesses += len(compiled.lines)
            stats.ctas += kernel.num_ctas
        for start in range(0, kernel.num_ctas, window_size):
            window = [
                (cta_id % num_virtual_sms, interleave_cta(compiled.warp_lines(cta_id)))
                for cta_id in range(start, min(start + window_size, kernel.num_ctas))
            ]
            offset = 0
            remaining = True
            while remaining:
                remaining = False
                for vsm, lines in window:
                    piece = lines[offset : offset + chunk]
                    if len(piece):
                        remaining = True
                        yield vsm, piece
                offset += chunk
