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

from typing import Tuple

import numpy as np

from repro.exceptions import TraceError
from repro.trace.kernel import CompiledKernel, WorkloadTrace

#: References a CTA contributes per interleaving round.
CHUNK = 32


def interleaved_stream(
    workload: WorkloadTrace,
    num_virtual_sms: int = 16,
    ctas_per_sm: int = 6,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(virtual_sm, line)`` of every access, in interleaved global order.

    CTAs are assigned to virtual SMs round-robin (mirroring the dispatch
    policy) in windows of ``num_virtual_sms * ctas_per_sm`` concurrent
    CTAs; within a window the CTAs take turns, ``CHUNK`` references of
    their warp-interleaved stream at a time, so the LLC sees their
    references mixed, as it would in hardware.
    """
    if num_virtual_sms < 1 or ctas_per_sm < 1:
        raise TraceError("need at least one virtual SM and one CTA slot")
    window = num_virtual_sms * ctas_per_sm
    kernels = [kernel.compiled() for kernel in workload.kernels]
    total = sum(len(compiled.lines) for compiled in kernels)
    vsm = np.empty(total, dtype=np.int16)
    lines = np.empty(total, dtype=np.int64)
    done = 0
    for compiled in kernels:
        end = done + len(compiled.lines)
        _interleave(compiled, num_virtual_sms, window, vsm[done:end], lines[done:end])
        done = end
    return vsm, lines


def _interleave(
    compiled: CompiledKernel, num_virtual_sms: int, window: int,
    vsm: np.ndarray, lines: np.ndarray,
) -> None:
    """Fill ``vsm`` and ``lines`` with one kernel's interleaved stream."""
    merged, cta_lengths = _merge_warps(compiled)
    # The stream is a sequence of pieces — up to CHUNK references of one
    # CTA's merged stream — ordered [window, round, CTA of the window];
    # the last window is padded with CTAs of no accesses.
    num_windows = -(-len(cta_lengths) // window)
    rounds = -(-int(cta_lengths.max()) // CHUNK)
    padded = np.zeros(num_windows * window, dtype=np.intp)
    padded[: len(cta_lengths)] = cta_lengths
    in_window, round_, slot = np.indices((num_windows, rounds, window)).reshape(3, -1)
    cta = in_window * window + slot
    lengths = np.clip(padded[cta] - CHUNK * round_, 0, CHUNK)
    sources = (np.cumsum(padded) - padded)[cta] + CHUNK * round_
    order = np.repeat(sources - (np.cumsum(lengths) - lengths), lengths)
    order += np.arange(len(merged))
    np.take(merged, order, out=lines)
    vsm[:] = np.repeat((cta % num_virtual_sms).astype(vsm.dtype), lengths)


def _merge_warps(compiled: CompiledKernel) -> Tuple[np.ndarray, np.ndarray]:
    """The kernel's lines with each CTA's warps merged round-robin (unequal
    lengths ok) — slot 0 of every warp, then slot 1... — and the number of
    accesses of each CTA."""
    starts = compiled.warp_bounds[:-1]
    warp_lengths = np.diff(compiled.warp_bounds)
    warps = np.diff(compiled.cta_bounds)
    warp_cta = np.repeat(np.arange(len(warps)), warps)
    # Sort key (CTA, slot in the warp); slot = access index - warp start.
    # Stable, so warps keep their order within a slot and the CTAs stay
    # back to back.
    key = np.repeat(warp_cta * int(warp_lengths.max()) - starts, warp_lengths)
    key += np.arange(len(key))
    cta_lengths = np.bincount(warp_cta, weights=warp_lengths, minlength=len(warps))
    return compiled.lines[np.argsort(key, kind="stable")], cta_lengths.astype(np.intp)
