"""Trace data types: a kernel's CTAs as flat arrays, kernels and workloads."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable, List, Sequence

import numpy as np

from repro.exceptions import TraceError


@dataclass(eq=False)
class CompiledKernel:
    """Every CTA of one kernel, generated once, as flat arrays.

    Warps are numbered in CTA-then-warp order.  Warp ``w`` owns accesses
    ``warp_bounds[w]:warp_bounds[w + 1]``: ``compute[i]`` warp
    instructions run before access ``i`` touches line ``lines[i]``, and
    ``tails[w]`` run after the last one.  The warp starts ``offsets[w]``
    cycles late (launch stagger: no instructions, invisible to MRC
    replay).  CTA ``c`` owns warps ``cta_bounds[c]:cta_bounds[c + 1]``.
    The arrays are shared by every reader; readers only read.
    """

    lines: np.ndarray
    compute: np.ndarray
    warp_bounds: np.ndarray
    tails: np.ndarray
    offsets: np.ndarray
    cta_bounds: np.ndarray

    @classmethod
    def from_warps(cls, ctas: Sequence[Sequence[tuple]]) -> "CompiledKernel":
        """Pack hand-written CTAs, each a list of warps, each warp a
        ``(compute, lines, tail, offset)`` tuple."""
        if not ctas:
            raise TraceError("a kernel needs at least one CTA")
        for cta_id, cta in enumerate(ctas):
            if not cta:
                raise TraceError(f"CTA {cta_id} has no warps")
        warps = [warp for cta in ctas for warp in cta]
        for warp_id, (compute, lines, _, _) in enumerate(warps):
            if len(compute) != len(lines):
                raise TraceError(f"warp {warp_id}: compute and lines must "
                                 "have equal length")
        return cls(
            _whole([v for w in warps for v in w[1]], "line address"),
            _whole([v for w in warps for v in w[0]], "compute burst"),
            np.cumsum([0] + [len(w[1]) for w in warps]),
            _whole([w[2] for w in warps], "tail"),
            np.asarray([w[3] for w in warps], dtype=np.float64),
            np.cumsum([0] + [len(cta) for cta in ctas]),
        )

    @property
    def warp_instructions(self) -> int:
        """Total warp instructions: compute bursts + memory instructions."""
        return int(self.compute.sum()) + len(self.lines) + int(self.tails.sum())


def _whole(values: list, what: str) -> np.ndarray:
    """``values`` as int64, or :class:`TraceError` naming a non-integer."""
    array = np.asarray(values)
    if array.dtype.kind not in "iu":
        for value in values:
            if not (isinstance(value, Real) and math.isfinite(value)
                    and value == int(value)):
                raise TraceError(f"invalid {what} {value!r} (need a whole number)")
    return array.astype(np.int64)


@dataclass
class KernelTrace:
    """A kernel launch: ``compiled()`` returns its CTAs as arrays.

    Generators pass a lazy accessor, so a kernel is generated on first
    use; every call must return the same contents.
    """

    name: str
    threads_per_cta: int
    compiled: Callable[[], CompiledKernel]

    def __post_init__(self) -> None:
        if self.threads_per_cta < 1:
            raise TraceError(f"kernel {self.name}: threads_per_cta must be >= 1")

    @property
    def num_ctas(self) -> int:
        return len(self.compiled().cta_bounds) - 1


@dataclass
class WorkloadTrace:
    """A full benchmark run: kernels executed back to back."""

    name: str
    kernels: List[KernelTrace]
    footprint_bytes: int = 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kernels:
            raise TraceError(f"workload {self.name} has no kernels")

    @property
    def num_ctas(self) -> int:
        return sum(k.num_ctas for k in self.kernels)

    def count_instructions(self, threads_per_warp: int = 32) -> int:
        """Total thread instructions; generates every CTA."""
        warp_instructions = sum(k.compiled().warp_instructions for k in self.kernels)
        return warp_instructions * threads_per_warp

    def count_accesses(self) -> int:
        """Total warp-level memory accesses; generates every CTA."""
        return sum(len(k.compiled().lines) for k in self.kernels)


def trace_digest(workload: WorkloadTrace) -> str:
    """``sha256:<hex>`` over the full trace content.

    Hashes every warp's line and compute arrays plus its tail and launch
    offset.  Two traces digest equally iff a simulator would replay
    identical streams — the determinism contract of
    :func:`repro.workloads.generators.build_trace` made checkable
    across processes and hosts.
    """
    hasher = hashlib.sha256()
    for kernel in workload.kernels:
        compiled = kernel.compiled()
        hasher.update(
            repr((kernel.name, kernel.num_ctas, kernel.threads_per_cta)).encode()
        )
        bounds = compiled.warp_bounds.tolist()
        for lo, hi, tail, offset in zip(
            bounds, bounds[1:], compiled.tails.tolist(), compiled.offsets.tolist()
        ):
            hasher.update(compiled.lines[lo:hi].tobytes())
            hasher.update(compiled.compute[lo:hi].tobytes())
            hasher.update(repr((tail, offset)).encode())
    return "sha256:" + hasher.hexdigest()
