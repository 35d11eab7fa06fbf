"""Trace data types: warp, CTA, kernel and workload."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional

import numpy as np

from repro.exceptions import TraceError


@dataclass
class WarpTrace:
    """The execution trace of one warp.

    ``compute[i]`` warp instructions execute before memory access ``i``
    touches line ``lines[i]``; ``tail_compute`` warp instructions run after
    the final access.  All counts are *warp* instructions (multiply by the
    threads-per-warp of the machine to get thread instructions).

    ``start_offset`` is a launch delay in cycles before the warp issues its
    first instruction (scheduler and launch-overhead stagger).  It executes
    no instructions and is invisible to functional (MRC) replay.
    """

    compute: List[int]
    lines: List[int]
    tail_compute: int = 0
    start_offset: float = 0.0

    def __post_init__(self) -> None:
        if len(self.compute) != len(self.lines):
            raise TraceError(
                f"compute ({len(self.compute)}) and lines ({len(self.lines)}) "
                "must have equal length"
            )
        if self.tail_compute < 0:
            raise TraceError(f"tail_compute must be >= 0, got {self.tail_compute}")
        if self.start_offset < 0:
            raise TraceError(f"start_offset must be >= 0, got {self.start_offset}")

    @property
    def num_accesses(self) -> int:
        return len(self.lines)

    @property
    def warp_instructions(self) -> int:
        """Total warp instructions: compute bursts + memory instructions."""
        return sum(self.compute) + len(self.lines) + self.tail_compute


@dataclass
class CTATrace:
    """One cooperative thread array: a list of warp traces."""

    cta_id: int
    warps: List[WarpTrace]

    def __post_init__(self) -> None:
        if not self.warps:
            raise TraceError(f"CTA {self.cta_id} has no warps")

    @property
    def num_warps(self) -> int:
        return len(self.warps)

    @property
    def warp_instructions(self) -> int:
        return sum(w.warp_instructions for w in self.warps)

    @property
    def num_accesses(self) -> int:
        return sum(w.num_accesses for w in self.warps)


@dataclass(eq=False)
class CompiledKernel:
    """Every CTA of one kernel, generated once, as flat arrays.

    Warps are numbered in CTA-then-warp order.  Warp ``w`` owns
    ``lines[warp_bounds[w]:warp_bounds[w + 1]]`` (``compute`` alike),
    runs ``tails[w]`` warp instructions after its last access and starts
    ``offsets[w]`` cycles late; CTA ``c`` owns warps
    ``cta_bounds[c]:cta_bounds[c + 1]``.  The arrays are shared by every
    reader and never handed out: :meth:`build_cta` copies one CTA into
    fresh Python lists per call; array-at-a-time readers only read.
    """

    lines: np.ndarray
    compute: np.ndarray
    warp_bounds: np.ndarray
    tails: np.ndarray
    offsets: np.ndarray
    cta_bounds: np.ndarray

    @classmethod
    def from_ctas(cls, ctas: Iterable[CTATrace]) -> "CompiledKernel":
        """Materialise CTAs that only exist as Python-list traces."""
        lines, compute, lengths, tails, offsets, counts = [], [], [], [], [], []
        for cta in ctas:
            counts.append(len(cta.warps))
            for warp in cta.warps:
                lines.append(np.asarray(warp.lines, dtype=np.int64))
                compute.append(np.asarray(warp.compute, dtype=np.int64))
                lengths.append(len(warp.lines))
                tails.append(warp.tail_compute)
                offsets.append(warp.start_offset)
        return cls(
            np.concatenate(lines),
            np.concatenate(compute),
            np.concatenate(([0], np.cumsum(lengths))),
            np.asarray(tails, dtype=np.int64),
            np.asarray(offsets, dtype=np.float64),
            np.concatenate(([0], np.cumsum(counts))),
        )

    @property
    def warp_instructions(self) -> int:
        """Total warp instructions: compute bursts + memory instructions."""
        return int(self.compute.sum()) + len(self.lines) + int(self.tails.sum())

    def build_cta(self, cta_id: int) -> CTATrace:
        first, last = self.cta_bounds[cta_id : cta_id + 2].tolist()
        bounds = self.warp_bounds[first : last + 1].tolist()
        base = bounds[0]
        lines = self.lines[base : bounds[-1]].tolist()
        compute = self.compute[base : bounds[-1]].tolist()
        tails = self.tails[first:last].tolist()
        offsets = self.offsets[first:last].tolist()
        return CTATrace(cta_id, [
            WarpTrace(
                compute[lo - base : hi - base], lines[lo - base : hi - base],
                tail_compute=tail, start_offset=offset,
            )
            for lo, hi, tail, offset in zip(bounds, bounds[1:], tails, offsets)
        ])


@dataclass
class KernelTrace:
    """A kernel launch: ``num_ctas`` CTAs built on demand.

    ``build_cta`` must be deterministic in ``cta_id``; simulators may call
    it multiple times (timing run, MRC collection) and rely on identical
    results.  ``compiled()`` returns the kernel as flat arrays, for
    array-at-a-time readers: a producer that holds such arrays passes a
    (lazy) accessor for them, otherwise they are built from ``build_cta``.
    """

    name: str
    num_ctas: int
    threads_per_cta: int
    build_cta: Callable[[int], CTATrace]
    compiled: Optional[Callable[[], CompiledKernel]] = None

    def __post_init__(self) -> None:
        if self.num_ctas < 1:
            raise TraceError(f"kernel {self.name}: num_ctas must be >= 1")
        if self.threads_per_cta < 1:
            raise TraceError(f"kernel {self.name}: threads_per_cta must be >= 1")
        if self.compiled is None:
            self.compiled = lambda: CompiledKernel.from_ctas(self.iter_ctas())

    @property
    def warps_per_cta(self) -> int:
        return max(1, self.threads_per_cta // 32)

    def iter_ctas(self) -> Iterator[CTATrace]:
        for cta_id in range(self.num_ctas):
            yield self.build_cta(cta_id)


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

    def iter_accesses(self) -> Iterator[int]:
        """All line addresses in CTA-then-warp program order.

        This is the *unshuffled* stream; the MRC collector applies its own
        interleaving model (see :mod:`repro.mrc.interleave`).
        """
        for kernel in self.kernels:
            yield from kernel.compiled().lines.tolist()
