"""Trace serialization: save/load workload traces as ``.npz`` bundles.

The paper's artifact distributes pre-collected traces and results so the
prediction step can run without re-simulation; this module provides the
same capability for this repository's traces.  A saved trace is a single
compressed ``.npz`` holding flattened per-warp arrays plus an index, and
loads back into a :class:`~repro.trace.kernel.WorkloadTrace` whose
``build_cta`` slices the arrays (no re-generation, identical replay).
"""

from __future__ import annotations

import hashlib
import json
import numpy as np

from repro.exceptions import TraceError
from repro.trace.kernel import CompiledKernel, KernelTrace, WorkloadTrace

FORMAT_VERSION = 1


def save_trace(workload: WorkloadTrace, path: str) -> None:
    """Materialize every CTA of ``workload`` and write it to ``path``."""
    parts = [kernel.compiled() for kernel in workload.kernels]
    header = {
        "version": FORMAT_VERSION,
        "name": workload.name,
        "footprint_bytes": workload.footprint_bytes,
        "metadata": _jsonable(workload.metadata),
        "kernels": [
            {
                "name": kernel.name,
                "num_ctas": kernel.num_ctas,
                "threads_per_cta": kernel.threads_per_cta,
            }
            for kernel in workload.kernels
        ],
    }
    np.savez_compressed(
        path,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        lines=np.concatenate([p.lines for p in parts]),
        compute=np.concatenate([p.compute for p in parts]),
        warp_lengths=np.concatenate([np.diff(p.warp_bounds) for p in parts]),
        warp_tails=np.concatenate([p.tails for p in parts]),
        warp_offsets=np.concatenate([p.offsets for p in parts]),
        cta_warp_counts=np.concatenate([np.diff(p.cta_bounds) for p in parts]),
    )


def load_trace(path: str) -> WorkloadTrace:
    """Load a trace bundle written by :func:`save_trace`."""
    with np.load(path) as data:
        header = json.loads(bytes(data["header"].tobytes()).decode())
        if header.get("version") != FORMAT_VERSION:
            raise TraceError(
                f"{path}: unsupported trace format version "
                f"{header.get('version')!r}"
            )
        lines = data["lines"]
        compute = data["compute"]
        warp_lengths = data["warp_lengths"]
        warp_tails = data["warp_tails"]
        warp_offsets = data["warp_offsets"]
        cta_warp_counts = data["cta_warp_counts"]

    warp_bounds = np.concatenate(([0], np.cumsum(warp_lengths)))
    cta_bounds = np.concatenate(([0], np.cumsum(cta_warp_counts)))
    kernels = []
    cta_base = 0
    for meta in header["kernels"]:
        num_ctas = int(meta["num_ctas"])
        # Cut this kernel's CTAs out of the file-wide arrays and rebase
        # both index arrays to the cut.
        first, last = cta_bounds[[cta_base, cta_base + num_ctas]].tolist()
        lo, hi = warp_bounds[[first, last]].tolist()
        compiled = CompiledKernel(
            lines[lo:hi], compute[lo:hi],
            warp_bounds[first : last + 1] - lo,
            warp_tails[first:last], warp_offsets[first:last],
            cta_bounds[cta_base : cta_base + num_ctas + 1] - first,
        )
        kernels.append(
            KernelTrace(
                name=meta["name"],
                num_ctas=num_ctas,
                threads_per_cta=int(meta["threads_per_cta"]),
                build_cta=compiled.build_cta,
                compiled=lambda compiled=compiled: compiled,
            )
        )
        cta_base += num_ctas

    metadata = dict(header.get("metadata", {}))
    warm = metadata.get("warm_region")
    if warm is not None:
        metadata["warm_region"] = tuple(warm)
    return WorkloadTrace(
        name=header["name"],
        kernels=kernels,
        footprint_bytes=int(header.get("footprint_bytes", 0)),
        metadata=metadata,
    )


def _jsonable(metadata: dict) -> dict:
    out = {}
    for key, value in metadata.items():
        if isinstance(value, tuple):
            out[key] = list(value)
        elif isinstance(value, (str, int, float, bool, list)) or value is None:
            out[key] = value
        else:
            out[key] = str(value)
    return out


def trace_digest(workload: WorkloadTrace) -> str:
    """``sha256:<hex>`` over the full materialized trace content.

    Walks every CTA of every kernel (build on demand, nothing retained)
    and hashes the exact per-warp line/compute streams plus tails and
    launch offsets.  Two traces digest equally iff a simulator would
    replay identical streams — the determinism contract of
    :func:`repro.workloads.generators.build_trace` made checkable
    across processes and hosts.
    """
    hasher = hashlib.sha256()
    for kernel in workload.kernels:
        hasher.update(
            repr((kernel.name, kernel.num_ctas, kernel.threads_per_cta)).encode()
        )
        for cta in kernel.iter_ctas():
            for warp in cta.warps:
                hasher.update(np.asarray(warp.lines, dtype=np.int64).tobytes())
                hasher.update(np.asarray(warp.compute, dtype=np.int64).tobytes())
                hasher.update(
                    repr((warp.tail_compute, warp.start_offset)).encode()
                )
    return "sha256:" + hasher.hexdigest()
