"""Differential replay: one workload, two execution paths, diffed digests.

:func:`digest_run` passes the simulator an ``on_boundary`` closure that
fingerprints the complete simulator state at every internal kernel
boundary — the one point where the event queue is empty, so the state
is plain data — plus the final result, without touching the engine.

:func:`first_divergence` then compares two such traces and names the
*first* kernel boundary and state field where they part ways — ``sms``
vs. ``memory`` vs. ``clock`` — which localizes an engine bug to one
kernel's execution and one component, instead of one opaque "results
differ" at the end of the run.

Shipped differential: :func:`replay_checked_vs_plain` — a run whose
steps go through paranoia mode's checked push vs. one through the plain
loop; guards the checks against changing what the engine delivers.

The serial-vs-parallel differential lives at the analysis layer (store
payload comparison; see ``tests/verify/``): worker processes cannot ship
an in-memory trace back, but a run's payload digest is exactly the
fingerprint that must match.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.verify.digest import payload_digest, state_field_digests

__all__ = [
    "BoundarySnapshot",
    "Divergence",
    "ReplayTrace",
    "digest_run",
    "first_divergence",
    "replay_checked_vs_plain",
]

#: Comparison order for state fields: clock first (a clock divergence
#: usually explains everything downstream), then execution state.
_STATE_FIELDS = ("clock", "accesses", "cta_seq", "sms", "memory")


@dataclass(frozen=True)
class BoundarySnapshot:
    """Digest fingerprint of one kernel boundary."""

    kernels_completed: int
    cycles: float
    field_digests: Dict[str, str]


@dataclass(frozen=True)
class ReplayTrace:
    """One execution path's boundary digests plus its final result."""

    workload: str
    boundaries: Tuple[BoundarySnapshot, ...]
    result_digest: str
    result: object

    def boundary_map(self) -> Dict[int, BoundarySnapshot]:
        return {b.kernels_completed: b for b in self.boundaries}


@dataclass(frozen=True)
class Divergence:
    """The first point where two replay traces disagree.

    ``kernel`` is the boundary's kernels-completed count, or ``None``
    when the divergence only shows in the final result.
    """

    kernel: Optional[int]
    field: str
    a_digest: str
    b_digest: str

    def __str__(self) -> str:
        where = (
            f"kernel boundary {self.kernel}" if self.kernel is not None
            else "final result"
        )
        return (
            f"first divergence at {where}, field {self.field!r}: "
            f"{self.a_digest} != {self.b_digest}"
        )


def digest_run(
    simulator_factory: Callable[[], object], workload
) -> ReplayTrace:
    """Run ``workload`` once, fingerprinting every kernel boundary.

    ``simulator_factory`` must build a fresh simulator per call
    (simulators are single-use).
    """
    boundaries: List[BoundarySnapshot] = []

    def on_boundary(kernels_completed: int, cycles: float, state: dict) -> None:
        boundaries.append(
            BoundarySnapshot(
                kernels_completed, float(cycles), state_field_digests(state)
            )
        )

    result = simulator_factory().run(workload, on_boundary=on_boundary)
    return ReplayTrace(
        workload=workload.name,
        boundaries=tuple(boundaries),
        result_digest=payload_digest(asdict(result)),
        result=result,
    )


def first_divergence(a: ReplayTrace, b: ReplayTrace) -> Optional[Divergence]:
    """The first kernel boundary and field where two traces disagree.

    Only boundaries both traces recorded are compared, in kernel order;
    the final result digest is compared last.  ``None`` means the paths
    are indistinguishable.
    """
    a_map, b_map = a.boundary_map(), b.boundary_map()
    for kernel in sorted(a_map.keys() & b_map.keys()):
        snap_a, snap_b = a_map[kernel], b_map[kernel]
        for name in _STATE_FIELDS:
            da = snap_a.field_digests.get(name, "<absent>")
            db = snap_b.field_digests.get(name, "<absent>")
            if da != db:
                return Divergence(kernel, name, da, db)
        # Unknown extra fields (future state additions) still compared,
        # after the canonical ones, in sorted order.
        extra = (
            set(snap_a.field_digests) | set(snap_b.field_digests)
        ) - set(_STATE_FIELDS)
        for name in sorted(extra):
            da = snap_a.field_digests.get(name, "<absent>")
            db = snap_b.field_digests.get(name, "<absent>")
            if da != db:
                return Divergence(kernel, name, da, db)
        if snap_a.cycles != snap_b.cycles:
            return Divergence(
                kernel, "cycles", repr(snap_a.cycles), repr(snap_b.cycles)
            )
    if a.result_digest != b.result_digest:
        return Divergence(None, "result", a.result_digest, b.result_digest)
    return None


def replay_checked_vs_plain(
    simulator_factory: Callable[[], object],
    workload,
) -> Tuple[ReplayTrace, ReplayTrace, Optional[Divergence]]:
    """Differential: paranoia mode's checked event loop vs. the plain one.

    The checked push and the guarded check sites must observe, never
    change, a run; this differential is the reference that keeps it so.
    """
    import os

    from repro.verify import hooks
    from repro.verify.runtime import VERIFY_ENV

    # The plain run must stay plain even under REPRO_VERIFY=1: simulators
    # self-arm when constructed, so the env override comes off for its leg.
    saved = os.environ.pop(VERIFY_ENV, None)
    try:
        with hooks.paranoia(False):
            plain = digest_run(simulator_factory, workload)
    finally:
        if saved is not None:
            os.environ[VERIFY_ENV] = saved
    with hooks.paranoia(True):
        checked = digest_run(simulator_factory, workload)
    return plain, checked, first_divergence(plain, checked)
