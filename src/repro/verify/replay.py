"""Differential replay: one workload, two execution paths, diffed digests.

A :class:`DigestRecorder` rides the simulator's checkpoint seam — it is
a drop-in ``Checkpointer`` whose policy is "every boundary" and whose
storage is an in-memory digest list — so :func:`digest_run` captures a
canonical fingerprint of the complete simulator state at every internal
kernel boundary plus the final result, without touching the engine.

:func:`first_divergence` then compares two such traces and names the
*first* kernel boundary and state field where they part ways — ``sms``
vs. ``memory`` vs. ``clock`` — which localizes an engine bug to one
kernel's execution and one component, instead of one opaque "results
differ" at the end of the run.

Shipped differentials:

* :func:`replay_cold_vs_resume` — an uninterrupted run vs. one resumed
  from a mid-run checkpoint of the first; every boundary after the
  resume point and the final result must digest identically.
* :func:`replay_checked_vs_plain` — a run popped through paranoia
  mode's checked event queue vs. one popped through the plain queue;
  guards the checked queue against changing what the engine delivers.

The serial-vs-parallel differential lives at the analysis layer (store
payload comparison; see ``tests/verify/``): worker processes cannot ship
an in-memory recorder back, but a run's payload digest is exactly the
fingerprint that must match.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.verify.digest import payload_digest, state_field_digests

__all__ = [
    "BoundarySnapshot",
    "DigestRecorder",
    "Divergence",
    "ReplayTrace",
    "digest_run",
    "first_divergence",
    "replay_checked_vs_plain",
    "replay_cold_vs_resume",
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
    #: The full checkpoint payload, kept only when the caller plans to
    #: resume from this boundary (``keep_payloads=True``).
    payload: Optional[dict] = None


@dataclass(frozen=True)
class ReplayTrace:
    """One execution path's boundary digests plus its final result."""

    workload: str
    boundaries: Tuple[BoundarySnapshot, ...]
    result_digest: str
    result: object
    resumed_from: Optional[int] = None

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


class DigestRecorder:
    """A ``Checkpointer`` that records digests instead of writing files.

    Satisfies the full checkpointer interface the simulator drives
    (``should_checkpoint`` / ``save`` / ``load_latest`` /
    ``mark_resumed`` / ``cleanup``), so replay needs no engine seam of
    its own: the checkpoint payload *is* the canonical boundary state.
    """

    def __init__(
        self,
        resume_payload: Optional[dict] = None,
        keep_payloads: bool = False,
    ) -> None:
        self.snapshots: List[BoundarySnapshot] = []
        self.resumed_from: Optional[int] = None
        self.cycles_saved: float = 0.0
        self._resume_payload = resume_payload
        self._keep_payloads = keep_payloads

    def should_checkpoint(self, kernels_completed: int) -> bool:
        return True

    def save(self, payload: dict) -> None:
        self.snapshots.append(
            BoundarySnapshot(
                kernels_completed=int(payload["kernels_completed"]),
                cycles=float(payload["cycles"]),
                field_digests=state_field_digests(payload["state"]),
                payload=payload if self._keep_payloads else None,
            )
        )

    def load_latest(self) -> Optional[dict]:
        return self._resume_payload

    def mark_resumed(self, kernels_completed: int, cycles: float) -> None:
        self.resumed_from = kernels_completed
        self.cycles_saved = cycles

    def cleanup(self) -> None:
        """Snapshots are the product here, not crash insurance: keep them."""


def digest_run(
    simulator_factory: Callable[[], object],
    workload,
    resume_payload: Optional[dict] = None,
    keep_payloads: bool = False,
) -> ReplayTrace:
    """Run ``workload`` once, fingerprinting every kernel boundary.

    ``simulator_factory`` must build a fresh simulator per call
    (simulators are single-use).  With ``resume_payload`` the run resumes
    from that checkpoint instead of starting cold — the replayed half
    must then digest identically to the original's same boundaries.
    """
    recorder = DigestRecorder(
        resume_payload=resume_payload, keep_payloads=keep_payloads
    )
    result = simulator_factory().run(workload, checkpointer=recorder)
    return ReplayTrace(
        workload=workload.name,
        boundaries=tuple(recorder.snapshots),
        result_digest=payload_digest(asdict(result)),
        result=result,
        resumed_from=recorder.resumed_from,
    )


def first_divergence(a: ReplayTrace, b: ReplayTrace) -> Optional[Divergence]:
    """The first kernel boundary and field where two traces disagree.

    Only boundaries both traces recorded are compared (a resumed trace
    starts at its resume point), in kernel order; the final result digest
    is compared last.  ``None`` means the paths are indistinguishable.
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


def replay_cold_vs_resume(
    simulator_factory: Callable[[], object],
    workload,
    resume_at: Optional[int] = None,
) -> Tuple[ReplayTrace, ReplayTrace, Optional[Divergence]]:
    """Differential: uninterrupted run vs. checkpoint-resume replay.

    Runs cold once (keeping full boundary payloads), then replays from
    the ``resume_at``-th boundary's checkpoint (default: the middle one).
    Requires a workload with at least two kernels — single-kernel runs
    have no internal boundary to resume from.
    """
    cold = digest_run(simulator_factory, workload, keep_payloads=True)
    if not cold.boundaries:
        raise ValueError(
            f"{workload.name}: no internal kernel boundaries to resume "
            "from (needs >= 2 kernels)"
        )
    if resume_at is None:
        resume_at = cold.boundaries[len(cold.boundaries) // 2].kernels_completed
    by_kernel = cold.boundary_map()
    if resume_at not in by_kernel:
        raise ValueError(
            f"{workload.name}: no boundary at kernels_completed="
            f"{resume_at}; have {sorted(by_kernel)}"
        )
    resumed = digest_run(
        simulator_factory, workload, resume_payload=by_kernel[resume_at].payload
    )
    return cold, resumed, first_divergence(cold, resumed)


def replay_checked_vs_plain(
    simulator_factory: Callable[[], object],
    workload,
) -> Tuple[ReplayTrace, ReplayTrace, Optional[Divergence]]:
    """Differential: paranoia mode's checked event queue vs. the plain one.

    The checked queue and the guarded check sites must observe, never
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
