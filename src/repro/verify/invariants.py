"""The invariant catalog paranoia mode asserts.

Each check guards a specific piece of the model's algebra (see
``docs/ARCHITECTURE.md`` § Verification for the full table):

* **Event queue** — live-count/heap consistency and heap ordering
  (:meth:`repro.engine.event.EventQueue.consistency_check`), plus clock
  monotonicity per popped event in ``CheckedEventQueue.pop_entry``.
* **Kernel boundaries** — the queue must be drained, the clock and event
  counter must not run backwards across boundaries, and the conservation
  identities must hold exactly:
  ``sum(sm.accesses) == memory_accesses == l1_hits + l1_misses`` and
  ``llc_hits + llc_misses == l1_misses - merged`` (every L1 miss either
  merges with an in-flight fill or probes the LLC exactly once).  These
  are integer identities — any drift is a dropped or double-counted
  event, precisely the class of bug a vectorized engine rewrite risks.
* **Simulation results** — the same conservation identities on the final
  counters, plus range checks on ``f_mem`` (the Eq. 3 input) and
  instruction accounting.
* **Miss-rate curves** — MPKI and miss ratio monotone non-increasing in
  capacity (the LRU inclusion property Eq. 1's cliff detection rests
  on), miss ratios within [0, 1].
* **Predictions** — the published Eq. 2/3/4 algebra recomputed from the
  predictor's own profile must reproduce the returned IPC, and the
  ``details`` dict must be consistent with the inputs.

Checks are pure observers: they read simulator state, never mutate it,
and raise :class:`repro.exceptions.InvariantError` with enough context
to localize the violation (workload, kernel boundary, the two sides of
the broken identity).
"""

from __future__ import annotations

import math
from typing import Iterable, List

from repro.exceptions import InvariantError
from repro.mrc.cliff import Region
from repro.verify.runtime import VERIFY_STATS

__all__ = [
    "check_queue",
    "check_boundary",
    "check_conservation",
    "check_result",
    "check_curve",
    "check_prediction",
]

#: Relative tolerance for floating-point identities (Eq. 2-4 recompute).
_REL_TOL = 1e-9

#: Absolute slack for MRC monotonicity: the statstack estimator is a
#: statistical approximation and may wobble at the last digit; anything
#: beyond this is a real inversion.
_CURVE_TOL = 1e-9


def _workload_of(sim) -> str:
    workload = getattr(sim, "_workload", None)
    return getattr(workload, "name", "?")


def check_queue(queue) -> None:
    """Live-count/heap consistency scan (delegates to the queue)."""
    queue.consistency_check()


def _l1_caches(memory) -> List:
    """Every L1 cache of a memory backend (monolithic or MCM)."""
    subsystems = getattr(memory, "subsystems", None)
    if subsystems is None:
        return list(memory.l1s)
    l1s: List = []
    for subsystem in subsystems:
        l1s.extend(subsystem.l1s)
    return l1s


def check_conservation(sim) -> None:
    """Instruction & miss conservation across SMs vs. the totals.

    Exact integer identities; see the module docstring.  ``sim`` is the
    (flat) :class:`repro.gpu.gpu.GPUSimulator` — the MCM model wraps one,
    and its aggregate counters sum over chiplets, so both machine models
    are checked by the same identities.
    """
    name = _workload_of(sim)
    memory = sim.memory
    sm_accesses = sum(sm.accesses for sm in sim.sms)
    if sm_accesses != sim._accesses:
        raise InvariantError(
            f"{name}: access conservation broken: per-SM accesses sum to "
            f"{sm_accesses} but the simulator counted {sim._accesses}"
        )
    l1_total = memory.l1_hits + memory.l1_misses
    if l1_total != sim._accesses:
        raise InvariantError(
            f"{name}: miss conservation broken: l1_hits ({memory.l1_hits}) "
            f"+ l1_misses ({memory.l1_misses}) = {l1_total}, but "
            f"{sim._accesses} accesses were issued — an increment was "
            "dropped or double-counted"
        )
    expected_llc = memory.l1_misses - memory.merged
    llc_total = memory.llc_hits + memory.llc_misses
    if llc_total != expected_llc:
        raise InvariantError(
            f"{name}: LLC conservation broken: llc_hits ({memory.llc_hits})"
            f" + llc_misses ({memory.llc_misses}) = {llc_total}, expected "
            f"l1_misses - merged = {memory.l1_misses} - {memory.merged} "
            f"= {expected_llc}"
        )
    per_l1_merged = sum(l1.merged for l1 in _l1_caches(memory))
    if per_l1_merged != memory.merged:
        raise InvariantError(
            f"{name}: merge accounting broken: per-L1 merged counters sum "
            f"to {per_l1_merged}, aggregate says {memory.merged}"
        )


def check_boundary(sim, kernels_completed: int) -> None:
    """Full invariant sweep at a kernel boundary.

    Called by the simulator after kernel ``kernels_completed - 1``
    drains.  The ``_verify_prev_boundary``
    attribute this leaves on the simulator is bookkeeping for the
    cross-boundary monotonicity checks only — it is not model state and
    never reaches the boundary state replay digests.
    """
    name = _workload_of(sim)
    clock = sim.kernel_clock
    if clock.pending_events:
        raise InvariantError(
            f"{name}: kernel boundary {kernels_completed} reached with "
            f"{clock.pending_events} events still pending — boundaries "
            "are defined by a drained queue"
        )
    check_queue(clock._queue)
    previous = getattr(sim, "_verify_prev_boundary", None)
    if previous is not None:
        prev_k, prev_now, prev_events = previous
        if kernels_completed != prev_k + 1:
            raise InvariantError(
                f"{name}: kernel boundaries out of order: "
                f"{prev_k} -> {kernels_completed}"
            )
        if clock.now < prev_now:
            raise InvariantError(
                f"{name}: clock ran backwards across kernel boundaries: "
                f"{prev_now} -> {clock.now}"
            )
        if clock.events_processed < prev_events:
            raise InvariantError(
                f"{name}: event counter ran backwards across kernel "
                f"boundaries: {prev_events} -> {clock.events_processed}"
            )
    sim._verify_prev_boundary = (
        kernels_completed, clock.now, clock.events_processed,
    )
    check_conservation(sim)
    VERIFY_STATS["boundaries_checked"] += 1


def check_result(result) -> None:
    """Conservation and range checks on a finished simulation result."""
    name = result.workload
    if result.l1_hits + result.l1_misses != result.memory_accesses:
        raise InvariantError(
            f"{name}: result miss conservation broken: l1_hits "
            f"({result.l1_hits}) + l1_misses ({result.l1_misses}) != "
            f"memory_accesses ({result.memory_accesses})"
        )
    merged = result.extra.get("l1_merged")
    if merged is not None:
        expected_llc = result.l1_misses - int(merged)
        if result.llc_hits + result.llc_misses != expected_llc:
            raise InvariantError(
                f"{name}: result LLC conservation broken: llc_hits "
                f"({result.llc_hits}) + llc_misses ({result.llc_misses}) "
                f"!= l1_misses - merged = {expected_llc}"
            )
    if result.cycles <= 0:
        raise InvariantError(f"{name}: non-positive cycle count {result.cycles}")
    if not 0.0 <= result.memory_stall_fraction <= 1.0:
        raise InvariantError(
            f"{name}: f_mem out of range: {result.memory_stall_fraction} "
            "(Eq. 3 divides by 1 - f_mem)"
        )
    if (
        result.warp_instructions > 0
        and result.thread_instructions % result.warp_instructions
    ):
        raise InvariantError(
            f"{name}: thread instructions ({result.thread_instructions}) "
            "are not a whole multiple of warp instructions "
            f"({result.warp_instructions})"
        )
    VERIFY_STATS["results_checked"] += 1


def check_curve(curve) -> None:
    """MRC monotonicity in capacity (LRU inclusion) and ratio ranges."""
    name = curve.workload
    for a, b in zip(curve.mpki, curve.mpki[1:]):
        if b > a + _CURVE_TOL:
            raise InvariantError(
                f"{name}: MPKI increases with LLC capacity ({a} -> {b}); "
                "a larger LRU cache can never miss more (inclusion "
                "property) — the MRC collector is broken"
            )
    for ratio in curve.miss_ratio:
        if not 0.0 <= ratio <= 1.0:
            raise InvariantError(
                f"{name}: miss ratio {ratio} outside [0, 1]"
            )
    for a, b in zip(curve.miss_ratio, curve.miss_ratio[1:]):
        if b > a + _CURVE_TOL:
            raise InvariantError(
                f"{name}: miss ratio increases with LLC capacity "
                f"({a} -> {b})"
            )
    VERIFY_STATS["curves_checked"] += 1


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=0.0)


def check_prediction(predictor, result) -> None:
    """Eq. 2-4 algebraic consistency of one prediction.

    Recomputes the published formulas from the predictor's own profile
    and requires the returned IPC (and the ``details`` the predictor
    reports alongside it) to match to within floating-point noise.
    """
    profile = predictor.profile
    name = profile.workload
    large_size, ipc_l = profile.largest
    correction = profile.correction_factor()
    if not _close(result.correction_factor, correction):
        raise InvariantError(
            f"{name}: reported correction factor {result.correction_factor}"
            f" != profile correction factor {correction}"
        )
    scale = result.target_size / large_size
    details = result.details
    if result.region is Region.PRE_CLIFF:
        expected = ipc_l * scale * correction
    elif result.region is Region.CLIFF:
        f_mem = details.get("f_mem", profile.f_mem)
        if f_mem is None or not 0.0 <= f_mem < 1.0:
            raise InvariantError(
                f"{name}: Eq. 3 needs f_mem in [0, 1), got {f_mem}"
            )
        if profile.f_mem is not None and not _close(f_mem, profile.f_mem):
            raise InvariantError(
                f"{name}: details carry f_mem={f_mem}, profile says "
                f"{profile.f_mem}"
            )
        expected = ipc_l * scale / (1.0 - f_mem)
    else:  # POST_CLIFF (Eq. 4)
        f_mem = details.get("f_mem", profile.f_mem)
        anchor_size = details.get("anchor_size")
        anchor_ipc = details.get("anchor_ipc")
        if f_mem is None or not 0.0 <= f_mem < 1.0:
            raise InvariantError(
                f"{name}: Eq. 4 needs f_mem in [0, 1), got {f_mem}"
            )
        if not anchor_size or anchor_ipc is None:
            raise InvariantError(
                f"{name}: Eq. 4 details missing the anchor: {details}"
            )
        expected_anchor = ipc_l * (anchor_size / large_size) / (1.0 - f_mem)
        if not _close(anchor_ipc, expected_anchor):
            raise InvariantError(
                f"{name}: Eq. 4 anchor IPC {anchor_ipc} != Eq. 3 at the "
                f"anchor size ({expected_anchor})"
            )
        expected = anchor_ipc * (result.target_size / anchor_size) * correction
    if result.ipc <= 0:
        raise InvariantError(f"{name}: non-positive predicted IPC {result.ipc}")
    if not _close(result.ipc, expected):
        raise InvariantError(
            f"{name}@{result.target_size} ({result.region.name}): "
            f"predicted IPC {result.ipc} does not reproduce from the "
            f"profile (expected {expected}) — Eq. 2-4 algebra drifted"
        )
    VERIFY_STATS["predictions_checked"] += 1
