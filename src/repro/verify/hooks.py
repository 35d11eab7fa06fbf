"""The paranoia-mode seam: install/uninstall verification hooks.

Mirrors the ``repro.obs.profile_hooks`` opt-in pattern: the pristine
engine carries no verification code on its hot paths — just a module
global read once per run (``repro.engine.kernel._run_observer`` for
observability, ``repro.gpu.gpu._boundary_observer`` here) — and
:func:`install` monkeypatches the checked variants in.  :func:`uninstall`
restores every original object, so with ``REPRO_VERIFY`` unset the
simulator is byte-for-byte the code that shipped.

What install() patches:

* ``repro.engine.event.PARANOIA`` — firing a cancelled event escalates
  from a counted no-op to a hard :class:`InvariantError`.
* ``SimulationKernel.run`` — replaced by a checked loop with identical
  semantics (same pop/re-insert/horizon/count-before-fire behaviour)
  plus per-event clock-monotonicity checks and periodic + final
  :meth:`EventQueue.consistency_check` scans.
* ``repro.gpu.gpu._boundary_observer`` — full invariant sweep
  (:func:`repro.verify.invariants.check_boundary`) at every kernel
  boundary, including the final one.
* ``GPUSimulator._build_result`` — conservation + range checks on the
  finished result.
* ``ScaleModelPredictor.predict`` — Eq. 2-4 algebra recomputed and
  compared on every prediction.
* ``repro.analysis.runner.compute_mrc`` — MRC monotonicity checked on
  every curve collection (both the serial path and the pool workers
  resolve this module attribute at call time).
"""

from __future__ import annotations

import time as _time
from contextlib import contextmanager
from typing import Dict, Optional

from repro.exceptions import InvariantError

__all__ = [
    "QUEUE_CHECK_INTERVAL",
    "VERIFY_STATS",
    "install",
    "installed",
    "paranoia",
    "reset_stats",
    "uninstall",
]

#: Events between full O(n) event-queue consistency scans in the checked
#: run loop.  Small enough to localize a corruption to a tight event
#: window, large enough that paranoia mode stays usable on the quick tier.
QUEUE_CHECK_INTERVAL = 2048

#: What paranoia mode has checked so far (process-wide, cumulative).
#: Plain counters for tests and the CLIs' ``--verify`` summary lines.
VERIFY_STATS: Dict[str, int] = {}

_installed = False
_originals: Dict[str, object] = {}


def reset_stats() -> None:
    VERIFY_STATS.update(
        runs_checked=0,
        events_checked=0,
        queue_scans=0,
        boundaries_checked=0,
        results_checked=0,
        curves_checked=0,
        predictions_checked=0,
    )


reset_stats()


def installed() -> bool:
    return _installed


def _make_checked_run(kernel_mod):
    """Build the checked replacement for ``SimulationKernel.run``.

    Every semantic of the original loop is preserved exactly — events
    counted *before* their callback fires, inclusive ``until`` with the
    same-entry re-insert (``seq`` kept, entry list reused so handles stay
    cancellable), observer read once at entry — because differential
    replay diffs checked runs against unchecked ones and any drift here
    would read as an engine bug.
    """
    interval = QUEUE_CHECK_INTERVAL
    stats = VERIFY_STATS

    def run(self, until=None, max_events=None):
        stats["runs_checked"] += 1
        self._running = True
        fired = 0
        queue = self._queue
        # Module attribute, not a closed-over value: obs hooks may
        # install or uninstall while verify hooks stay resident.
        observer = kernel_mod._run_observer
        start = _time.perf_counter() if observer is not None else 0.0
        try:
            while self._running:
                if max_events is not None and fired >= max_events:
                    break
                popped = queue.pop_entry()
                if popped is None:
                    break
                time, seq, callback, args = popped[:4]
                if callback is None:
                    raise InvariantError(
                        f"pop_entry returned a cancelled entry "
                        f"(time={time}, seq={seq}); the queue's lazy-"
                        "cancellation compaction is broken"
                    )
                if time < self.now:
                    raise InvariantError(
                        f"clock would run backwards: event (time={time}, "
                        f"seq={seq}) fired at now={self.now}"
                    )
                if until is not None and time > until:
                    queue.push_entry(time, callback, args, seq=seq, entry=popped)
                    self.now = until
                    break
                self.now = time
                self._events_processed += 1
                callback(*args)
                fired += 1
                stats["events_checked"] += 1
                if fired % interval == 0:
                    queue.consistency_check()
                    stats["queue_scans"] += 1
        finally:
            self._running = False
            if observer is not None:
                observer(self, fired, _time.perf_counter() - start)
        queue.consistency_check()
        stats["queue_scans"] += 1

    return run


def _check_boundary(sim, kernels_completed: int) -> None:
    from repro.verify import invariants

    invariants.check_boundary(sim, kernels_completed)
    VERIFY_STATS["boundaries_checked"] += 1


def install() -> None:
    """Install every paranoia hook (idempotent)."""
    global _installed
    if _installed:
        return
    # Deferred imports: this module is reached through
    # ``repro.verify.runtime.ensure_paranoia`` at run time, never at
    # package import, so the analysis->gpu->verify import chain is
    # already settled when these execute.
    import repro.analysis.runner as runner_mod
    import repro.engine.event as event_mod
    import repro.engine.kernel as kernel_mod
    import repro.gpu.gpu as gpu_mod
    from repro.core.model import ScaleModelPredictor
    from repro.engine.kernel import SimulationKernel
    from repro.gpu.gpu import GPUSimulator
    from repro.verify import invariants

    _originals["event.PARANOIA"] = event_mod.PARANOIA
    event_mod.PARANOIA = True

    _originals["SimulationKernel.run"] = SimulationKernel.run
    SimulationKernel.run = _make_checked_run(kernel_mod)

    _originals["gpu._boundary_observer"] = gpu_mod._boundary_observer
    gpu_mod._boundary_observer = _check_boundary

    original_build = GPUSimulator._build_result
    _originals["GPUSimulator._build_result"] = original_build

    def checked_build_result(self, wall_time_s):
        result = original_build(self, wall_time_s)
        invariants.check_conservation(self)
        invariants.check_result(result)
        VERIFY_STATS["results_checked"] += 1
        return result

    GPUSimulator._build_result = checked_build_result

    original_predict = ScaleModelPredictor.predict
    _originals["ScaleModelPredictor.predict"] = original_predict

    def checked_predict(self, target_size):
        result = original_predict(self, target_size)
        invariants.check_prediction(self, result)
        VERIFY_STATS["predictions_checked"] += 1
        return result

    ScaleModelPredictor.predict = checked_predict

    original_compute_mrc = runner_mod.compute_mrc
    _originals["runner.compute_mrc"] = original_compute_mrc

    def checked_compute_mrc(spec, work_scale, method, seed):
        curve = original_compute_mrc(spec, work_scale, method, seed)
        invariants.check_curve(curve)
        VERIFY_STATS["curves_checked"] += 1
        return curve

    runner_mod.compute_mrc = checked_compute_mrc

    _installed = True


def uninstall() -> None:
    """Restore every patched object to its pristine original (idempotent)."""
    global _installed
    if not _installed:
        return
    import repro.analysis.runner as runner_mod
    import repro.engine.event as event_mod
    import repro.engine.kernel as kernel_mod  # noqa: F401 - symmetry
    import repro.gpu.gpu as gpu_mod
    from repro.core.model import ScaleModelPredictor
    from repro.engine.kernel import SimulationKernel
    from repro.gpu.gpu import GPUSimulator

    event_mod.PARANOIA = _originals.pop("event.PARANOIA")
    SimulationKernel.run = _originals.pop("SimulationKernel.run")
    gpu_mod._boundary_observer = _originals.pop("gpu._boundary_observer")
    GPUSimulator._build_result = _originals.pop("GPUSimulator._build_result")
    ScaleModelPredictor.predict = _originals.pop("ScaleModelPredictor.predict")
    runner_mod.compute_mrc = _originals.pop("runner.compute_mrc")
    _installed = False


@contextmanager
def paranoia(enabled: bool = True):
    """Scoped paranoia mode for tests: install, run, restore prior state."""
    was_installed = _installed
    if enabled:
        install()
    else:
        uninstall()
    try:
        yield
    finally:
        if was_installed:
            install()
        else:
            uninstall()
