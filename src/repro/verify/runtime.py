"""The paranoia switch: one flag, what it has checked, and ``REPRO_VERIFY``.

A verification site is a call behind one switch read, in the module that
owns the code: ``if runtime.paranoid:`` at the kernel-boundary sweep and
result build (:mod:`repro.gpu.gpu`), in ``ScaleModelPredictor.predict``,
where every miss-rate curve is built (:mod:`repro.mrc.collector`), and
where a :class:`~repro.gpu.gpu.GPUSimulator` chooses its checked or
plain push.  Nothing is patched in or out; :mod:`repro.verify.hooks` is the
on/off API over this flag.

Kept import-light on purpose — the GPU model and the
predictor import this module at package scope, so nothing here may
import back into them.  The checks themselves
(:mod:`repro.verify.invariants`) load behind the flag.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from repro.resilience import env_flag

__all__ = [
    "VERIFY_ENV",
    "VERIFY_STATS",
    "arm_from_flag",
    "ensure_paranoia",
    "reset_stats",
    "set_paranoid",
    "verify_enabled",
]

VERIFY_ENV = "REPRO_VERIFY"

#: The switch every check site reads.  Only :func:`set_paranoid` writes it.
paranoid = False

#: What paranoia mode has checked so far (process-wide, cumulative).
#: Plain counters for tests and the CLIs' ``--verify`` summary lines.
VERIFY_STATS: Dict[str, int] = {}


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


def set_paranoid(on: bool) -> None:
    global paranoid
    paranoid = bool(on)


def verify_enabled(value: Optional[str] = None) -> bool:
    """Is paranoia mode requested? (``REPRO_VERIFY``, tolerantly parsed)."""
    return env_flag(VERIFY_ENV, value)


def ensure_paranoia() -> None:
    """Turn paranoia mode on when ``REPRO_VERIFY`` asks (idempotent).

    Called where a simulator is constructed and at the execution layer's
    attempt entry point, mirroring how ``repro.obs`` workers self-arm.
    One env lookup when the variable is unset — the entire disabled cost.
    """
    if verify_enabled():
        set_paranoid(True)


def arm_from_flag(enabled: bool) -> None:
    """CLI ``--verify`` handler: arm this process *and* its children.

    Exports ``REPRO_VERIFY=1`` (pool workers inherit the environment and
    self-arm through :func:`ensure_paranoia`) and turns the switch on in
    the current process immediately.  A no-op when ``enabled`` is false —
    an unset flag must not clear an operator's exported variable.
    """
    if enabled:
        os.environ[VERIFY_ENV] = "1"
        set_paranoid(True)
