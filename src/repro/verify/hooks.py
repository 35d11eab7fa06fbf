"""Paranoia mode on and off: the API over ``repro.verify.runtime.paranoid``.

:func:`install` turns the switch on, :func:`uninstall` turns it off,
:func:`paranoia` scopes it.  No code is replaced either way: the checks
are guarded sites in the modules that own the checked code (listed in
:mod:`repro.verify.runtime`), and the per-event ones live in the checked
push a :class:`~repro.gpu.gpu.GPUSimulator` chooses at construction.
So a simulator is checked iff paranoia is on when it is constructed —
simulators are single-use and built per run, so turning the switch on
before building the simulator is the whole protocol.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.verify import runtime
from repro.verify.runtime import VERIFY_STATS, reset_stats

__all__ = [
    "VERIFY_STATS",
    "install",
    "installed",
    "paranoia",
    "reset_stats",
    "uninstall",
]


def installed() -> bool:
    return runtime.paranoid


def install() -> None:
    """Turn every paranoia check on (idempotent)."""
    runtime.set_paranoid(True)


def uninstall() -> None:
    """Turn every paranoia check off (idempotent)."""
    runtime.set_paranoid(False)


@contextmanager
def paranoia(enabled: bool = True):
    """Scoped paranoia mode: switch, run, restore the prior state."""
    previous = runtime.paranoid
    runtime.set_paranoid(enabled)
    try:
        yield
    finally:
        runtime.set_paranoid(previous)
