"""Observability on and off: the ``REPRO_OBS`` switch over the tracer.

A recording site is a call behind one switch read, in the module that
owns the code: ``get_tracer().enabled`` (or ``tracer.span(...)``, which
reads it) at the event loop's per-run accounting, the parallel runner's
batch, result-store I/O and the simulator's run/kernel spans.  :func:`install` turns that switch on and
:func:`uninstall` turns it off; nothing is patched in or out, so the
disabled cost of a site is the one attribute check.

Activation:

* ``REPRO_OBS=1`` (any value other than ``0``/``false``/``off``/``no``)
  turns recording on for the process; the CLIs' ``--trace-out`` /
  ``--metrics-out`` flags set it for their own process so pool workers
  inherit it.
* ``REPRO_OBS_SPILL=<dir>`` points worker processes at the JSONL spill
  directory the parent's exporter merges (set automatically by
  :func:`repro.obs.bootstrap` when a trace output is requested).

Workers self-arm: :func:`repro.analysis.parallel.execute_attempt` calls
:func:`ensure_worker` (one env lookup when the variable is unset) so a
forked/spawned pool worker records too and spills its spans after every
attempt.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.obs.metrics import get_registry
from repro.obs.tracing import get_tracer

__all__ = [
    "OBS_ENV",
    "SPILL_ENV",
    "obs_enabled",
    "install",
    "uninstall",
    "ensure_worker",
]

OBS_ENV = "REPRO_OBS"
SPILL_ENV = "REPRO_OBS_SPILL"


def obs_enabled(value: Optional[str] = None) -> bool:
    """Is observability requested? (``REPRO_OBS``, tolerantly parsed)."""
    # Deferred: repro.resilience imports repro.obs at module scope.
    from repro.resilience import env_flag

    return env_flag(OBS_ENV, value)


def install(spill_dir: Optional[str] = None) -> None:
    """Turn recording on, span durations feeding the registry (idempotent)."""
    tracer = get_tracer()
    tracer.metrics = get_registry()
    tracer.enable(
        spill_dir if spill_dir is not None else os.environ.get(SPILL_ENV)
    )


def uninstall() -> None:
    """Turn recording off."""
    tracer = get_tracer()
    tracer.disable()
    tracer.metrics = None


def ensure_worker() -> None:
    """Arm observability inside a pool worker (no-op when already armed).

    Called from the worker entry point when ``REPRO_OBS`` is set; safe
    to call repeatedly — the tracer handles fork inheritance itself.
    """
    if obs_enabled():
        install()
