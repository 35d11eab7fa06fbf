"""Resilience layer: graceful shutdown, resource guards, tolerant knobs.

Long simulation campaigns die in boring ways: an operator hits Ctrl-C,
a disk fills up mid-flush, one worker eats all the RAM, or one broken
config burns its full retry budget on every single invocation.  This
module makes those events survivable instead of fatal:

* :class:`ShutdownCoordinator` — SIGINT/SIGTERM become a *drain*: stop
  submitting new runs, let in-flight runs finish, flush every completed
  result, write the failure manifest, exit with the resumable code
  :data:`EXIT_INTERRUPTED`.  A second signal force-quits
  (``128 + signum``).
* :class:`DiskGuard` — a free-space preflight plus cheap periodic
  checks; below the threshold the store stops *writing*
  (computation continues from memory), a warning fires once and the
  ``resilience.resource_pressure`` counter records the episode.
* :func:`apply_memory_limit` — an optional per-process address-space
  ceiling (``REPRO_MAX_RSS``, e.g. ``2G``) so a pathological run raises
  :class:`MemoryError` — mapped to a non-retryable run outcome — instead
  of taking the whole worker pool (or the host) down with it.
* :func:`breaker_threshold` — the per-config circuit breaker's knob
  (``REPRO_BREAKER_THRESHOLD``); the breaker itself is
  :class:`repro.analysis.faults.FailureLedger`, which owns the failure
  manifest it counts over.

Exit-code contract for every CLI entry point (documented in
``docs/ARCHITECTURE.md`` § "Resilience")::

    0             success
    1             completed with failures (--keep-going)
    2             error (configuration, unrecoverable execution)
    75            interrupted, resumable: rerun the same command
    128 + signum  forced quit (second signal)

``75`` is ``EX_TEMPFAIL`` from ``sysexits.h`` — "temporary failure,
retrying later will succeed", which is exactly the contract: everything
completed before the signal is durable, and a rerun picks up from the
cache.
"""

from __future__ import annotations

import os
import shutil
import signal
import sys
import time
import warnings
from typing import Dict, Optional

from repro.exceptions import ShutdownRequested
from repro.obs.metrics import get_registry

__all__ = [
    "EXIT_OK",
    "EXIT_FAILURES",
    "EXIT_ERROR",
    "EXIT_INTERRUPTED",
    "MIN_FREE_ENV",
    "DEFAULT_MIN_FREE_MB",
    "DISK_CHECK_INTERVAL_ENV",
    "MAX_RSS_ENV",
    "BREAKER_THRESHOLD_ENV",
    "DEFAULT_BREAKER_THRESHOLD",
    "ShutdownCoordinator",
    "get_coordinator",
    "install_shutdown_handlers",
    "DiskGuard",
    "get_disk_guard",
    "preflight_disk",
    "parse_size",
    "apply_memory_limit",
    "breaker_threshold",
    "parse_tolerant",
    "tolerant_env",
    "env_flag",
    "env_float",
    "env_int",
]

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_ERROR = 2
#: EX_TEMPFAIL: the campaign was drained, not lost — rerun to resume.
EXIT_INTERRUPTED = 75

MIN_FREE_ENV = "REPRO_MIN_FREE_MB"
DEFAULT_MIN_FREE_MB = 64
DISK_CHECK_INTERVAL_ENV = "REPRO_DISK_CHECK_INTERVAL"
DEFAULT_DISK_CHECK_INTERVAL = 5.0
MAX_RSS_ENV = "REPRO_MAX_RSS"
BREAKER_THRESHOLD_ENV = "REPRO_BREAKER_THRESHOLD"
DEFAULT_BREAKER_THRESHOLD = 3


# --- tolerant environment parsing -------------------------------------------------

def parse_tolerant(name, raw, default, parse, expected="a value"):
    """Parse one knob value, degrading to ``default`` on garbage.

    ``None``/empty ``raw`` silently yields ``default``; a value ``parse``
    rejects (by raising ``ValueError``/``TypeError`` or returning
    ``None``) yields ``default`` *with a warning naming the knob* —
    never an exception.  ``expected`` finishes the warning sentence
    ("is not a number", "is not a size (try 512M, 2G)", ...).
    """
    if raw is None or raw == "":
        return default
    try:
        value = parse(raw)
    except (TypeError, ValueError):
        value = None
    if value is None:
        action = f"using {default}" if default is not None else "ignoring it"
        warnings.warn(f"{name}={raw!r} is not {expected}; {action}")
        return default
    return value


def tolerant_env(name, default, parse, expected="a value"):
    """Read ``name`` from the environment, degrading to ``default`` on garbage.

    The one shared policy for every ``REPRO_*`` tuning knob: a
    long-running campaign or service must not refuse to start because an
    operator fat-fingered a tuning knob; the conservative default plus a
    loud warning is always the better failure mode.  See
    :func:`parse_tolerant` for the parsing contract.
    """
    return parse_tolerant(name, os.environ.get(name), default, parse, expected)


_FALSY = {"", "0", "false", "off", "no"}


def env_flag(name: str, value: Optional[str] = None) -> bool:
    """An on/off switch (``REPRO_OBS``, ``REPRO_VERIFY``): on unless falsy.

    ``value`` stands in for the environment's when given.  Anything but
    unset/empty, ``0``, ``false``, ``off`` or ``no`` (any case) is on.
    """
    if value is None:
        value = os.environ.get(name, "")
    return value.strip().lower() not in _FALSY


def _parse_nonneg_float(raw: str) -> Optional[float]:
    value = float(raw)  # ValueError propagates to tolerant_env
    return value if value >= 0 else None


def _parse_nonneg_int(raw: str) -> Optional[int]:
    value = int(raw)
    return value if value >= 0 else None


def env_float(name: str, default: float) -> float:
    """A non-negative float knob (``REPRO_MIN_FREE_MB``-style), tolerant."""
    return tolerant_env(
        name, default, _parse_nonneg_float, expected="a non-negative number"
    )


def env_int(name: str, default: int) -> int:
    """A non-negative integer knob (``REPRO_JOBS``-style), tolerant."""
    return tolerant_env(
        name, default, _parse_nonneg_int, expected="a non-negative integer"
    )


# --- graceful shutdown -----------------------------------------------------------

class ShutdownCoordinator:
    """Turns the first SIGINT/SIGTERM into a drain, the second into a kill.

    One instance per process (see :func:`get_coordinator`).  Nothing is
    installed until a CLI entry point calls :meth:`install` — library
    users keep Python's default signal behaviour, and the execution
    layer's ``BaseException`` handling covers a plain
    :class:`KeyboardInterrupt` with the same partial-progress merge.

    The handler never raises: it sets :attr:`requested` and returns, so
    the coordination loops (pool drain, per-experiment checks) decide
    *where* to stop.  That keeps the drain deterministic — a run that is
    already executing finishes and its result is flushed.
    """

    def __init__(self) -> None:
        self.requested = False
        self.signum: Optional[int] = None
        self.installed = False
        self._previous: Dict[int, object] = {}

    def install(self) -> "ShutdownCoordinator":
        """Install the SIGINT/SIGTERM handlers (main thread only)."""
        if self.installed:
            return self
        try:
            for sig in (signal.SIGINT, signal.SIGTERM):
                self._previous[sig] = signal.signal(sig, self._handle)
        except ValueError:
            # Not the main thread (embedded use): leave defaults alone.
            self._previous.clear()
            return self
        self.installed = True
        return self

    def uninstall(self) -> None:
        """Restore the previous handlers (tests, nested CLIs)."""
        for sig, previous in self._previous.items():
            try:
                signal.signal(sig, previous)
            except (ValueError, TypeError):
                pass
        self._previous.clear()
        self.installed = False

    def reset(self) -> None:
        """Clear the requested flag (tests; a fresh campaign)."""
        self.requested = False
        self.signum = None

    def _handle(self, signum, frame) -> None:
        if self.requested:
            # Second signal: the operator means it.  No cleanup — the
            # durability story never depends on orderly exit.
            os._exit(128 + signum)
        self.requested = True
        self.signum = signum
        get_registry().inc("resilience.shutdown_requested")
        print(
            f"[resilience] received signal {signum}: draining — no new "
            "runs will start; in-flight runs finish and completed "
            "results are flushed.  Signal again to force-quit.",
            file=sys.stderr,
        )

    def check(self) -> None:
        """Raise :class:`ShutdownRequested` if a drain was requested.

        Called between units of work (experiments, serial runs) so the
        stop lands at a clean boundary.
        """
        if self.requested:
            raise ShutdownRequested(
                "graceful shutdown requested "
                f"(signal {self.signum}); partial progress is flushed",
                signum=self.signum or 0,
            )


_COORDINATOR = ShutdownCoordinator()


def get_coordinator() -> ShutdownCoordinator:
    """The process-wide shutdown coordinator."""
    return _COORDINATOR


def install_shutdown_handlers() -> ShutdownCoordinator:
    """CLI entry helper: install and return the coordinator."""
    return get_coordinator().install()


# --- disk-space guard ------------------------------------------------------------

def _nearest_existing(path: str) -> str:
    """Walk up until a path ``shutil.disk_usage`` can stat."""
    probe = os.path.abspath(path)
    while probe and not os.path.exists(probe):
        parent = os.path.dirname(probe)
        if parent == probe:
            break
        probe = parent
    return probe or os.path.abspath(os.sep)


class DiskGuard:
    """Free-space gate for the persistence seams.

    :meth:`ok` answers "is it safe to write under ``path``?" from a
    cached verdict at most ``interval`` seconds old, so the hot flush
    path pays one monotonic read, not a statvfs, per call.  Crossing
    below the threshold warns once, bumps the
    ``resilience.resource_pressure`` counter and records the free-byte
    gauge; recovering clears the warning latch so a *new* episode warns
    again.  Writers that hit an ``ENOSPC``-shaped error call
    :meth:`note_failure` to force the low state immediately (the kernel
    is a better authority than statvfs).

    The store skips writes while low — computation
    continues from memory and everything still pending is flushed once
    space recovers.
    """

    def __init__(
        self,
        min_free_bytes: Optional[int] = None,
        interval: Optional[float] = None,
    ) -> None:
        if min_free_bytes is None:
            min_free_bytes = int(
                env_float(MIN_FREE_ENV, DEFAULT_MIN_FREE_MB) * 1024 * 1024
            )
        if interval is None:
            interval = env_float(
                DISK_CHECK_INTERVAL_ENV, DEFAULT_DISK_CHECK_INTERVAL
            )
        self.min_free_bytes = min_free_bytes
        self.interval = interval
        self._cache: Dict[str, tuple] = {}  # path -> (checked_at, ok)
        self._warned_low = False

    def free_bytes(self, path: str) -> Optional[int]:
        """Free bytes on ``path``'s filesystem, or ``None`` if unknown."""
        try:
            return shutil.disk_usage(_nearest_existing(path)).free
        except OSError:
            return None

    def ok(self, path: str) -> bool:
        """True when writing under ``path`` is currently allowed."""
        if self.min_free_bytes <= 0:
            return True
        now = time.monotonic()
        cached = self._cache.get(path)
        if cached is not None and now - cached[0] < self.interval:
            return cached[1]
        free = self.free_bytes(path)
        verdict = free is None or free >= self.min_free_bytes
        self._record(path, verdict, free, now)
        return verdict

    def note_failure(self, path: str) -> None:
        """Force the low state after a real write failure (ENOSPC)."""
        self._record(path, False, None, time.monotonic())

    def _record(
        self, path: str, verdict: bool, free: Optional[int], now: float
    ) -> None:
        self._cache[path] = (now, verdict)
        registry = get_registry()
        if free is not None:
            registry.set_gauge("resilience.disk_free_bytes", float(free))
        if not verdict and not self._warned_low:
            self._warned_low = True
            registry.inc("resilience.resource_pressure")
            where = f" ({free // (1024 * 1024)} MB free)" if free else ""
            warnings.warn(
                f"disk guard: free space under {path}{where} is below the "
                f"{self.min_free_bytes // (1024 * 1024)} MB threshold "
                f"({MIN_FREE_ENV}); writes there are "
                "paused — computation continues, pending records flush "
                "once space recovers"
            )
        elif verdict and self._warned_low:
            self._warned_low = False


_DISK_GUARD: Optional[DiskGuard] = None


def get_disk_guard() -> DiskGuard:
    """The process-wide disk guard (thresholds from the environment)."""
    global _DISK_GUARD
    if _DISK_GUARD is None:
        _DISK_GUARD = DiskGuard()
    return _DISK_GUARD


def reset_disk_guard() -> None:
    """Drop the singleton so the next use re-reads the environment."""
    global _DISK_GUARD
    _DISK_GUARD = None


def preflight_disk(*paths: Optional[str]) -> bool:
    """Check free space under every given path before a campaign starts.

    Returns False (after warning) when any target is already below the
    threshold — callers proceed anyway, degraded, matching the periodic
    guard's behaviour.
    """
    guard = get_disk_guard()
    verdict = True
    for path in paths:
        if path:
            verdict = guard.ok(path) and verdict
    return verdict


# --- per-worker memory ceiling ---------------------------------------------------

_SIZE_SUFFIXES = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3, "t": 1024 ** 4}


def parse_size(text: str) -> Optional[int]:
    """Parse ``512M``/``2G``/``1048576`` into bytes; ``None`` on garbage."""
    raw = text.strip().lower()
    if not raw:
        return None
    scale = 1
    if raw[-1] in _SIZE_SUFFIXES:
        scale = _SIZE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        return None
    if value <= 0:
        return None
    return int(value * scale)


def apply_memory_limit(env: Optional[str] = None) -> Optional[int]:
    """Cap this process's address space from ``REPRO_MAX_RSS``.

    Returns the limit applied in bytes, or ``None`` when unset, garbage
    (warns) or unsupported on the platform.  Applied in CLI entry
    points and in every pool worker (via the pool initializer), so one
    pathological run raises :class:`MemoryError` inside its own worker —
    which the execution layer records as a non-retryable outcome —
    instead of triggering the OOM killer and a pool death.
    """
    raw = env if env is not None else os.environ.get(MAX_RSS_ENV)
    limit = parse_tolerant(
        MAX_RSS_ENV, raw, None, parse_size,
        expected="a size (try 512M, 2G)",
    )
    if limit is None:
        return None
    try:
        import resource
    except ImportError:  # non-POSIX platform
        warnings.warn(
            f"{MAX_RSS_ENV} set but the resource module is unavailable; "
            "no memory limit applied"
        )
        return None
    try:
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    except (OSError, ValueError) as error:
        warnings.warn(f"cannot apply {MAX_RSS_ENV}={raw!r}: {error}")
        return None
    return limit


# --- per-config circuit breaker --------------------------------------------------

def breaker_threshold(default: int = DEFAULT_BREAKER_THRESHOLD) -> int:
    """Threshold from ``REPRO_BREAKER_THRESHOLD`` (0 disables), tolerant."""
    return env_int(BREAKER_THRESHOLD_ENV, default)
