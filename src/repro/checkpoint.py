"""Integrity-verified checkpoint/resume for long simulations.

PR-level fault tolerance (:mod:`repro.analysis.faults`) retries a failed
run — but a retry that starts from cycle zero pays for every cycle the
dead attempt already simulated.  This module makes the *intra-run*
progress durable: the GPU simulator snapshots its complete state at
kernel boundaries (the one point where the event queue is empty, so no
callback needs to serialize) and a retried attempt resumes from the
latest valid snapshot.

On-disk layout, one directory per run under the checkpoint root::

    results/checkpoints/<run-digest>/ckpt-<k>.json

where ``<run-digest>`` is a digest of the run's cache key and ``k`` is
the number of completed kernels.  Each file is a single JSON document::

    {"schema": 1, "sha256": "<hex digest of payload>", "payload": {...}}

written atomically (tmp + ``os.replace``), so a crash mid-write never
leaves a partial file under the final name.  On load the payload digest
and schema version are verified; a corrupt or version-drifted file is
*quarantined* (moved to ``quarantine/`` inside the run directory) with a
warning and resume falls back to the next-older snapshot, then to a cold
start — never to an exception.

``REPRO_CHECKPOINT_INTERVAL`` / ``--checkpoint-interval`` select how
many kernels run between snapshots (``1`` = every boundary, ``0``
disables checkpointing); parsing is tolerant the same way ``REPRO_JOBS``
is — garbage warns and falls back to the default instead of crashing.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro import fsio
from repro.exceptions import CheckpointError
from repro.obs.metrics import get_registry
from repro.obs.tracing import get_tracer
from repro.resilience import get_disk_guard

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_CHECKPOINT_ROOT",
    "CHECKPOINT_INTERVAL_ENV",
    "DEFAULT_CHECKPOINT_INTERVAL",
    "parse_checkpoint_interval",
    "default_checkpoint_interval",
    "run_digest",
    "CheckpointPolicy",
    "Checkpointer",
]

SCHEMA_VERSION = 1
DEFAULT_CHECKPOINT_ROOT = os.path.join("results", "checkpoints")
CHECKPOINT_INTERVAL_ENV = "REPRO_CHECKPOINT_INTERVAL"
DEFAULT_CHECKPOINT_INTERVAL = 1
QUARANTINE_DIR = "quarantine"

_CKPT_NAME = re.compile(r"^ckpt-(\d+)\.json$")


def parse_checkpoint_interval(
    value, default: int = DEFAULT_CHECKPOINT_INTERVAL
) -> int:
    """Tolerantly parse a checkpoint interval (kernels between snapshots).

    Mirrors the ``REPRO_JOBS`` contract: a non-integer or negative value
    warns and falls back to ``default``; ``0`` is valid and disables
    checkpointing.  ``None``/empty returns the default silently.
    """
    if value is None or value == "":
        return default
    try:
        interval = int(value)
    except (TypeError, ValueError):
        warnings.warn(
            f"checkpoint interval {value!r} is not an integer; "
            f"falling back to {default}"
        )
        return default
    if interval < 0:
        warnings.warn(
            f"checkpoint interval must be >= 0, got {interval}; "
            f"falling back to {default}"
        )
        return default
    return interval


def default_checkpoint_interval(
    default: int = DEFAULT_CHECKPOINT_INTERVAL,
) -> int:
    """Interval from ``REPRO_CHECKPOINT_INTERVAL``, tolerantly parsed."""
    return parse_checkpoint_interval(
        os.environ.get(CHECKPOINT_INTERVAL_ENV), default
    )


def run_digest(run_key: str) -> str:
    """Stable directory name for one run's checkpoints."""
    return hashlib.sha256(run_key.encode()).hexdigest()[:24]


def _payload_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class CheckpointPolicy:
    """Where, how often and whether to checkpoint and resume.

    ``root=None`` or ``interval=0`` disables checkpointing entirely;
    ``resume=False`` keeps writing snapshots (for post-mortems) but
    every run starts cold (``--no-resume``).
    """

    root: Optional[str] = DEFAULT_CHECKPOINT_ROOT
    interval: int = DEFAULT_CHECKPOINT_INTERVAL
    resume: bool = True

    @property
    def enabled(self) -> bool:
        return bool(self.root) and self.interval >= 1

    def checkpointer_for(
        self,
        run_key: str,
        on_checkpoint: Optional[Callable[[int], None]] = None,
    ) -> Optional["Checkpointer"]:
        """Build the per-run :class:`Checkpointer`, or ``None`` if disabled."""
        if not self.enabled:
            return None
        return Checkpointer(
            os.path.join(self.root, run_digest(run_key)),
            run_key=run_key,
            interval=self.interval,
            resume=self.resume,
            on_checkpoint=on_checkpoint,
        )


class Checkpointer:
    """Writes and reads one run's integrity-verified snapshots.

    The simulator drives it: :meth:`should_checkpoint` gates on the
    interval, :meth:`save` persists a snapshot, :meth:`load_latest`
    returns the newest valid payload for resume, and :meth:`cleanup`
    removes the run directory once the run completes (its result is in
    the cache; the snapshots have nothing left to protect).

    ``on_checkpoint(kernels_completed)`` fires after each durable save —
    the hook fault injection uses to kill a run *after* its progress is
    safe, which is exactly the crash window resume must cover.

    Save failures degrade to a warning: checkpoint I/O must never kill
    the simulation it protects.
    """

    def __init__(
        self,
        directory: str,
        run_key: str,
        interval: int = 1,
        resume: bool = True,
        on_checkpoint: Optional[Callable[[int], None]] = None,
    ) -> None:
        if interval < 1:
            raise CheckpointError(
                f"checkpoint interval must be >= 1, got {interval}"
            )
        self.directory = directory
        self.run_key = run_key
        self.interval = interval
        self.resume = resume
        self.on_checkpoint = on_checkpoint
        #: Kernel index the current run resumed from (None = cold start).
        self.resumed_from: Optional[int] = None
        #: Simulated cycles skipped thanks to the resume.
        self.cycles_saved: float = 0.0
        self.saves = 0
        self.quarantined = 0

    # --- writing ---------------------------------------------------------------
    def should_checkpoint(self, kernels_completed: int) -> bool:
        return kernels_completed % self.interval == 0

    def path_for(self, kernels_completed: int) -> str:
        return os.path.join(self.directory, f"ckpt-{kernels_completed}.json")

    def save(self, payload: dict) -> bool:
        """Atomically persist one snapshot; returns True when durable.

        ``payload`` must carry ``kernels_completed`` (the boundary index)
        and be JSON-serializable; the run key and schema version are
        stamped here so :meth:`load_latest` can reject foreign or
        version-drifted files.
        """
        kernels_completed = int(payload["kernels_completed"])
        tracer = get_tracer()
        with tracer.span(
            "checkpoint.save", cat="checkpoint", boundary=kernels_completed
        ):
            payload = dict(payload, run_key=self.run_key)
            record = {
                "schema": SCHEMA_VERSION,
                "sha256": _payload_digest(payload),
                "payload": payload,
            }
            path = self.path_for(kernels_completed)
            # Low disk: the simulation keeps running, just unprotected —
            # the next interval retries once space recovers.
            durable = get_disk_guard().ok(self.directory)
            if durable:
                try:
                    os.makedirs(self.directory, exist_ok=True)
                    fsio.atomic_write_text(
                        path, json.dumps(record), op="checkpoint"
                    )
                except (OSError, TypeError, ValueError) as error:
                    durable = False
                    get_disk_guard().note_failure(self.directory)
                    warnings.warn(
                        f"checkpoint: cannot write {path}: {error}; "
                        "continuing without this snapshot"
                    )
        if tracer.enabled:
            get_registry().inc(
                "checkpoint.saves" if durable else "checkpoint.save_failures"
            )
        if durable:
            self.saves += 1
            if self.on_checkpoint is not None:
                self.on_checkpoint(kernels_completed)
        return durable

    # --- reading ---------------------------------------------------------------
    def available(self) -> List[int]:
        """Boundary indices with a snapshot on disk, newest first."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        indices = []
        for name in names:
            match = _CKPT_NAME.match(name)
            if match:
                indices.append(int(match.group(1)))
        return sorted(indices, reverse=True)

    def load_latest(self) -> Optional[dict]:
        """Newest valid snapshot payload, or ``None`` for a cold start.

        Corrupt (digest mismatch, unparseable) and version-drifted files
        are quarantined with a warning and the next-older snapshot is
        tried; with ``resume=False`` nothing is read at all.
        """
        if not self.resume:
            return None
        tracer = get_tracer()
        with tracer.span("checkpoint.load", cat="checkpoint"):
            for kernels_completed in self.available():
                payload = self._load_one(self.path_for(kernels_completed))
                if payload is not None:
                    if tracer.enabled:
                        get_registry().inc("checkpoint.loads")
                    return payload
        return None

    def _load_one(self, path: str) -> Optional[dict]:
        try:
            with open(path) as fh:
                record = json.load(fh)
        except (OSError, json.JSONDecodeError) as error:
            self._quarantine(path, f"unreadable ({error})")
            return None
        if not isinstance(record, dict):
            self._quarantine(path, "not a JSON object")
            return None
        if record.get("schema") != SCHEMA_VERSION:
            self._quarantine(
                path,
                f"schema version {record.get('schema')!r} "
                f"(current is {SCHEMA_VERSION})",
            )
            return None
        payload = record.get("payload")
        if not isinstance(payload, dict):
            self._quarantine(path, "missing payload")
            return None
        if record.get("sha256") != _payload_digest(payload):
            self._quarantine(path, "payload digest mismatch")
            return None
        if payload.get("run_key") != self.run_key:
            self._quarantine(
                path, f"belongs to run {payload.get('run_key')!r}"
            )
            return None
        return payload

    def _quarantine(self, path: str, reason: str) -> None:
        """Move a bad snapshot aside so it is never retried or trusted."""
        qdir = os.path.join(self.directory, QUARANTINE_DIR)
        base = os.path.basename(path)
        dest = os.path.join(qdir, base)
        try:
            os.makedirs(qdir, exist_ok=True)
            suffix = 0
            while os.path.exists(dest):
                suffix += 1
                dest = os.path.join(qdir, f"{base}.{suffix}")
            fsio.replace_file(path, dest)
        except OSError:
            try:
                os.remove(path)
            except OSError:
                pass
        self.quarantined += 1
        warnings.warn(
            f"checkpoint: {path} is invalid — {reason}; quarantined, "
            "falling back to an older snapshot or a cold start"
        )

    # --- bookkeeping -----------------------------------------------------------
    def mark_resumed(self, kernels_completed: int, cycles: float) -> None:
        """Record that the run restarted past ``kernels_completed`` kernels."""
        self.resumed_from = kernels_completed
        self.cycles_saved = float(cycles)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "checkpoint.resume",
                cat="checkpoint",
                args={
                    "kernels_completed": kernels_completed,
                    "cycles_saved": float(cycles),
                },
            )

    def cleanup(self) -> None:
        """Remove the run's snapshots after a successful completion."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if _CKPT_NAME.match(name) or name.endswith(".tmp"):
                try:
                    os.remove(os.path.join(self.directory, name))
                except OSError:
                    pass
        # Drop the directory tree when nothing (e.g. quarantine) remains.
        for directory in (
            os.path.join(self.directory, QUARANTINE_DIR),
            self.directory,
        ):
            try:
                os.rmdir(directory)
            except OSError:
                pass
