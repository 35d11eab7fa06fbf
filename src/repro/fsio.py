"""Durable filesystem writes, shared by every persistence seam.

Several modules used to carry their own "atomic" tmp + rename writers
(:mod:`repro.analysis.simcache`, :mod:`repro.obs.export` among them) —
and none of them ``fsync``'d the file or its directory, so a power loss
shortly after the rename could still surface a truncated file under the
final name.  This module is the single implementation all of them now
use:

* :func:`atomic_write_text` — write to ``<path>.tmp``, flush + fsync,
  rename over ``path``, fsync the directory.  A crash at any point
  leaves either the old content or the new content under ``path``,
  never a mixture and never a torn page the rename made visible before
  the data was durable.
* :func:`append_text` — append + flush + fsync for the append-only
  JSONL shards (result store, campaign journal).  The directory is only
  fsync'd when the append created the file (that is the only case where
  the *name* is new).
* ``REPRO_NO_FSYNC=1`` skips the fsync calls (not the atomicity) — an
  escape hatch for test suites and throwaway runs where the fsync cost
  dominates.

Chaos seams: every writer takes an ``op`` label (``store``, ``trace``,
``metrics``, ``journal``) checked against the
``REPRO_FAULT_INJECT`` plan (see :mod:`repro.analysis.faults`).
``enospc:<op>`` raises :class:`OSError` ``ENOSPC`` before any byte is
written; ``partial-write:<op>`` persists a truncated prefix and *then*
raises, modelling a disk that filled mid-write; ``slow-io:<op>``
sleeps first.  The injection check is one environment lookup when no
plan is armed.
"""

from __future__ import annotations

import errno
import os
import time
from typing import Optional, Tuple

__all__ = [
    "NO_FSYNC_ENV",
    "fsync_enabled",
    "fsync_dir",
    "atomic_write_text",
    "append_text",
]

NO_FSYNC_ENV = "REPRO_NO_FSYNC"


def fsync_enabled() -> bool:
    """False when ``REPRO_NO_FSYNC=1`` disables the durability syncs."""
    return os.environ.get(NO_FSYNC_ENV, "") != "1"


def fsync_dir(path: str) -> None:
    """Best-effort fsync of a directory (needed after create/rename).

    Some filesystems refuse ``open(O_RDONLY)`` on directories or
    ``fsync`` on the resulting descriptor; durability degrades silently
    there — the same contract the kernel gives everyone else.
    """
    if not fsync_enabled():
        return
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _io_fault(op: Optional[str]) -> Optional[Tuple[str, Optional[float]]]:
    """The armed io-fault ``(action, arg)`` for ``op``, or ``None``.

    Imports the fault grammar lazily: a module-level import would cycle
    through ``repro.analysis`` (simcache and export both
    import this leaf).  With no plan armed the cost is one environment lookup.
    """
    if not op:
        return None
    from repro.analysis.faults import next_io_fault

    return next_io_fault(op)


def _apply_pre_write_fault(
    action: Optional[Tuple[str, Optional[float]]], path: str
) -> bool:
    """Handle slow-io/enospc before writing; True = truncate (partial)."""
    if action is None:
        return False
    kind, arg = action
    if kind == "slow-io":
        time.sleep(arg if arg is not None else 0.05)
        return False
    if kind == "enospc":
        raise OSError(
            errno.ENOSPC, f"injected ENOSPC (fault plan) writing {path}"
        )
    return kind == "partial-write"


def atomic_write_text(path: str, text: str, op: Optional[str] = None) -> None:
    """Durably replace ``path`` with ``text`` (tmp + fsync + rename).

    A crash at any point leaves either the previous file or the new one
    under ``path`` — the tmp file may survive, which every caller either
    overwrites on the next attempt or sweeps up in its cleanup path.
    """
    partial = _apply_pre_write_fault(_io_fault(op), path)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        if partial:
            fh.write(text[: max(1, len(text) // 2)])
            fh.flush()
            raise OSError(
                errno.ENOSPC,
                f"injected partial write (fault plan) writing {path}",
            )
        fh.write(text)
        if fsync_enabled():
            fh.flush()
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    parent = os.path.dirname(path)
    if parent:
        fsync_dir(parent)


def append_text(path: str, text: str, op: Optional[str] = None) -> None:
    """Durably append ``text`` to ``path`` (flush + fsync).

    An interrupted append can leave a truncated final line — which every
    JSONL reader in this repository tolerates — but a completed call
    means the bytes are on the platter, not in the page cache.
    """
    partial = _apply_pre_write_fault(_io_fault(op), path)
    created = not os.path.exists(path)
    with open(path, "a") as fh:
        if partial:
            fh.write(text[: max(1, len(text) // 2)])
            fh.flush()
            raise OSError(
                errno.ENOSPC,
                f"injected partial write (fault plan) appending to {path}",
            )
        fh.write(text)
        if fsync_enabled():
            fh.flush()
            os.fsync(fh.fileno())
    if created:
        parent = os.path.dirname(path)
        if parent:
            fsync_dir(parent)
