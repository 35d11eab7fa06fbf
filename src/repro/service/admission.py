"""Admission control: the decisions made before a job earns a queue slot.

Two gates decide, and only one lives here:

* the per-config circuit breaker is the service's
  :class:`repro.analysis.faults.FailureLedger` — the same class over
  the same result store, and therefore the same quarantine history, as
  the batch CLIs.  It counts a key's streak from the store's failure
  records on first use, tracks outcomes live as jobs finish and writes
  each failure back, so the history survives a restart.  A success
  supersedes the records.  An open breaker is a fast-fail 503: no queue
  slot, no worker, and the response says how deep the streak is.
* :func:`retry_after_hint` — the backoff the 429 path advertises.  It
  scales with queue depth over drain rate so the hint reflects reality
  instead of a constant the client learns to ignore.
"""

from __future__ import annotations

__all__ = ["retry_after_hint"]


def retry_after_hint(
    depth: int, workers: int, mean_run_s: float, floor_s: float = 1.0
) -> float:
    """Seconds a refused client should wait before retrying.

    Depth over drain rate: with ``depth`` jobs ahead and ``workers``
    slots clearing about one job per ``mean_run_s``, the queue frees a
    slot in roughly ``depth * mean_run_s / workers`` seconds.  Clamped
    to ``[floor_s, 60]`` — sub-second hints cause retry storms, and
    anything past a minute is a guess dressed up as precision.
    """
    workers = max(1, workers)
    mean_run_s = mean_run_s if mean_run_s > 0 else floor_s
    estimate = depth * mean_run_s / workers
    return min(60.0, max(floor_s, estimate))
