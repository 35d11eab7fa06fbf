"""Exception hierarchy for the repro package.

Every error raised deliberately by this code base derives from
:class:`ReproError`, so callers can catch package failures without
swallowing genuine bugs (``TypeError``, ``KeyError``, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A system configuration is inconsistent or cannot be derived."""


class SimulationError(ReproError):
    """The timing simulator reached an invalid state."""


class TraceError(ReproError):
    """A workload trace is malformed or cannot be generated."""


class PredictionError(ReproError):
    """The scale-model predictor received inputs it cannot use."""


class WorkloadError(ReproError):
    """An unknown benchmark or an unsupported workload configuration."""


class InvariantError(ReproError):
    """A paranoia-mode invariant check failed: simulator state is
    internally inconsistent.

    Raised only while :mod:`repro.verify` is installed (``REPRO_VERIFY=1``
    / ``--verify``).  Deliberately *not* retried by the execution layer's
    fault handling in spirit — an invariant violation is a model bug, not
    a transient fault — but it derives from :class:`ReproError` so
    keep-going campaigns record it in the failure manifest like any other
    casualty instead of dying mid-batch.
    """


class CampaignError(ReproError):
    """A campaign-level orchestration failure (journal, plan, resume).

    Raised by :mod:`repro.campaign` for conditions the operator must
    resolve — a journal sealed for a *different* plan, an unreadable
    header — never for per-workload casualties, which campaigns record
    in their artifact and press on from.
    """


class CampaignIncomplete(CampaignError):
    """A campaign stopped (drain or budget) before any unit completed.

    There is no artifact to write — not even a partial one — but the
    situation is resumable: the journal holds whatever was sealed, and
    rerunning the same command continues the sweep.  CLI boundaries map
    this to :data:`repro.resilience.EXIT_INTERRUPTED` (75).
    """

    def __init__(self, message: str, reason: str = "interrupted"):
        super().__init__(message)
        self.reason = reason


class ExecutionError(ReproError):
    """A batch execution finished with runs that failed despite retries.

    Raised by :class:`repro.analysis.parallel.ParallelRunner` *after* all
    completed results have been merged into the result store, so catching
    it never costs finished work; the failed runs are described in the
    failure manifest (``results/failures/``).
    """


class ShutdownRequested(BaseException):
    """A graceful shutdown (SIGINT/SIGTERM) drained the current campaign.

    Deliberately *not* a :class:`ReproError`: ``--keep-going`` handlers
    catch :class:`ReproError` to skip one failed experiment and press on,
    and a shutdown must never be swallowed that way.  Like
    :class:`KeyboardInterrupt` it derives from :class:`BaseException`
    and is raised only after the partial-progress contract has been
    honoured — completed results merged, the failure manifest written —
    so catching it at the CLI boundary and exiting with
    :data:`repro.resilience.EXIT_INTERRUPTED` loses nothing.
    """

    def __init__(self, message: str = "shutdown requested", signum: int = 0):
        super().__init__(message)
        self.signum = signum
