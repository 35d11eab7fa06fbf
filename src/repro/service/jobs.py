"""Job lifecycle: the unit of work between admission and response.

A :class:`Job` is one *computation* (keyed by the run's cache key), not
one HTTP request: concurrent requests for the same config attach to the
same job (single-flight coalescing), and a retry carrying a previously
seen ``idempotency_key`` re-attaches instead of re-enqueueing.  The
:class:`JobTable` owns both mappings.

State machine (terminal states are exactly what the chaos harness
asserts every accepted request reaches)::

    QUEUED --> RUNNING --> COMPLETED   result memoized, 200
                      \\--> FAILED      attempts exhausted, 500
           \\--> SHED                   every waiter's deadline passed
    RUNNING --> SHED                   last waiter gave up mid-run;
                                       the worker is aborted, not left
                                       burning
    QUEUED --> DRAINED                 SIGTERM before a worker was free;
                                       recorded interrupted, 503

Waiter accounting drives the deadline contract: each attached request
holds one reference; :meth:`Job.detach` drops it, and when the last
waiter of a non-terminal job detaches the job is either shed in place
(still queued) or its :attr:`Job.abort` event is set so the supervisor
kills the worker (running).
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Dict, Optional

from repro.analysis.parallel import RunRequest

__all__ = [
    "QUEUED",
    "RUNNING",
    "COMPLETED",
    "FAILED",
    "SHED",
    "DRAINED",
    "TERMINAL_STATES",
    "Job",
    "JobTable",
]

QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
#: Deadline-driven: either no worker freed up in time or the last
#: interested client gave up mid-run.  The config is not implicated.
SHED = "shed"
#: A graceful drain retired the job before it ran; its store failure
#: record (status ``interrupted``) lets a rerun pick it up.
DRAINED = "drained"

TERMINAL_STATES = frozenset((COMPLETED, FAILED, SHED, DRAINED))


class Job:
    """One admitted computation and everything waiting on it."""

    __slots__ = (
        "request",
        "key",
        "shard",
        "deadline",
        "state",
        "waiters",
        "attempts",
        "error",
        "payload",
        "done",
        "abort",
        "enqueued_at",
    )

    def __init__(
        self, request: RunRequest, deadline: float, enqueued_at: float
    ) -> None:
        self.request = request
        self.key = request.key
        self.shard = request.spec.abbr
        #: Absolute ``loop.time()`` deadline; the *latest* deadline of
        #: every attached waiter (a coalesced join may extend it).
        self.deadline = deadline
        self.state = QUEUED
        self.waiters = 1
        self.attempts = 0
        self.error: Optional[str] = None
        self.payload: Optional[dict] = None
        self.done = asyncio.Event()
        #: Set when nobody is waiting any more: the supervisor races the
        #: worker future against this and kills the worker if it wins.
        self.abort = asyncio.Event()
        self.enqueued_at = enqueued_at

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def attach(self, deadline: float) -> None:
        """One more request joins this job (coalescing / idempotent retry)."""
        self.waiters += 1
        if deadline > self.deadline:
            self.deadline = deadline

    def detach(self) -> None:
        """A waiter gives up (its deadline passed or its handler died).

        The last detach of a live job triggers the shed path: a queued
        job becomes terminal on the spot, a running one gets its abort
        event set and the supervisor finishes the transition after it
        has put the worker down.
        """
        self.waiters = max(0, self.waiters - 1)
        if self.waiters > 0 or self.terminal:
            return
        if self.state == QUEUED:
            self.finish(SHED, error="every waiter's deadline expired in queue")
        elif self.state == RUNNING:
            self.abort.set()

    def finish(
        self,
        state: str,
        payload: Optional[dict] = None,
        error: Optional[str] = None,
    ) -> None:
        """Transition to a terminal state exactly once and wake waiters."""
        if self.terminal:
            return
        self.state = state
        self.payload = payload
        self.error = error
        self.done.set()


class JobTable:
    """Live jobs by cache key, plus the idempotency-key alias map.

    Terminal jobs leave the key table immediately (their waiters hold
    direct references), so a later request for the same config starts a
    fresh job — or none at all: a memoized result is answered from the
    store before a job exists.  Idempotency aliases persist for the
    process lifetime, bounded, so a client retry *after* completion
    still maps to the same cache key rather than duplicating work.
    """

    #: Retained idempotency aliases; beyond this the oldest are evicted
    #: (a retry older than 64k intervening requests re-executes, which
    #: is correct-but-slower, never wrong — results are memoized).
    MAX_ALIASES = 65536

    def __init__(self) -> None:
        self._by_key: Dict[str, Job] = {}
        # idempotency_key -> cache key, oldest first.
        self._alias: OrderedDict[str, str] = OrderedDict()

    def active(self, key: str) -> Optional[Job]:
        job = self._by_key.get(key)
        if job is not None and job.terminal:
            # Lazily reaped: nothing re-registers terminal jobs.
            del self._by_key[key]
            return None
        return job

    def resolve_alias(self, idempotency_key: str) -> Optional[str]:
        return self._alias.get(idempotency_key)

    def register(self, job: Job, idempotency_key: Optional[str] = None) -> None:
        self._by_key[job.key] = job
        if idempotency_key is not None:
            self.remember_alias(idempotency_key, job.key)

    def remember_alias(self, idempotency_key: str, key: str) -> None:
        if (
            idempotency_key not in self._alias
            and len(self._alias) >= self.MAX_ALIASES
        ):
            self._alias.popitem(last=False)  # O(1), unlike a dict's first key
        self._alias[idempotency_key] = key

    def reap(self, job: Job) -> None:
        """Drop a job that reached a terminal state (idempotent)."""
        if self._by_key.get(job.key) is job:
            del self._by_key[job.key]

    def live_jobs(self):
        return [job for job in self._by_key.values() if not job.terminal]

    def __len__(self) -> int:
        return len(self._by_key)
