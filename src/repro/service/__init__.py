"""Prediction-as-a-service: a hardened async front-end for the simulator.

The batch CLIs answer "run this campaign"; this package answers "keep
answering prediction queries until told to stop" — the operating mode a
design-space-exploration tool actually lives in.  The HTTP surface is
deliberately tiny (stdlib asyncio, JSON bodies, four routes); the bulk
of the package is the robustness machinery around it, built from the
same primitives the batch path already trusts:

* **Admission control** (:mod:`repro.service.admission`): a bounded
  queue with explicit backpressure — a full queue answers ``429`` with
  ``Retry-After``, never unbounded memory; the per-config circuit
  breaker (the batch paths' :class:`repro.analysis.faults.FailureLedger`
  over the same result store) answers ``503`` without burning a
  worker on a known-broken config.
* **Deadlines** (:mod:`repro.service.jobs`): every request carries one
  (client-supplied or the service default) and it propagates all the
  way into the worker as a run timeout — a client that gave up is never
  silently kept burning a worker.
* **A supervised worker pool** (:mod:`repro.service.supervisor`):
  process workers autoscale between ``workers_min``/``workers_max``
  with queue depth; hung or dead workers are recycled with the same
  watchdog machinery the parallel runner uses.
* **Graceful drain** (:mod:`repro.service.server`): SIGTERM stops
  admission, finishes in-flight work, records whatever was still
  queued as interrupted, flushes the result store, and exits with the
  resumable code 75 (:data:`repro.resilience.EXIT_INTERRUPTED`).
* **Idempotency and coalescing**: concurrent requests for the same
  config share one computation; a client retry with the same
  ``idempotency_key`` never duplicates work.

Request lifecycle (see ``docs/ARCHITECTURE.md`` § "Service")::

    POST /predict --> resolve --> admit --> queue --> execute --> memoize --> 200
                       |            |         |          |
                       |            |         |          +-- worker died/failed  500
                       |            |         |          +-- deadline exceeded   504 shed
                       |            |         +-- deadline before a worker free  504 shed
                       |            |         +-- SIGTERM drain                  503 drained
                       |            +-- circuit breaker open                     503
                       |            +-- queue full                               429 + Retry-After
                       +-- invalid body                                          400
                       +-- body too large                                        413
                       +-- draining                                              503
                       +-- same config in flight                  join it (coalesced)
                       +-- memoized answer                  hit --> 200, never admitted
"""

from repro.service.api import (
    ApiError,
    PredictionRequest,
    parse_prediction_request,
)
from repro.service.config import ServiceConfig
from repro.service.jobs import (
    COMPLETED,
    DRAINED,
    FAILED,
    QUEUED,
    RUNNING,
    SHED,
    Job,
    JobTable,
)
from repro.service.queue import AdmissionQueue, QueueFull
from repro.service.server import PredictionService

__all__ = [
    "ApiError",
    "PredictionRequest",
    "parse_prediction_request",
    "ServiceConfig",
    "Job",
    "JobTable",
    "QUEUED",
    "RUNNING",
    "COMPLETED",
    "FAILED",
    "SHED",
    "DRAINED",
    "AdmissionQueue",
    "QueueFull",
    "PredictionService",
]
