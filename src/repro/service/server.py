"""The asyncio HTTP front-end: routes, drain, and the request handler.

Stdlib only: ``asyncio.start_server`` raw streams with a minimal
HTTP/1.1 parser (close-per-request).  A prediction service whose
dependency for *answering a socket* is larger than its simulator has
its robustness budget upside down — and this repository's rule is that
missing third-party packages are stubbed or avoided, not assumed.

Routes::

    POST /predict   run (or memoized-answer) one prediction
    GET  /healthz   process liveness (always 200 while the loop runs)
    GET  /readyz    admission readiness (503 while draining)
    GET  /statsz    metrics snapshot: queue, workers, latency, breaker,
                    store telemetry

Graceful drain (SIGTERM/SIGINT via
:class:`repro.resilience.ShutdownCoordinator`): stop accepting, refuse
new requests on live connections, let running jobs finish under their
own deadlines, retire queued jobs as ``drained`` (503 to their waiters,
``interrupted`` failure records in the store so a batch rerun picks
them up), flush the result store, exit
:data:`repro.resilience.EXIT_INTERRUPTED` (75).  A second signal
force-quits — that contract lives in the coordinator, unchanged.
"""

from __future__ import annotations

import asyncio
import json
import re
import warnings
from typing import Optional, Tuple

from repro.analysis.faults import INTERRUPTED as RUN_INTERRUPTED
from repro.analysis.faults import FailureLedger
from repro.analysis.simcache import ResultStore
from repro.exceptions import ReproError
from repro.obs.metrics import get_registry
from repro.obs.resources import current_rss_bytes, peak_rss_bytes
from repro.resilience import (
    EXIT_INTERRUPTED,
    EXIT_OK,
    get_coordinator,
    preflight_disk,
)
from repro.service.admission import retry_after_hint
from repro.service.api import ApiError, parse_prediction_request
from repro.service.config import ServiceConfig
from repro.service.jobs import (
    COMPLETED,
    DRAINED,
    FAILED,
    SHED,
    Job,
    JobTable,
)
from repro.service.queue import AdmissionQueue, QueueFull
from repro.service.supervisor import Supervisor

__all__ = ["PredictionService"]

_MAX_HEADER_BYTES = 16 * 1024

#: One deadline for reading a whole request, head and body.
_REQUEST_DEADLINE_S = 30.0

#: Hard ceiling on accepted run deadlines; longer requests are clamped.
MAX_DEADLINE_S = 300.0

#: The blank line that ends a request head, CRLF or bare LF.
_HEAD_END = re.compile(rb"\r?\n\r?\n")

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Failure-record note on a job the drain retired (recorded ``interrupted``).
_DRAINED_NOTE = "service drained before completion"

#: HTTP status each terminal job state answers with.
_STATE_STATUS = {COMPLETED: 200, FAILED: 500, SHED: 504, DRAINED: 503}


class _HttpError(ReproError):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _response_bytes(
    status: int, body: dict, extra_headers: Tuple[Tuple[str, str], ...] = ()
) -> bytes:
    payload = json.dumps(body).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + payload


class PredictionService:
    """The composed service: admission, queue, supervisor, HTTP surface."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.store = ResultStore(config.store_root)
        # Over the store, so service and batch CLIs share one
        # quarantine history.
        self.breaker = FailureLedger(self.store, config.breaker_threshold)
        self.queue = AdmissionQueue(config.queue_depth)
        self.jobs = JobTable()
        self.supervisor = Supervisor(
            self.queue,
            config,
            on_result=self._memoize,
            on_outcome=self._account,
        )
        self.draining = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop: Optional[asyncio.Event] = None  # created in serve()
        self._exit_code = EXIT_OK
        self._mean_run_s = 1.0
        self.port: Optional[int] = None

    # --- bookkeeping callbacks (from the supervisor) -----------------------
    def _memoize(self, key: str, shard: str, payload: dict) -> None:
        self.store.put(key, payload, shard=shard)

    def _account(self, job: Job, outcome) -> None:
        registry = get_registry()
        registry.inc(f"service.jobs.{job.state}")
        loop = asyncio.get_running_loop()
        elapsed = max(0.0, loop.time() - job.enqueued_at)
        if job.state == COMPLETED:
            # EWMA of run time feeds the Retry-After hint.
            self._mean_run_s = 0.8 * self._mean_run_s + 0.2 * max(
                0.01, elapsed
            )
        self.breaker.record([outcome])
        self.jobs.reap(job)

    # --- admission ---------------------------------------------------------
    async def _admit(
        self, body: bytes
    ) -> Tuple[str, Optional[Job], Optional[dict]]:
        """Validate one request and find what answers it.

        Returns ``(key, job, payload)``.  A memoized answer comes back
        as ``payload`` with no job: it never takes a queue slot, so
        backpressure cannot refuse it.  Otherwise ``job`` is the
        in-flight job the request joined or the new one it enqueued.
        The order is the contract — validate, drain, idempotency alias,
        live job, store, breaker, queue.  Raises :class:`ApiError`
        (maps to 4xx/5xx) or :class:`QueueFull` on refusal.
        """
        request = parse_prediction_request(body)
        registry = get_registry()
        if self.draining:
            registry.inc("service.rejects.draining")
            raise ApiError("service is draining; retry elsewhere", status=503)

        run_request = request.run_request
        key = run_request.key
        token = request.idempotency_key

        # Idempotent retry: same token, same work, one execution.
        if token is not None:
            aliased = self.jobs.resolve_alias(token)
            if aliased is not None and aliased != key:
                raise ApiError(
                    "idempotency_key was previously used for a different "
                    "request; keys must be unique per configuration",
                    status=400,
                )

        existing = self.jobs.active(key)
        if existing is None:
            cached = self.store.get(key)
            if cached is not None:
                if token is not None:
                    self.jobs.remember_alias(token, key)
                registry.inc("service.cache_hits")
                return key, None, cached

        loop = asyncio.get_running_loop()
        deadline = loop.time() + min(
            request.deadline_s or self.config.default_deadline_s,
            MAX_DEADLINE_S,
        )
        if existing is not None:
            existing.attach(deadline)
            if token is not None:
                self.jobs.remember_alias(token, key)
            registry.inc("service.coalesced")
            return key, existing, None

        if self.breaker.tripped(key):
            registry.inc("service.rejects.breaker")
            raise ApiError(
                f"circuit breaker open for this configuration "
                f"({self.breaker.streak(key)} consecutive terminal "
                "failures on record); fix the config, then re-run it "
                "with the batch CLI's --retry-quarantined to re-arm",
                status=503,
            )

        job = Job(run_request, deadline, enqueued_at=loop.time())
        try:
            await self.queue.put(
                job,
                retry_after_s=retry_after_hint(
                    self.queue.depth,
                    self.supervisor.worker_count,
                    self._mean_run_s,
                ),
            )
        except QueueFull:
            registry.inc("service.rejects.queue_full")
            raise
        self.jobs.register(job, token)
        registry.inc("service.admitted")
        registry.set_gauge("service.queue_depth", float(self.queue.depth))
        return key, job, None

    async def _predict(self, body: bytes) -> Tuple[int, dict, Tuple]:
        loop = asyncio.get_running_loop()
        started = loop.time()
        registry = get_registry()
        registry.inc("service.requests")

        try:
            key, job, payload = await self._admit(body)
        except ApiError as error:
            if error.status == 400:
                registry.inc("service.rejects.invalid")
            return error.status, {"status": "rejected", "error": str(error)}, ()
        except QueueFull as error:
            return (
                429,
                {
                    "status": "rejected",
                    "error": str(error),
                    "retry_after_s": error.retry_after_s,
                },
                (("Retry-After", str(max(1, int(error.retry_after_s)))),),
            )

        # A memoized answer is complete as it stands; a job is waited for.
        state, error = COMPLETED, None
        if job is not None:
            try:
                remaining = max(0.0, job.deadline - loop.time())
                await asyncio.wait_for(
                    job.done.wait(), timeout=remaining + 0.05
                )
            except asyncio.TimeoutError:
                job.detach()
                registry.inc("service.shed")
                registry.observe(
                    "service.latency_ms", (loop.time() - started) * 1000.0
                )
                return (
                    504,
                    {
                        "status": "shed",
                        "key": key,
                        "error": "deadline expired before a result was ready",
                    },
                    (),
                )
            state, payload, error = job.state, job.payload, job.error
            if state == SHED:
                registry.inc("service.shed")

        latency_ms = (loop.time() - started) * 1000.0
        registry.observe("service.latency_ms", latency_ms)
        body_out = {
            "status": state,
            "key": key,
            "cached": job is None,
            "latency_ms": round(latency_ms, 3),
        }
        if state == COMPLETED:
            body_out["result"] = payload
        else:
            body_out["error"] = error
        return _STATE_STATUS.get(state, 500), body_out, ()

    # --- plain GET routes --------------------------------------------------
    def _statsz(self) -> dict:
        registry = get_registry()
        registry.set_gauge("service.queue_depth", float(self.queue.depth))
        registry.set_gauge(
            "service.rss_bytes", float(current_rss_bytes() or peak_rss_bytes())
        )
        snapshot = registry.snapshot()
        return {
            "queue": {
                "depth": self.queue.depth,
                "capacity": self.config.queue_depth,
            },
            "workers": {
                "count": self.supervisor.worker_count,
                "busy": self.supervisor.busy_count,
                "min": self.config.workers_min,
                "max": self.config.workers_max,
                "recycles": self.supervisor.recycles,
            },
            "breaker": self.breaker.snapshot(),
            # The counters read so far: a stats call loads no shard.
            "store": self.store.counters(),
            "draining": self.draining,
            "metrics": snapshot,
        }

    # --- HTTP plumbing -----------------------------------------------------
    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        """Head (CRLF or bare-LF line endings), then body.  The head
        normally arrives in one segment, so the loop reads once; a
        trickling client costs one short search per segment, and the
        header limit bounds how many."""
        buffer, end = b"", None
        while end is None and len(buffer) <= _MAX_HEADER_BYTES:
            chunk = await reader.read(_MAX_HEADER_BYTES)
            if not chunk:
                if not buffer:
                    raise ConnectionError("client closed before sending a request")
                break  # EOF ends the head, as it would have ended a line
            # The blank line may straddle segments: back up three bytes.
            searched = max(0, len(buffer) - 3)
            buffer += chunk
            end = _HEAD_END.search(buffer, searched)
        head, body = buffer, b""
        if end is not None:
            head, body = buffer[: end.start()], buffer[end.end():]
        if len(head) > _MAX_HEADER_BYTES:
            raise _HttpError(431, "request headers too large")

        lines = head.decode("latin-1").split("\n")
        parts = lines[0].split()
        if len(parts) < 3:
            raise _HttpError(400, "malformed request line")
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                if not value.strip().isdecimal():
                    raise _HttpError(400, "bad Content-Length header")
                content_length = int(value)

        if content_length > self.config.max_body_bytes:
            raise _HttpError(
                413,
                f"body of {content_length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte limit",
            )
        if len(body) < content_length:
            try:
                body += await reader.readexactly(content_length - len(body))
            except asyncio.IncompleteReadError:
                raise _HttpError(400, "body shorter than Content-Length")
        return method, path, body[:content_length]

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                # One deadline for the whole request, head and body.
                method, path, body = await asyncio.wait_for(
                    self._read_request(reader), timeout=_REQUEST_DEADLINE_S
                )
            except (asyncio.TimeoutError, _HttpError) as error:
                if not isinstance(error, _HttpError):
                    error = _HttpError(400, "timed out reading the request")
                writer.write(
                    _response_bytes(
                        error.status, {"status": "rejected", "error": str(error)}
                    )
                )
                return
            except (ConnectionError, OSError):
                return

            if method == "POST" and path == "/predict":
                status, payload, headers = await self._predict(body)
            elif method == "GET" and path == "/healthz":
                status, payload, headers = 200, {"status": "alive"}, ()
            elif method == "GET" and path == "/readyz":
                if self.draining:
                    status, payload = 503, {"status": "draining"}
                else:
                    status, payload = 200, {"status": "ready"}
                headers = ()
            elif method == "GET" and path == "/statsz":
                status, payload, headers = 200, self._statsz(), ()
            elif path in ("/predict", "/healthz", "/readyz", "/statsz"):
                status, payload, headers = (
                    405,
                    {"status": "rejected", "error": f"{method} not allowed"},
                    (),
                )
            else:
                status, payload, headers = (
                    404,
                    {"status": "rejected", "error": f"no route {path}"},
                    (),
                )
            try:
                writer.write(_response_bytes(status, payload, tuple(headers)))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    # --- lifecycle ---------------------------------------------------------
    async def serve(self) -> int:
        """Run until a drain is requested; returns the process exit code."""
        coordinator = get_coordinator()
        self._stop = asyncio.Event()
        if self.config.store_root:
            preflight_disk(self.config.store_root)
        self.supervisor.start()
        self._server = await asyncio.start_server(
            self._handle, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        get_registry().set_gauge("service.queue_depth", 0.0)

        watcher = asyncio.get_running_loop().create_task(
            self._watch_shutdown(coordinator)
        )
        try:
            await self._stop.wait()
        finally:
            watcher.cancel()
        return self._exit_code

    def request_stop(self, exit_code: int = EXIT_OK) -> None:
        """Programmatic stop (tests); same drain path as a signal."""
        if self._stop is not None and not self._stop.is_set():
            asyncio.get_running_loop().create_task(
                self._drain_and_stop(exit_code)
            )

    async def _watch_shutdown(self, coordinator) -> None:
        while not coordinator.requested:
            await asyncio.sleep(0.05)
        await self._drain_and_stop(EXIT_INTERRUPTED)

    async def _drain_and_stop(self, exit_code: int) -> None:
        """The drain sequence; see the module docstring for the contract."""
        if self.draining:
            return
        self.draining = True
        get_registry().inc("service.drains")
        if self._server is not None:
            self._server.close()

        # Queued-but-never-started jobs: terminal state `drained`, 503 to
        # their waiters, an `interrupted` failure record for reruns.
        for job in self.queue.drain():
            job.finish(
                DRAINED,
                error="service drained before the run started; "
                "its failure record marks it for a batch rerun",
            )
            self.supervisor.job_finished(job, RUN_INTERRUPTED, _DRAINED_NOTE)

        # Running jobs finish under their own deadlines; belt of 2x the
        # default deadline in case a deadline computation went wrong.
        await self.supervisor.stop(
            drain_timeout=self.config.default_deadline_s * 2
        )

        # Anything still live in the table (e.g. popped by a slot that
        # was cancelled by the drain timeout) is retired the same way.
        for job in self.jobs.live_jobs():
            job.finish(DRAINED, error="service drained mid-flight")
            self.supervisor.job_finished(job, RUN_INTERRUPTED, _DRAINED_NOTE)

        self.store.flush()
        if self.store.pending:
            warnings.warn(
                f"service drain: {self.store.pending} result record(s) "
                "could not be flushed (disk pressure?); they are lost to "
                "the store but were already served to clients"
            )
        if self._server is not None:
            await self._server.wait_closed()
        self._exit_code = exit_code
        self._stop.set()
