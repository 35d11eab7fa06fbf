"""Wire schema for the prediction service: request parsing, responses.

One POST body, validated field by field into a
:class:`PredictionRequest`, which maps 1:1 onto the batch layer's
:class:`repro.analysis.parallel.RunRequest` — the service never invents
its own execution semantics, it fronts the existing ones.

Validation is strict where the batch CLIs are strict (unknown
benchmark, bad kind) and *rejecting* rather than tolerant: a malformed
request is a client bug the client should hear about as a ``400``, not
a knob to degrade — the tolerant-parse policy applies to operator
environment knobs, not to the wire.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from repro.analysis.parallel import KINDS, RunRequest
from repro.analysis.runner import MAX_SYSTEM_SIZE
from repro.exceptions import ReproError
from repro.workloads import get_benchmark

__all__ = [
    "ApiError",
    "PredictionRequest",
    "parse_prediction_request",
    "MRC_METHODS",
]

#: MRC collection methods the runner accepts.
MRC_METHODS = ("stack", "lru", "statstack")

#: Fields a /predict body may carry; anything else is a client error
#: (catching typos like "benchmrk" beats silently ignoring them).
_ALLOWED_FIELDS = frozenset(
    (
        "kind",
        "benchmark",
        "size",
        "work_scale",
        "seed",
        "method",
        "weak",
        "deadline_s",
        "idempotency_key",
    )
)

_MAX_WORK_SCALE = 4096.0
_MAX_SEED = 2 ** 31 - 1


class ApiError(ReproError):
    """A request the service refuses; carries the HTTP status to answer."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class PredictionRequest:
    """One validated prediction query, ready to become a run."""

    kind: str
    benchmark: str
    size: int = 0
    work_scale: float = 1.0
    seed: int = 0
    method: str = "stack"
    weak: bool = False
    #: Seconds the client is willing to wait (None = service default).
    deadline_s: Optional[float] = None
    #: Client-chosen retry token: same token, same work, one execution.
    idempotency_key: Optional[str] = None

    @cached_property
    def run_request(self) -> RunRequest:
        """The batch-layer run this request maps onto, built once:
        :func:`parse_prediction_request` resolves it to validate the
        benchmark and admission reads the same object (and its key)."""
        spec = get_benchmark(self.benchmark, weak=self.weak)
        return RunRequest(
            kind=self.kind,
            spec=spec,
            size=self.size,
            work_scale=self.work_scale,
            seed=self.seed,
            method=self.method,
        )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ApiError(message)


def parse_prediction_request(body: bytes) -> PredictionRequest:
    """Parse and validate one ``/predict`` body; raises :class:`ApiError`.

    Every failure names the offending field — a 400 the client cannot
    act on is as useless as a stack trace.
    """
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ApiError(f"request body is not valid JSON: {error}")
    _require(isinstance(data, dict), "request body must be a JSON object")
    unknown = sorted(set(data) - _ALLOWED_FIELDS)
    _require(
        not unknown,
        f"unknown field(s) {unknown}; allowed: {sorted(_ALLOWED_FIELDS)}",
    )

    kind = data.get("kind", "sim")
    _require(
        isinstance(kind, str) and kind in KINDS,
        f"kind must be one of {list(KINDS)}, got {kind!r}",
    )
    benchmark = data.get("benchmark")
    _require(
        isinstance(benchmark, str) and benchmark,
        "benchmark is required (a Table II/IV abbreviation, e.g. 'va')",
    )

    weak = data.get("weak", False)
    _require(isinstance(weak, bool), f"weak must be a boolean, got {weak!r}")

    size = data.get("size", 0)
    _require(
        isinstance(size, int) and not isinstance(size, bool),
        f"size must be an integer, got {size!r}",
    )
    if kind in ("sim", "mcm"):
        _require(
            1 <= size <= MAX_SYSTEM_SIZE,
            f"size must be in [1, {MAX_SYSTEM_SIZE}] for kind {kind!r}, "
            f"got {size}",
        )
    else:
        _require(size == 0, "size does not apply to kind 'mrc'; omit it")

    work_scale = data.get("work_scale", 1.0)
    _require(
        isinstance(work_scale, (int, float)) and not isinstance(work_scale, bool),
        f"work_scale must be a number, got {work_scale!r}",
    )
    work_scale = float(work_scale)
    _require(
        0.0 < work_scale <= _MAX_WORK_SCALE,
        f"work_scale must be in (0, {_MAX_WORK_SCALE:g}], got {work_scale}",
    )

    seed = data.get("seed", 0)
    _require(
        isinstance(seed, int)
        and not isinstance(seed, bool)
        and 0 <= seed <= _MAX_SEED,
        f"seed must be an integer in [0, {_MAX_SEED}], got {seed!r}",
    )

    method = data.get("method", "stack")
    _require(
        isinstance(method, str) and method in MRC_METHODS,
        f"method must be one of {list(MRC_METHODS)}, got {method!r}",
    )

    deadline_s = data.get("deadline_s")
    if deadline_s is not None:
        _require(
            isinstance(deadline_s, (int, float))
            and not isinstance(deadline_s, bool)
            and deadline_s > 0,
            f"deadline_s must be a positive number, got {deadline_s!r}",
        )
        deadline_s = float(deadline_s)

    idempotency_key = data.get("idempotency_key")
    if idempotency_key is not None:
        _require(
            isinstance(idempotency_key, str)
            and 0 < len(idempotency_key) <= 256,
            "idempotency_key must be a non-empty string of <= 256 chars",
        )

    request = PredictionRequest(
        kind=kind,
        benchmark=benchmark,
        size=size,
        work_scale=work_scale,
        seed=seed,
        method=method,
        weak=weak,
        deadline_s=deadline_s,
        idempotency_key=idempotency_key,
    )
    # Resolve the benchmark now so an unknown abbreviation is a 400 at
    # admission, not a failed run that costs a queue slot and a worker.
    try:
        request.run_request  # built here, kept on the request for admission
    except ReproError as error:
        raise ApiError(str(error))
    return request
