"""Service configuration: plain data, built by ``scripts/serve.py`` from
its flags (or by a caller directly), immutable once the server starts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.faults import DEFAULT_BREAKER_THRESHOLD

__all__ = ["ServiceConfig"]

DEFAULT_QUEUE_DEPTH = 64
DEFAULT_WORKERS_MIN = 1
DEFAULT_WORKERS_MAX = 4
#: Every run gets a timeout — the watchdog must always cover a hang, so
#: "no deadline" is not an admissible state, only a generous default.
DEFAULT_DEADLINE_S = 30.0
DEFAULT_MAX_BODY = 64 * 1024


@dataclass(frozen=True)
class ServiceConfig:
    """Resolved service configuration (immutable once the server starts)."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Result-store root (None = memory-only: no memoization across restarts).
    store_root: Optional[str] = None
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    workers_min: int = DEFAULT_WORKERS_MIN
    workers_max: int = DEFAULT_WORKERS_MAX
    #: Default per-request deadline (seconds) when the client sends none.
    default_deadline_s: float = DEFAULT_DEADLINE_S
    max_body_bytes: int = DEFAULT_MAX_BODY
    #: Consecutive terminal failures before a config fast-fails (0 disables).
    breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.workers_min < 1:
            raise ValueError(f"workers_min must be >= 1, got {self.workers_min}")
        if self.workers_max < self.workers_min:
            raise ValueError(
                f"workers_max ({self.workers_max}) must be >= "
                f"workers_min ({self.workers_min})"
            )
        if not self.default_deadline_s > 0:
            raise ValueError(
                f"default_deadline_s must be > 0, got {self.default_deadline_s}"
            )
        if self.breaker_threshold < 0:
            raise ValueError(
                f"breaker_threshold must be >= 0, got {self.breaker_threshold}"
            )
