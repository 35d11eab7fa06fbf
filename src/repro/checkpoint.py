"""What is left of intra-run checkpointing: one inert policy type.

Checkpointing was removed; the run is the only recovery unit.  This stub
exists only because ``benchmarks/perf/workloads.py`` still passes
``CachedRunner(..., checkpoint=CheckpointPolicy(root=None))``; the
benchmark change that drops that argument deletes this module too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class CheckpointPolicy:
    """Accepted and ignored; any ``root`` other than ``None`` is refused."""

    root: Optional[str] = None

    def __post_init__(self) -> None:
        if self.root is not None:
            raise ConfigurationError("checkpointing was removed")
