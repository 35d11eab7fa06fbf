"""Analysis and reporting: experiment runners for every table and figure
of the paper, scaling classification, text tables, ASCII plots, the
sharded simulation result store with its fault-tolerant parallel batch
executor, and the artifact-bundle exporter."""

from repro.analysis.classify import classify_scaling
from repro.analysis.faults import (
    BatchReport,
    ExecutionPolicy,
    RunOutcome,
)
from repro.analysis.parallel import ParallelRunner, RunRequest
from repro.analysis.runner import CachedRunner
from repro.analysis.simcache import ResultStore

__all__ = [
    "classify_scaling",
    "BatchReport",
    "CachedRunner",
    "ExecutionPolicy",
    "ParallelRunner",
    "ResultStore",
    "RunOutcome",
    "RunRequest",
]
