"""Export traces and metrics: Chrome ``trace_event`` JSON + flat reports.

``chrome://tracing`` and https://ui.perfetto.dev both load the JSON
object format::

    {"traceEvents": [{"name": ..., "cat": ..., "ph": "X", "ts": ...,
                      "dur": ..., "pid": ..., "tid": ...}, ...],
     "displayTimeUnit": "ms"}

Events come from two places: the in-process tracer buffer and the
per-worker JSONL spill files pool workers append under the spill
directory (see :mod:`repro.obs.tracing`).  The reader is tolerant the
same way the result store is — a truncated trailing line is skipped, not
fatal.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Dict, Iterable, List, Optional

from repro import fsio
# The module, not the name: ``repro.resilience`` imports ``repro.obs``
# and may still be initializing when this module loads.
from repro import resilience
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import Tracer, get_tracer

__all__ = [
    "collect_events",
    "read_spill_dir",
    "chrome_trace_document",
    "write_chrome_trace",
    "write_metrics",
    "metrics_report",
    "validate_trace_events",
]

#: Phases this exporter emits; the validator accepts exactly these.
_KNOWN_PHASES = {"X", "i", "B", "E", "M"}


def read_spill_dir(spill_dir: Optional[str]) -> List[dict]:
    """Load every ``trace-*.jsonl`` spill file under ``spill_dir``."""
    if not spill_dir or not os.path.isdir(spill_dir):
        return []
    events: List[dict] = []
    for fname in sorted(os.listdir(spill_dir)):
        if not (fname.startswith("trace-") and fname.endswith(".jsonl")):
            continue
        path = os.path.join(spill_dir, fname)
        try:
            with open(path) as fh:
                raw_lines = fh.readlines()
        except OSError as error:
            warnings.warn(f"trace export: cannot read {path}: {error}")
            continue
        for line in raw_lines:
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # truncated trailing line from a dead worker
            if isinstance(event, dict):
                events.append(event)
    return events


def collect_events(
    tracer: Optional[Tracer] = None, spill_dir: Optional[str] = None
) -> List[dict]:
    """Buffered + spilled events, merged and sorted by timestamp."""
    tracer = tracer or get_tracer()
    spill_dir = spill_dir if spill_dir is not None else tracer.spill_dir
    events = read_spill_dir(spill_dir) + tracer.events()
    events.sort(key=lambda e: e.get("ts", 0.0))
    return events


def _export_json(path: str, text: str, op: str) -> bool:
    """Durably write one export artifact; failures warn, never raise.

    Observability output is best-effort by contract: a full disk or an
    injected fault costs the artifact, not the campaign.  Returns True
    when the file landed.
    """
    if not resilience.get_disk_guard().ok(os.path.dirname(path) or "."):
        warnings.warn(
            f"obs export: skipping {path} (disk space low); "
            "the in-memory data is unaffected"
        )
        return False
    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        fsio.atomic_write_text(path, text, op=op)
    except OSError as error:
        resilience.get_disk_guard().note_failure(os.path.dirname(path) or ".")
        warnings.warn(f"obs export: cannot write {path}: {error}")
        return False
    return True


def chrome_trace_document(
    events: Iterable[dict], metadata: Optional[Dict] = None
) -> dict:
    """Wrap events in the Chrome trace JSON-object envelope."""
    document = {
        "traceEvents": list(events),
        "displayTimeUnit": "ms",
    }
    if metadata:
        document["otherData"] = dict(metadata)
    return document


def write_chrome_trace(
    path: str,
    tracer: Optional[Tracer] = None,
    spill_dir: Optional[str] = None,
    metadata: Optional[Dict] = None,
) -> int:
    """Write a Chrome-trace-loadable JSON file; returns the event count.

    Atomic and durable (tmp + fsync + rename via :mod:`repro.fsio`) so
    a crash mid-export never leaves a truncated file under the final
    name.  A failed write (``ENOSPC``, low disk) degrades to a warning:
    losing a trace must never lose the run that produced it.
    """
    events = collect_events(tracer, spill_dir)
    document = chrome_trace_document(events, metadata)
    _export_json(path, json.dumps(document), op="trace")
    return len(events)


def write_metrics(
    path: str,
    registry: Optional[MetricsRegistry] = None,
    extra: Optional[Dict[str, MetricsRegistry]] = None,
) -> dict:
    """Write a metrics snapshot JSON; returns the snapshot written.

    ``extra`` maps prefixes to additional registries (e.g. a runner's
    isolated execution counters) folded into the snapshot under
    ``<prefix>.<name>``.
    """
    registry = registry or get_registry()
    if extra:
        merged = MetricsRegistry()
        merged.merge_snapshot(registry, "")
        for prefix, other in extra.items():
            merged.merge_snapshot(other, f"{prefix}.")
        registry = merged
    snapshot = registry.snapshot()
    _export_json(
        path, json.dumps(snapshot, indent=2, sort_keys=True), op="metrics"
    )
    return snapshot


def metrics_report(snapshot: dict) -> str:
    """Flat human-readable report of a :meth:`MetricsRegistry.snapshot`."""
    lines: List[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        lines.append(f"counter    {name:<40s} {value:>14g}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        lines.append(f"gauge      {name:<40s} {value:>14g}")
    for name, summary in sorted(snapshot.get("histograms", {}).items()):
        if not summary.get("count"):
            continue
        lines.append(
            f"histogram  {name:<40s} n={summary['count']:<8d}"
            f" mean={summary['mean']:<12.1f}"
            f" p50={summary['p50']:<12.1f}"
            f" p95={summary['p95']:<12.1f}"
            f" p99={summary['p99']:<12.1f}"
        )
    return "\n".join(lines)


def validate_trace_events(document: object) -> List[str]:
    """Validate a trace document against the ``trace_event`` schema.

    Returns a list of problems (empty = valid).  Checks the envelope and
    the per-event required fields Chrome/Perfetto rely on: ``name``,
    ``ph`` (a phase this exporter emits), numeric ``ts``, numeric
    ``dur`` for complete events, and ``pid``/``tid``.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing name")
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"{where}: missing numeric ts")
        if phase == "X" and not isinstance(event.get("dur"), (int, float)):
            problems.append(f"{where}: complete event without numeric dur")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: missing integer {field}")
    return problems
