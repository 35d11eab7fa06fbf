"""repro.obs — unified observability: metrics, tracing, profiling, logs.

One subsystem answers "what did this run actually do, and where did the
time go":

* :mod:`repro.obs.metrics` — process-wide counters, gauges and
  streaming histograms (:func:`get_registry`);
* :mod:`repro.obs.tracing` — spans and instant events with bounded
  buffers and JSONL spill (:func:`get_tracer`);
* :mod:`repro.obs.export` — Chrome ``trace_event`` / Perfetto JSON and
  flat metrics reports;
* :mod:`repro.obs.profile_hooks` — the ``REPRO_OBS`` switch over the
  guarded recording sites in the simulator event loop, the parallel
  runner and store I/O;
* :mod:`repro.obs.logging` — the one structured-logging setup
  (``--log-format human|json``).

CLI entry points call :func:`bootstrap` once; the returned
:class:`ObsSession` owns output paths, worker spill plumbing and the
final export.
"""

from __future__ import annotations

import os
import shutil
from typing import Dict, Optional

from repro.obs.export import (
    metrics_report,
    validate_trace_events,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.logging import get_logger, setup_logging
from repro.obs.metrics import CounterBag, MetricsRegistry, get_registry
from repro.obs.profile_hooks import (
    OBS_ENV,
    SPILL_ENV,
    install,
    obs_enabled,
    uninstall,
)
from repro.obs.resources import (
    PEAK_RSS_GAUGE,
    peak_rss_bytes,
    sample_peak_rss,
)
from repro.obs.tracing import Tracer, get_tracer

__all__ = [
    "CounterBag",
    "MetricsRegistry",
    "Tracer",
    "ObsSession",
    "bootstrap",
    "get_registry",
    "get_tracer",
    "get_logger",
    "setup_logging",
    "install",
    "uninstall",
    "obs_enabled",
    "metrics_report",
    "validate_trace_events",
    "write_chrome_trace",
    "write_metrics",
    "peak_rss_bytes",
    "sample_peak_rss",
    "PEAK_RSS_GAUGE",
    "OBS_ENV",
    "SPILL_ENV",
]

_log = get_logger("obs")


class ObsSession:
    """One CLI invocation's observability plumbing.

    Created by :func:`bootstrap`.  When active it owns the spill
    directory pool workers append to, and :meth:`finalize` merges
    everything into the requested artifacts.
    """

    def __init__(
        self,
        active: bool,
        trace_out: Optional[str] = None,
        metrics_out: Optional[str] = None,
        spill_dir: Optional[str] = None,
    ) -> None:
        self.active = active
        self.trace_out = trace_out
        self.metrics_out = metrics_out
        self.spill_dir = spill_dir

    def finalize(
        self, extra_metrics: Optional[Dict[str, MetricsRegistry]] = None
    ) -> None:
        """Write the requested artifacts and clean the spill directory."""
        if not self.active:
            return
        # The high-water mark is free to read and belongs in every
        # metrics snapshot: memory is a first-class benchmarked metric.
        sample_peak_rss(get_registry())
        tracer = get_tracer()
        if self.trace_out:
            events = write_chrome_trace(
                self.trace_out, tracer, spill_dir=self.spill_dir
            )
            _log.info("trace: %d events written to %s", events, self.trace_out)
        if self.metrics_out:
            write_metrics(
                self.metrics_out, get_registry(), extra=extra_metrics
            )
            _log.info("metrics: snapshot written to %s", self.metrics_out)
        if self.spill_dir:
            shutil.rmtree(self.spill_dir, ignore_errors=True)
            os.environ.pop(SPILL_ENV, None)


def bootstrap(
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    log_format: Optional[str] = None,
) -> ObsSession:
    """Wire observability for one CLI invocation.

    Recording turns on when ``REPRO_OBS`` is set *or* an output path is
    requested; either way the environment is updated so pool workers
    (which inherit it) record too.  Logging is configured regardless —
    every CLI gets the structured setup, with ``human`` as the default
    format.
    """
    setup_logging(log_format or "human")
    active = obs_enabled() or bool(trace_out or metrics_out)
    if not active:
        return ObsSession(active=False)
    os.environ.setdefault(OBS_ENV, "1")
    spill_dir = None
    if trace_out:
        # Workers spill beside the final artifact; merged at finalize.
        spill_dir = trace_out + ".spill"
        os.makedirs(spill_dir, exist_ok=True)
        os.environ[SPILL_ENV] = spill_dir
    install(spill_dir=spill_dir)
    registry = get_registry()
    registry.set_gauge("obs.enabled", 1.0)
    return ObsSession(
        active=True,
        trace_out=trace_out,
        metrics_out=metrics_out,
        spill_dir=spill_dir,
    )
