"""A small discrete-event simulation kernel.

This package is the substrate underneath the GPU timing simulator
(:mod:`repro.gpu`).  It provides:

* :class:`~repro.engine.kernel.SimulationKernel` — the clock and a heap
  of ``(time, seq, callback, arg)`` tuples, popped by one run loop;
* :class:`~repro.engine.stats.StateTimeTracker` for time-weighted state
  (SM occupancy).

Contended hardware — pipelines, NoC channels, LLC ports, memory
controllers, links — is not modelled here: each queue is plain
next-free-time state owned by the :mod:`repro.gpu` module that serves it
(:mod:`repro.gpu.fifo`).

The design goal is throughput: the GPU model schedules one heap event
per warp memory access, and the per-event path carries only what the
model uses — no handles, no cancellation, no run horizon.
"""

from repro.engine.kernel import SimulationKernel
from repro.engine.stats import StateTimeTracker

__all__ = [
    "SimulationKernel",
    "StateTimeTracker",
]
