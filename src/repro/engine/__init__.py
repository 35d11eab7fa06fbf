"""A small discrete-event simulation kernel.

This package is the substrate underneath the GPU timing simulator
(:mod:`repro.gpu`).  It provides:

* :class:`~repro.engine.kernel.SimulationKernel` — the clock and a heap
  of ``(time, seq, callback, arg)`` tuples, popped by one run loop;
* resource primitives (:class:`~repro.engine.resource.FifoServer`,
  :class:`~repro.engine.resource.BandwidthResource`,
  :class:`~repro.engine.resource.TokenPool`) that model contended hardware
  structures with *next-free-time* accounting, so a request's queueing delay
  can be computed analytically at issue time;
* :class:`~repro.engine.stats.StateTimeTracker` for time-weighted state
  (SM occupancy).

The design goal is throughput: the GPU model schedules one heap event
per warp memory access, and the per-event path carries only what the
model uses — no handles, no cancellation, no run horizon.
"""

from repro.engine.kernel import SimulationKernel
from repro.engine.resource import BandwidthResource, FifoServer, TokenPool
from repro.engine.stats import StateTimeTracker

__all__ = [
    "SimulationKernel",
    "FifoServer",
    "BandwidthResource",
    "TokenPool",
    "StateTimeTracker",
]
