"""Simulation result records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

from repro.exceptions import SimulationError
from repro.obs.metrics import CounterBag

#: Integer event counts of a result; the fields :meth:`SimulationResult.counters`
#: exposes and :func:`aggregate_counters` sums across runs.
COUNTER_FIELDS = (
    "thread_instructions",
    "warp_instructions",
    "memory_accesses",
    "l1_hits",
    "l1_misses",
    "llc_hits",
    "llc_misses",
    "events",
)


@dataclass(frozen=True)
class SimulationResult:
    """Outputs of one detailed timing simulation.

    The two numbers the scale-model methodology consumes are :attr:`ipc`
    (aggregate thread instructions per cycle) and
    :attr:`memory_stall_fraction` (the paper's ``f_mem``, used by the
    cliff formula).  Everything else is diagnostic.
    """

    workload: str
    system: str
    num_sms: int
    cycles: float
    thread_instructions: int
    warp_instructions: int
    memory_accesses: int
    memory_stall_fraction: float
    l1_hits: int = 0
    l1_misses: int = 0
    llc_hits: int = 0
    llc_misses: int = 0
    events: int = 0
    wall_time_s: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cycles <= 0:
            raise SimulationError(
                f"{self.workload}@{self.system}: non-positive cycle count"
            )

    @property
    def ipc(self) -> float:
        """Aggregate thread instructions per cycle (the paper's metric)."""
        return self.thread_instructions / self.cycles

    @property
    def mpki(self) -> float:
        """LLC misses per thousand thread instructions."""
        if self.thread_instructions == 0:
            return 0.0
        return 1000.0 * self.llc_misses / self.thread_instructions

    @property
    def l1_miss_rate(self) -> float:
        total = self.l1_hits + self.l1_misses
        if total == 0:
            return 0.0
        return self.l1_misses / total

    @property
    def llc_miss_rate(self) -> float:
        total = self.llc_hits + self.llc_misses
        if total == 0:
            return 0.0
        return self.llc_misses / total

    def summary(self) -> str:
        return (
            f"{self.workload} on {self.system}: IPC={self.ipc:.1f} "
            f"({self.cycles:.0f} cycles, {self.thread_instructions} thread insns), "
            f"f_mem={self.memory_stall_fraction:.3f}, MPKI={self.mpki:.2f}"
        )

    def counters(self) -> CounterBag:
        """The result's integer event counts as one shared stat bag.

        The single aggregation surface for downstream consumers (the
        metrics registry mirror, artifact export, reports) — replaces
        the ad-hoc per-caller dicts that used to pick fields by hand.
        """
        bag = CounterBag()
        for name in COUNTER_FIELDS:
            bag[name] = getattr(self, name)
        return bag


def aggregate_counters(results: Iterable[SimulationResult]) -> CounterBag:
    """Sum the counter fields of many results into one bag."""
    total = CounterBag()
    for result in results:
        for name, value in result.counters().items():
            total.add(name, value)
    return total
