"""Helpers for driving ``GPUSimulator``'s event loop with scripted timing.

``ScriptedMemory`` is the real memory subsystem (so every counter,
conservation identity and boundary state stays meaningful) whose access
completion times a test may override, and which logs what the loop
showed it at each access.
"""

from repro.gpu import GPUConfig, GPUSimulator
from repro.gpu.memory import MemorySubsystem
from repro.trace.kernel import WorkloadTrace

from tests.hand_traces import hand_kernel


def one_sm_config() -> GPUConfig:
    return GPUConfig(
        num_sms=1, llc_slices=2, num_mcs=1, capacity_scale=1.0,
        latency_jitter=0.0, name="one-sm",
    )


def warps_workload(warps, accesses, kernels=1, name="loop") -> WorkloadTrace:
    """One CTA per kernel of ``warps`` warps, each making ``accesses``
    accesses to lines of its own, with no compute and no launch stagger."""
    cta = [
        ([0] * accesses, [w * accesses + i for i in range(accesses)], 0, 0.0)
        for w in range(warps)
    ]
    return WorkloadTrace(
        name,
        [hand_kernel(f"{name}-k{k}", 32 * warps, [cta]) for k in range(kernels)],
    )


class ScriptedMemory(MemorySubsystem):
    """Logs ``(line, issue time, sim.now, sim.events_processed)`` per
    access; ``completion(sim, issue_time, done)`` may replace the
    completion time the real access path computed."""

    def __init__(self, config, completion=None):
        super().__init__(config)
        self.sim = None
        self.completion = completion
        self.log = []

    def access(self, sm_id, line, hashed, now, llc_leg=None):
        done, where = super().access(sm_id, line, hashed, now, llc_leg)
        sim = self.sim
        self.log.append((line, now, sim.now, sim.events_processed))
        if self.completion is not None:
            done = self.completion(sim, now, done)
        return done, where


def scripted_simulator(config, completion=None):
    """A simulator over a :class:`ScriptedMemory`: ``(sim, memory)``."""
    memory = ScriptedMemory(config, completion)
    sim = memory.sim = GPUSimulator(config, memory=memory)
    return sim, memory
