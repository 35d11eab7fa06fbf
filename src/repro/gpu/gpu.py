"""The monolithic GPU timing simulator.

Executes a :class:`~repro.trace.kernel.WorkloadTrace` on a
:class:`~repro.gpu.config.GPUConfig` and reports a
:class:`~repro.gpu.results.SimulationResult`.  Kernels run back to back;
within a kernel, CTAs are dispatched round-robin with greedy backfill;
each resident warp alternates compute bursts on the SM issue pipeline with
memory accesses resolved analytically by the shared memory subsystem.

The event count is one heap event per warp memory access plus one per
warp start.  Everything that need not be per access is done once per
kernel in NumPy (the address hash, the burst service times, the sign
check) or once per CTA (slicing the kernel's arrays into CTA-level lists,
and the SM instruction/access and pipeline request counters — exact at
every kernel boundary and at the end, the only points they are read).

Instrumentation is inline and guarded: the run and kernel spans sit
behind the tracer's ``enabled`` switch (read once per ``run()``), and the
kernel-boundary sweep and result checks behind
``repro.verify.runtime.paranoid``.  Constructing the simulator self-arms
paranoia mode from ``REPRO_VERIFY`` *before* the event kernel is built,
because the kernel binds its (checked or plain) ``post`` at construction.
"""

from __future__ import annotations

import time as _time
from typing import Callable, List, Optional

from repro.engine.kernel import SimulationKernel
from repro.exceptions import SimulationError
from repro.gpu.config import GPUConfig
from repro.obs.tracing import get_tracer
from repro.gpu.cta import CTADispatcher
from repro.gpu.memory import MemorySubsystem, hash_lines
from repro.gpu.results import SimulationResult
from repro.gpu.sm import StreamingMultiprocessor
from repro.trace.kernel import WorkloadTrace
from repro.validate import validate_config, validate_trace
from repro.verify import runtime as verify_runtime

#: ``on_boundary(kernels_completed, cycles, state)``: called at every
#: internal kernel boundary with the simulator's complete boundary state.
BoundaryHook = Callable[[int, float, dict], None]


class _WarpRun:
    """Mutable per-warp execution cursor over its CTA's lists.

    The warp owns ``lines[idx:end]`` (``hashed`` and ``service`` alike):
    every warp of a CTA shares the CTA-level lists.
    """

    __slots__ = (
        "sm", "sm_id", "cta_key", "lines", "hashed", "service",
        "idx", "end", "tail",
    )

    def __init__(
        self, sm: StreamingMultiprocessor, cta_key: int,
        lines: list, hashed: list, service: list, idx: int, end: int, tail: int,
    ) -> None:
        self.sm = sm
        self.sm_id = sm.sm_id
        self.cta_key = cta_key
        self.lines = lines
        self.hashed = hashed
        self.service = service
        self.idx = idx
        self.end = end
        self.tail = tail


class GPUSimulator:
    """Runs workloads on a monolithic GPU configuration."""

    def __init__(self, config: GPUConfig, memory=None) -> None:
        validate_config(config)
        self.config = config
        self._issue_width = config.issue_width
        # Self-arm paranoia mode (REPRO_VERIFY=1) before the kernel picks
        # its queue, so direct simulate() callers and pool workers are
        # checked too, not just runner-mediated paths.
        verify_runtime.ensure_paranoia()
        self.kernel_clock = SimulationKernel()
        self.memory = memory if memory is not None else MemorySubsystem(config)
        self.sms: List[StreamingMultiprocessor] = [
            StreamingMultiprocessor(i, config) for i in range(config.num_sms)
        ]
        self.dispatcher = CTADispatcher(self.sms)
        self._workload: Optional[WorkloadTrace] = None
        self._on_boundary: Optional[BoundaryHook] = None
        self._tracer = None  # set per run() when observability is on
        self._kernel_start_us = 0.0
        self._kernel_index = 0
        # The running kernel's arrays: (compiled, hashed lines, service).
        self._arrays = None
        self._live_ctas = {}
        self._cta_seq = 0
        self._accesses = 0
        self._finished = False

    # --- public API --------------------------------------------------------
    def run(
        self, workload: WorkloadTrace, on_boundary: Optional[BoundaryHook] = None
    ) -> SimulationResult:
        """Simulate ``workload`` to completion and return the result.

        ``on_boundary(kernels_completed, cycles, state)`` observes every
        internal kernel boundary — the one point where the event queue is
        empty, so ``state`` is the simulator's complete state as plain
        JSON-able data.  Differential replay digests it; the run itself
        is unchanged by it.
        """
        if self._workload is not None:
            raise SimulationError("GPUSimulator instances are single-use")
        # Before validation, which reads every kernel's arrays and so
        # generates them: wall_time_s has always covered trace generation.
        wall_start = _time.perf_counter()
        validate_trace(workload)
        self._arm_engine_faults(workload)
        self._workload = workload
        self._on_boundary = on_boundary
        tracer = get_tracer()
        self._tracer = tracer if tracer.enabled else None
        run_start_us = tracer.now_us() if self._tracer is not None else 0.0
        self._prewarm(workload)
        self._launch_kernel()
        self.kernel_clock.run()
        if not self._finished:
            raise SimulationError(
                f"{workload.name}: event queue drained before workload completed"
            )
        wall = _time.perf_counter() - wall_start
        result = self._build_result(wall)
        if self._tracer is not None:
            self._tracer.complete(
                f"sim:{workload.name}",
                "sim",
                run_start_us,
                self._tracer.now_us() - run_start_us,
                args={
                    "system": self.config.name,
                    "cycles": result.cycles,
                    "events": result.events,
                },
            )
        return result

    def _arm_engine_faults(self, workload: WorkloadTrace) -> None:
        """Spend any ``drop-miss`` REPRO_FAULT_INJECT budget on this run.

        The directive prefix matches the workload trace name.  For MCM
        memory the budget lands on the first chiplet's subsystem — the
        aggregate counters sum over chiplets, so the corruption is
        visible to the same conservation invariants either way.
        """
        # Deferred import: repro.analysis imports repro.gpu at package
        # scope, so the reverse edge must not exist at module scope.
        from repro.analysis.faults import engine_fault_budget

        budget = engine_fault_budget("drop-miss", workload.name)
        if budget:
            subsystems = getattr(self.memory, "subsystems", None)
            target = subsystems[0] if subsystems else self.memory
            target._drop_miss_budget += budget

    def _prewarm(self, workload: WorkloadTrace) -> None:
        """Pre-fill the LLC with the workload's steady-state hot region.

        Mirrors the warm-up phase of sampled simulation: the miniature
        trace measures steady-state behaviour, not cold start.  Filling a
        cache smaller than the region leaves it in the same state a first
        sweep pass would (the trailing lines resident), so pre-cliff
        systems are unaffected while post-cliff systems skip the one-time
        compulsory-miss transient.
        """
        region = workload.metadata.get("warm_region")
        if not region:
            return
        warm = getattr(self.memory, "warm_lines", None)
        if warm is None:
            return
        base, count = region
        warm(base, count)

    # --- kernel / CTA lifecycle ------------------------------------------------
    def _launch_kernel(self, _arg=None) -> None:
        if self._tracer is not None:
            self._kernel_start_us = self._tracer.now_us()
        kernel = self._workload.kernels[self._kernel_index]
        compiled = kernel.compiled()
        # A burst is its compute plus the memory instruction itself.
        self._arrays = (
            compiled,
            hash_lines(compiled.lines),
            (compiled.compute + 1) / self._issue_width,
        )
        max_resident = self.config.max_resident_ctas(kernel.threads_per_cta)
        self.dispatcher.load_kernel(kernel.num_ctas, max_resident)
        placements = self.dispatcher.initial_placements()
        now = self.kernel_clock.now
        for cta_id, sm_id in placements:
            self._start_cta(cta_id, sm_id, now, stagger=True)

    def _start_cta(
        self, cta_id: int, sm_id: int, now: float, stagger: bool = False
    ) -> None:
        compiled, kernel_hashes, kernel_service = self._arrays
        first, last = compiled.cta_bounds[cta_id : cta_id + 2].tolist()
        bounds = compiled.warp_bounds[first : last + 1].tolist()
        base, top = bounds[0], bounds[-1]
        lines = compiled.lines[base:top].tolist()
        hashed = kernel_hashes[base:top].tolist()
        service = kernel_service[base:top].tolist()
        tails = compiled.tails[first:last].tolist()
        offsets = compiled.offsets[first:last].tolist()
        sm = self.sms[sm_id]
        sm.cta_started(now)
        # The CTA's bursts and accesses, counted up front: these counters
        # are read only at kernel boundaries and at the end.
        accesses = top - base
        sm.warp_instructions += int(compiled.compute[base:top].sum()) + accesses
        sm.accesses += accesses
        sm.pipeline[2] += accesses
        self._accesses += accesses
        key = self._cta_seq
        self._cta_seq += 1
        self._live_ctas[key] = last - first
        post = self.kernel_clock.post
        for lo, hi, tail, offset in zip(bounds, bounds[1:], tails, offsets):
            run = _WarpRun(sm, key, lines, hashed, service, lo - base, hi - base, tail)
            # Launch stagger applies to the initial wave only: backfilled
            # CTAs start at their predecessor's (already spread) completion
            # time, so re-staggering them would just waste issue slots.
            post(now + (offset if stagger else 0.0), self._first_step, run)

    def _cta_done(self, cta_key: int, now: float, sm_id: int) -> None:
        del self._live_ctas[cta_key]
        sm = self.sms[sm_id]
        sm.cta_finished(now)
        next_cta = self.dispatcher.next_for(sm_id)
        if next_cta is not None:
            self._start_cta(next_cta, sm_id, now)
            return
        if self._live_ctas:
            return
        # Kernel drained: move to the next one, or finish the workload.
        self._trace_kernel_end()
        self._kernel_index += 1
        if verify_runtime.paranoid:
            # Every boundary *including* the final one: the event queue
            # is empty here, so the whole simulator state is plain
            # counters and cache contents.
            from repro.verify import invariants

            invariants.check_boundary(self, self._kernel_index)
        if self._kernel_index < len(self._workload.kernels):
            if self._on_boundary is not None:
                self._on_boundary(
                    self._kernel_index, self.kernel_clock.now, self._state_dict()
                )
            self._launch_kernel()
        else:
            self._finished = True

    def _trace_kernel_end(self) -> None:
        """Record the just-drained kernel as one wall-time span."""
        tracer = self._tracer
        if tracer is None:
            return
        kernel = self._workload.kernels[self._kernel_index]
        tracer.complete(
            f"kernel[{self._kernel_index}]:{getattr(kernel, 'name', '?')}",
            "kernel",
            self._kernel_start_us,
            tracer.now_us() - self._kernel_start_us,
            args={"sim_cycles": self.kernel_clock.now},
        )

    def _state_dict(self) -> dict:
        """Complete simulator state at a kernel boundary (JSON-able)."""
        return {
            "clock": self.kernel_clock.state_dict(),
            "sms": [sm.state_dict() for sm in self.sms],
            "memory": self.memory.state_dict(),
            "accesses": self._accesses,
            "cta_seq": self._cta_seq,
        }

    # --- warp execution -----------------------------------------------------
    def _first_step(self, run: _WarpRun) -> None:
        """A warp's first event: its launch stagger is over."""
        run.sm.warp_started(self.kernel_clock.now)
        self._advance_warp(run)

    def _advance_warp(self, run: _WarpRun) -> None:
        """The per-event callback: one compute burst and one memory access.

        Writes the FIFO step on the SM's pipeline queue inline (its
        request count advances per CTA) and posts the warp's next event at
        the access's completion, which never precedes ``now``
        (docs/ARCHITECTURE.md, "Hot path").
        """
        clock = self.kernel_clock
        now = clock.now
        idx = run.idx
        if idx < run.end:
            # Compute burst plus the memory instruction itself, then the
            # access; the warp resumes when the data arrives.
            service = run.service[idx]
            pipeline = run.sm.pipeline
            start = pipeline[0]
            if now > start:
                start = now
            finish = start + service
            pipeline[0] = finish
            pipeline[1] += service
            completion, __ = self.memory.access(
                run.sm_id, run.lines[idx], run.hashed[idx], finish
            )
            run.idx = idx + 1
            clock.post(completion, self._advance_warp, run)
            return
        # Tail compute, then the warp retires.
        sm = run.sm
        finish = sm.issue(now, run.tail) if run.tail else now
        sm.warp_finished(now)
        remaining = self._live_ctas[run.cta_key] - 1
        if remaining:
            self._live_ctas[run.cta_key] = remaining
        else:
            self._cta_done(run.cta_key, finish, sm.sm_id)

    # --- results ---------------------------------------------------------------
    def _build_result(self, wall_time_s: float) -> SimulationResult:
        end = self.kernel_clock.now
        for sm in self.sms:
            # Pipelines may drain slightly after the last event fired.
            end = max(end, sm.pipeline[0])
        total_warp_instructions = 0
        stall_weighted = 0.0
        active_total = 0.0
        for sm in self.sms:
            sm.close(end)
            total_warp_instructions += sm.warp_instructions
            active = sm.active_time
            stall_weighted += sm.memory_stall_fraction() * active
            active_total += active
        f_mem = stall_weighted / active_total if active_total > 0 else 0.0
        threads = self.config.threads_per_warp
        mem = self.memory
        result = SimulationResult(
            workload=self._workload.name,
            system=self.config.name,
            num_sms=self.config.num_sms,
            cycles=end if end > 0 else 1.0,
            thread_instructions=total_warp_instructions * threads,
            warp_instructions=total_warp_instructions,
            memory_accesses=self._accesses,
            memory_stall_fraction=f_mem,
            l1_hits=mem.l1_hits,
            l1_misses=mem.l1_misses,
            llc_hits=mem.llc_hits,
            llc_misses=mem.llc_misses,
            events=self.kernel_clock.events_processed,
            wall_time_s=wall_time_s,
            extra=mem.extra_stats(end),
        )
        if verify_runtime.paranoid:
            from repro.verify import invariants

            invariants.check_conservation(self)
            invariants.check_result(result)
        return result


def simulate(config: GPUConfig, workload: WorkloadTrace) -> SimulationResult:
    """Convenience wrapper: simulate ``workload`` on ``config``."""
    return GPUSimulator(config).run(workload)
