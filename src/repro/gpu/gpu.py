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

The simulator owns its event loop: a heap of ``(time, seq, warp)``
steps, popped in time order by :meth:`GPUSimulator._event_loop`.  The
unique ``seq`` keeps tuple comparison from ever reaching the warp and
gives deterministic FIFO order among same-time steps.  Every pushed step
is popped, so the number of events fired is ``seq - len(heap)``.

Instrumentation is inline and guarded: the run, kernel and
``engine.run`` spans sit behind the tracer's ``enabled`` switch (read
once per ``run()``), and the kernel-boundary sweep and result checks
behind ``repro.verify.runtime.paranoid``.  Paranoia mode's per-step
checks are chosen at construction: a simulator built while paranoia is
on pushes every step through :meth:`GPUSimulator._checked_push`, which
refuses a step timed before ``now`` and scans the heap every
:data:`QUEUE_CHECK_INTERVAL` pushes and once when the loop drains; a
plain one pushes with ``heappush`` and carries no check per event.
Constructing the simulator self-arms paranoia mode from ``REPRO_VERIFY``
before it makes that choice.
"""

from __future__ import annotations

import time as _time
from heapq import heappop, heappush
from typing import Callable, List, Optional

from repro.exceptions import InvariantError, SimulationError
from repro.gpu.config import GPUConfig
from repro.obs.metrics import get_registry
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

#: Pushes between full O(n) heap scans of a checked simulator.  Small
#: enough to localize a corruption to a tight step window, large enough
#: that paranoia mode stays usable on the quick tier.
QUEUE_CHECK_INTERVAL = 2048


class _WarpRun:
    """Mutable per-warp execution cursor over its CTA's lists.

    The warp owns ``lines[idx:end]`` (``hashed`` and ``service`` alike):
    every warp of a CTA shares the CTA-level lists.  ``started`` turns
    true at its first step, when its launch stagger is over.
    """

    __slots__ = (
        "sm", "sm_id", "cta_key", "lines", "hashed", "service",
        "idx", "end", "tail", "started",
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
        self.started = False


class GPUSimulator:
    """Runs workloads on a monolithic GPU configuration."""

    def __init__(self, config: GPUConfig, memory=None) -> None:
        validate_config(config)
        self.config = config
        self._issue_width = config.issue_width
        # Self-arm paranoia mode (REPRO_VERIFY=1) before the loop is
        # chosen, so direct simulate() callers and pool workers are
        # checked too, not just runner-mediated paths.
        verify_runtime.ensure_paranoia()
        self._checked = verify_runtime.paranoid
        #: The event heap of ``(time, seq, warp)`` steps.
        self.heap: list = []
        #: Sequence number of the next pushed step (boundary state).
        self.seq = 0
        #: Current simulation time in cycles, a float so fractional
        #: service times compose without rounding drift.
        self.now = 0.0
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
        self._event_loop()
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
    def _launch_kernel(self) -> None:
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
        now = self.now
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
        push = self._checked_push if self._checked else self._push
        for lo, hi, tail, offset in zip(bounds, bounds[1:], tails, offsets):
            run = _WarpRun(sm, key, lines, hashed, service, lo - base, hi - base, tail)
            # Launch stagger applies to the initial wave only: backfilled
            # CTAs start at their predecessor's (already spread) completion
            # time, so re-staggering them would just waste issue slots.
            push(now + (offset if stagger else 0.0), run)

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
                self._on_boundary(self._kernel_index, self.now, self._state_dict())
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
            args={"sim_cycles": self.now},
        )

    def _state_dict(self) -> dict:
        """Complete simulator state at a kernel boundary (JSON-able)."""
        return {
            # Read with an empty heap: the seq counter is included because
            # it decides the order of every later same-time step.
            "clock": {
                "now": self.now,
                "events_processed": self.events_processed,
                "queue_seq": self.seq,
            },
            "sms": [sm.state_dict() for sm in self.sms],
            "memory": self.memory.state_dict(),
            "accesses": self._accesses,
            "cta_seq": self._cta_seq,
        }

    # --- the event loop ------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Steps popped so far, the running one included; a deterministic
        work proxy."""
        return self.seq - len(self.heap)

    def _push(self, time: float, run: _WarpRun) -> None:
        seq = self.seq
        self.seq = seq + 1
        heappush(self.heap, (time, seq, run))

    def _checked_push(self, time: float, run: _WarpRun) -> None:
        """:meth:`_push` under paranoia: the clock never runs backwards,
        and the heap is scanned every :data:`QUEUE_CHECK_INTERVAL` pushes."""
        if time < self.now:
            raise InvariantError(
                f"clock would run backwards: step (time={time}, "
                f"seq={self.seq}) pushed at now={self.now}"
            )
        self._push(time, run)
        verify_runtime.VERIFY_STATS["events_checked"] += 1
        if self.seq % QUEUE_CHECK_INTERVAL == 0:
            self._scan()

    def _scan(self) -> None:
        from repro.verify import invariants

        invariants.check_queue(self.heap)
        verify_runtime.VERIFY_STATS["queue_scans"] += 1

    def _event_loop(self) -> None:
        """Pop steps in time order until the heap drains.

        A step is one compute burst and one memory access: the FIFO step
        on the SM's pipeline queue is written inline (its request count
        advances per CTA), and the warp's next step is pushed at the
        access's completion, which never precedes ``now``
        (docs/ARCHITECTURE.md, "Hot path").  A warp past its last access
        runs its tail compute and retires.
        """
        heap = self.heap
        live_ctas = self._live_ctas
        access = self.memory.access
        checked = self._checked
        tracer = get_tracer()
        recording = tracer.enabled
        if recording:
            loop_start = _time.perf_counter()
            before = self.events_processed
        try:
            while heap:
                now, __, run = heappop(heap)
                self.now = now
                if not run.started:
                    run.started = True
                    run.sm.warp_started(now)
                idx = run.idx
                if idx < run.end:
                    # Compute burst plus the memory instruction itself,
                    # then the access; the warp resumes when the data
                    # arrives.
                    service = run.service[idx]
                    pipeline = run.sm.pipeline
                    start = pipeline[0]
                    if now > start:
                        start = now
                    finish = start + service
                    pipeline[0] = finish
                    pipeline[1] += service
                    completion, __ = access(
                        run.sm_id, run.lines[idx], run.hashed[idx], finish
                    )
                    run.idx = idx + 1
                    if checked:
                        self._checked_push(completion, run)
                    else:
                        seq = self.seq
                        self.seq = seq + 1
                        heappush(heap, (completion, seq, run))
                    continue
                # Tail compute, then the warp retires.
                sm = run.sm
                finish = sm.issue(now, run.tail) if run.tail else now
                sm.warp_finished(now)
                remaining = live_ctas[run.cta_key] - 1
                if remaining:
                    live_ctas[run.cta_key] = remaining
                else:
                    self._cta_done(run.cta_key, finish, sm.sm_id)
        finally:
            if recording:
                duration_us = (_time.perf_counter() - loop_start) * 1e6
                fired = self.events_processed - before
                registry = get_registry()
                registry.inc("engine.events", fired)
                registry.observe("engine.run_us", duration_us)
                tracer.complete(
                    "engine.run", "kernel",
                    tracer.now_us() - duration_us, duration_us,
                    args={"events": fired},
                )
        if checked:
            self._scan()
            verify_runtime.VERIFY_STATS["runs_checked"] += 1

    # --- results ---------------------------------------------------------------
    def _build_result(self, wall_time_s: float) -> SimulationResult:
        end = self.now
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
            events=self.events_processed,
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
