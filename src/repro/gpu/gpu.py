"""The monolithic GPU timing simulator.

Executes a :class:`~repro.trace.kernel.WorkloadTrace` on a
:class:`~repro.gpu.config.GPUConfig` and reports a
:class:`~repro.gpu.results.SimulationResult`.  Kernels run back to back;
within a kernel, CTAs are dispatched round-robin with greedy backfill;
each resident warp alternates compute bursts on the SM issue pipeline with
memory accesses resolved analytically by the shared memory subsystem.

The event count is about one heap event per warp memory access, which is
what keeps the pure-Python simulator usable for the paper's full sweep.

Instrumentation is inline and guarded: the run and kernel spans sit
behind the tracer's ``enabled`` switch (read once per ``run()``), and the
kernel-boundary sweep and result checks behind
``repro.verify.runtime.paranoid``.  Constructing the simulator self-arms
paranoia mode from ``REPRO_VERIFY`` *before* the event kernel is built,
because the kernel picks its (checked or plain) queue at construction.
"""

from __future__ import annotations

import time as _time
import warnings
from typing import Callable, List, Optional

from repro.engine.kernel import SimulationKernel
from repro.exceptions import CheckpointError, ConfigurationError, SimulationError
from repro.gpu.config import GPUConfig
from repro.obs.tracing import get_tracer
from repro.gpu.cta import CTADispatcher
from repro.gpu.memory import MemorySubsystem
from repro.gpu.results import SimulationResult
from repro.gpu.sm import StreamingMultiprocessor
from repro.trace.kernel import WarpTrace, WorkloadTrace
from repro.validate import validate_config, validate_trace
from repro.verify import runtime as verify_runtime


class _WarpRun:
    """Mutable per-warp execution cursor."""

    __slots__ = (
        "sm", "cta_key", "compute", "lines", "idx", "end", "tail", "offset",
        "started",
    )

    def __init__(
        self, sm: StreamingMultiprocessor, cta_key: int, trace: WarpTrace
    ) -> None:
        # _advance_warp skips StreamingMultiprocessor.issue's sign check.
        if trace.compute and min(trace.compute) < 0:
            raise SimulationError(f"SM {sm.sm_id}: negative burst in {trace.compute}")
        self.sm = sm
        self.cta_key = cta_key
        self.compute = trace.compute
        self.lines = trace.lines
        self.idx = 0
        self.end = len(trace.lines)
        self.tail = trace.tail_compute
        self.offset = trace.start_offset
        self.started = False


class GPUSimulator:
    """Runs workloads on a monolithic GPU configuration."""

    def __init__(
        self,
        config: GPUConfig,
        memory=None,
        memory_factory: Optional[Callable[[], object]] = None,
    ) -> None:
        validate_config(config)
        self.config = config
        self._issue_width = config.issue_width
        # Self-arm paranoia mode (REPRO_VERIFY=1) before the kernel picks
        # its queue, so direct simulate() callers and pool workers are
        # checked too, not just runner-mediated paths.
        verify_runtime.ensure_paranoia()
        self.kernel_clock = SimulationKernel()
        if memory_factory is None and memory is None:
            memory_factory = lambda: MemorySubsystem(config)  # noqa: E731
        self._memory_factory = memory_factory
        self.memory = memory if memory is not None else memory_factory()
        self.sms: List[StreamingMultiprocessor] = [
            StreamingMultiprocessor(i, config) for i in range(config.num_sms)
        ]
        self.dispatcher = CTADispatcher(self.sms, policy=config.cta_scheduler)
        self._workload: Optional[WorkloadTrace] = None
        self._checkpointer = None
        self._tracer = None  # set per run() when observability is on
        self._kernel_start_us = 0.0
        self._kernel_index = 0
        self._live_ctas = {}
        self._cta_seq = 0
        self._accesses = 0
        self._finished = False

    # --- public API --------------------------------------------------------
    def run(
        self, workload: WorkloadTrace, checkpointer=None
    ) -> SimulationResult:
        """Simulate ``workload`` to completion and return the result.

        With a :class:`repro.checkpoint.Checkpointer`, the run snapshots
        its state at kernel boundaries and — when a valid snapshot from
        an earlier (killed) attempt exists — resumes from it instead of
        starting cold.  A resumed run is cycle-identical to an
        uninterrupted one: only ``wall_time_s`` (host time) differs.
        """
        if self._workload is not None:
            raise SimulationError("GPUSimulator instances are single-use")
        # Before validation, which builds CTA 0 of every kernel and so
        # generates them: wall_time_s has always covered trace generation.
        wall_start = _time.perf_counter()
        validate_trace(workload)
        self._arm_engine_faults(workload)
        self._workload = workload
        self._checkpointer = checkpointer
        tracer = get_tracer()
        self._tracer = tracer if tracer.enabled else None
        run_start_us = tracer.now_us() if self._tracer is not None else 0.0
        if not (checkpointer is not None and self._try_resume(workload)):
            self._prewarm(workload)
            self._kernel_index = 0
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
        if checkpointer is not None:
            # The result is durable in the caller's store; the snapshots
            # have nothing left to protect.
            checkpointer.cleanup()
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
        max_resident = self.config.max_resident_ctas(kernel.threads_per_cta)
        self.dispatcher.load_kernel(kernel.num_ctas, max_resident)
        placements = self.dispatcher.initial_placements()
        now = self.kernel_clock.now
        for cta_id, sm_id in placements:
            self._start_cta(cta_id, sm_id, now, stagger=True)

    def _start_cta(
        self, cta_id: int, sm_id: int, now: float, stagger: bool = False
    ) -> None:
        kernel = self._workload.kernels[self._kernel_index]
        cta = kernel.build_cta(cta_id)
        sm = self.sms[sm_id]
        sm.cta_started(now)
        key = self._cta_seq
        self._cta_seq += 1
        self._live_ctas[key] = len(cta.warps)
        post = self.kernel_clock.post
        advance = self._advance_warp
        for warp_trace in cta.warps:
            run = _WarpRun(sm, key, warp_trace)
            # Launch stagger applies to the initial wave only: backfilled
            # CTAs start at their predecessor's (already spread) completion
            # time, so re-staggering them would just waste issue slots.
            post(now + (run.offset if stagger else 0.0), advance, (run,))

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
            # The boundary is the checkpoint cut: the event queue is
            # empty (every warp of every CTA has retired), so the whole
            # simulator state is plain counters and cache contents.
            self._maybe_checkpoint()
            self._launch_next_kernel()
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

    def _launch_next_kernel(self) -> None:
        """Launch the kernel at ``_kernel_index`` from a boundary.

        Shared by the in-run boundary transition and checkpoint resume so
        both schedule the launch identically (same event, same seq) —
        the resumed event stream must replay the original exactly.
        """
        overhead = self.config.kernel_launch_overhead
        if overhead > 0:
            self.kernel_clock.schedule(overhead, self._launch_kernel)
        else:
            self._launch_kernel()

    # --- checkpoint / resume -------------------------------------------------
    def _maybe_checkpoint(self) -> None:
        """Snapshot at the current kernel boundary if the policy says so."""
        checkpointer = self._checkpointer
        if checkpointer is None or not checkpointer.should_checkpoint(
            self._kernel_index
        ):
            return
        checkpointer.save(
            {
                "kernels_completed": self._kernel_index,
                "num_kernels": len(self._workload.kernels),
                "workload": self._workload.name,
                "system": self.config.name,
                "cycles": self.kernel_clock.now,
                "state": self._state_dict(),
            }
        )

    def _try_resume(self, workload: WorkloadTrace) -> bool:
        """Restore the latest valid snapshot; False means cold start.

        Every failure mode here — no snapshot, a snapshot for a
        different run, a restore that blows up mid-way — degrades to a
        cold start with at most a warning.  Crash-resume must never be
        worse than not having checkpoints at all.
        """
        snapshot = self._checkpointer.load_latest()
        if snapshot is None:
            return False
        if not self._snapshot_matches(snapshot, workload):
            warnings.warn(
                f"{workload.name}: checkpoint describes a different run "
                "(workload/system/kernel-count mismatch); cold start"
            )
            return False
        try:
            self._restore(snapshot)
        except Exception as error:  # noqa: BLE001 - degrade, never crash
            warnings.warn(
                f"{workload.name}: checkpoint restore failed ({error}); "
                "cold start"
            )
            self._rebuild_fresh()
            return False
        self._checkpointer.mark_resumed(
            self._kernel_index, self.kernel_clock.now
        )
        if self._tracer is not None:
            self._tracer.instant(
                "sim.resume",
                cat="checkpoint",
                args={
                    "workload": workload.name,
                    "kernels_completed": self._kernel_index,
                    "cycles_saved": self.kernel_clock.now,
                },
            )
        self._launch_next_kernel()
        return True

    def _snapshot_matches(self, snapshot: dict, workload: WorkloadTrace) -> bool:
        try:
            completed = int(snapshot["kernels_completed"])
            return (
                snapshot["workload"] == workload.name
                and snapshot["system"] == self.config.name
                and int(snapshot["num_kernels"]) == len(workload.kernels)
                and 1 <= completed < len(workload.kernels)
            )
        except (KeyError, TypeError, ValueError):
            return False

    def _state_dict(self) -> dict:
        """Complete simulator state at a kernel boundary (JSON-able)."""
        return {
            "clock": self.kernel_clock.state_dict(),
            "sms": [sm.state_dict() for sm in self.sms],
            "memory": self.memory.state_dict(),
            "accesses": self._accesses,
            "cta_seq": self._cta_seq,
        }

    def _restore(self, snapshot: dict) -> None:
        state = snapshot["state"]
        if len(state["sms"]) != len(self.sms):
            raise ConfigurationError(
                f"snapshot has {len(state['sms'])} SMs, "
                f"expected {len(self.sms)}"
            )
        self.kernel_clock.load_state(state["clock"])
        for sm, sm_state in zip(self.sms, state["sms"]):
            sm.load_state(sm_state)
        self.memory.load_state(state["memory"])
        self._accesses = int(state["accesses"])
        self._cta_seq = int(state["cta_seq"])
        self._kernel_index = int(snapshot["kernels_completed"])
        self._live_ctas = {}
        self._finished = False

    def _rebuild_fresh(self) -> None:
        """Replace possibly partially-restored components with fresh ones."""
        if self._memory_factory is None:
            raise CheckpointError(
                "cannot fall back to a cold start: this simulator was "
                "built with an injected memory subsystem and no "
                "memory_factory to rebuild it"
            )
        config = self.config
        self.kernel_clock = SimulationKernel()
        self.memory = self._memory_factory()
        self.sms = [
            StreamingMultiprocessor(i, config) for i in range(config.num_sms)
        ]
        self.dispatcher = CTADispatcher(self.sms, policy=config.cta_scheduler)
        self._kernel_index = 0
        self._live_ctas = {}
        self._cta_seq = 0
        self._accesses = 0
        self._finished = False

    # --- warp execution -----------------------------------------------------
    def _advance_warp(self, run: _WarpRun) -> None:
        """The per-event callback: one compute burst and one memory access.

        Inlines ``StreamingMultiprocessor.issue`` and re-schedules through
        the handle-free ``post``: completions never precede ``now`` and no
        warp event is ever cancelled (docs/ARCHITECTURE.md, "Hot path").
        """
        clock = self.kernel_clock
        now = clock.now
        sm = run.sm
        if not run.started:
            run.started = True
            sm.warp_started(now)
        idx = run.idx
        if idx < run.end:
            # Compute burst plus the memory instruction itself, then the
            # access; the warp resumes when the data arrives.
            burst = run.compute[idx] + 1
            sm.warp_instructions += burst
            service = burst / self._issue_width
            pipeline = sm.pipeline
            start = pipeline._next_free
            if now > start:
                start = now
            finish = start + service
            pipeline._next_free = finish
            pipeline._busy_time += service
            pipeline._requests += 1
            completion, __ = self.memory.access(sm.sm_id, run.lines[idx], finish)
            self._accesses += 1
            sm.accesses += 1
            run.idx = idx + 1
            clock.post(completion, self._advance_warp, (run,))
            return
        # Tail compute, then the warp retires.
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
            end = max(end, sm.pipeline.next_free)
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


def simulate(
    config: GPUConfig, workload: WorkloadTrace, checkpointer=None
) -> SimulationResult:
    """Convenience wrapper: simulate ``workload`` on ``config``."""
    return GPUSimulator(config).run(workload, checkpointer=checkpointer)
