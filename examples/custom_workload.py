#!/usr/bin/env python3
"""Bring your own workload: build a kernel's arrays with the library's
pattern primitives and run the full scale-model workflow on it.

Run:  python examples/custom_workload.py

The example models a hypothetical "attention-like" kernel: a shared
key/value working set of 10 MB read by every CTA (reusable, cliff
candidate) plus heavy per-element compute.  The predictor anticipates the
cache cliff at the 32-SM point (8.5 MB LLC holds most of it) without
simulating anything larger than 16 SMs.
"""

import numpy as np

from repro import GPUConfig, collect_miss_rate_curve, simulate
from repro.core import study
from repro.core.accuracy import prediction_error
from repro.mrc import analyze_regions
from repro.trace import patterns
from repro.trace.kernel import CompiledKernel, KernelTrace, WorkloadTrace
from repro.units import MB

NUM_CTAS = 8192
WARPS_PER_CTA = 4
ACCESSES_PER_WARP = 6
COMPUTE_PER_ACCESS = 12.0


def build_attention_like(capacity_scale: float) -> WorkloadTrace:
    kv_lines = int(10 * MB * capacity_scale / 128)  # 10 MB shared KV cache
    warps = NUM_CTAS * WARPS_PER_CTA
    accesses = warps * ACCESSES_PER_WARP
    rng = np.random.default_rng(0)
    # The whole grid as arrays: warp g reads the next ACCESSES_PER_WARP
    # lines after warp g - 1's, so together the warps sweep the KV cache
    # cyclically; each warp starts up to 900 cycles late.
    compiled = CompiledKernel(
        lines=patterns.cyclic_sweep(0, kv_lines, accesses),
        compute=patterns.interleave_compute(accesses, COMPUTE_PER_ACCESS, rng),
        warp_bounds=np.arange(0, accesses + 1, ACCESSES_PER_WARP),
        tails=np.zeros(warps, dtype=np.int64),
        offsets=rng.integers(0, 900, size=warps).astype(np.float64),
        cta_bounds=np.arange(0, warps + 1, WARPS_PER_CTA),
    )
    kernel = KernelTrace("attention", threads_per_cta=128, compiled=lambda: compiled)
    workload = WorkloadTrace("attn", [kernel])
    workload.metadata["warm_region"] = (0, kv_lines)  # steady-state warm-up
    return workload


def main() -> None:
    def run(sms: int):
        config = GPUConfig.paper_system(sms)
        return simulate(config, build_attention_like(config.capacity_scale))

    def collect_curve():
        base = GPUConfig.paper_baseline()
        return collect_miss_rate_curve(
            build_attention_like(base.capacity_scale), config=base
        )

    # The Figure-3 flow with our own simulate/curve callables; the targets
    # are predicted only (include_actuals=False), never simulated.
    result = study(
        "attn", "strong", run, (8, 16), (32, 64, 128),
        curve=collect_curve, include_actuals=False,
    )
    for sms in result.scale_sizes:
        r = result.results[sms]
        print(f"scale model {sms:2d} SMs: IPC {r.ipc:7.1f} "
              f"f_mem {r.memory_stall_fraction:.2f} MPKI {r.mpki:.2f}")

    curve = result.profile.curve
    print("MRC:", "  ".join(f"{mb:g}MB={m:.2f}" for mb, m in curve.as_rows()))
    analysis = analyze_regions(curve)
    if analysis.has_cliff:
        low, high = analysis.cliff_capacities
        print(f"cliff detected between {low / MB:.2f} and {high / MB:.2f} MB")

    print("\npredictions:")
    for target, prediction in result.scale_model.items():
        print(f"  {target:3d} SMs: IPC {prediction.ipc:8.1f}  "
              f"[{prediction.region.value}]")

    # Verify the most interesting point — right after the cliff.
    actual = run(32).ipc
    predicted = result.scale_model[32].ipc
    err = prediction_error(predicted, actual)
    print(f"\n32-SM check: predicted {predicted:.1f} vs actual {actual:.1f} "
          f"({100 * err:.1f}% error)")


if __name__ == "__main__":
    main()
