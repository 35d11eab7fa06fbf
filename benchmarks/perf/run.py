#!/usr/bin/env python3
"""Run the performance benchmark defined by ``BENCHMARK.json``.

One run (what the driver calls)::

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

prints every metric by name with unit, direction and sample count, then
one JSON object as the last line.  ``--trace 0`` measures the
end-to-end metrics with spans off; ``--trace 1`` alternates untraced and
traced rounds and reports the per-layer metrics (``--trace-out F`` also
writes the spans as Chrome trace JSON).

Without ``--workload`` every workload is run both ways, one child
process after another; ``--aa N`` repeats the end-to-end runs N times
with seeds ``seed .. seed+N-1`` and prints median and spread per metric.
See README.md beside this file.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from measure import Recorder, op_p25, percentile, spreads  # noqa: E402
from spans import SpanRecorder  # noqa: E402

#: Knobs that change what the program does; a benchmark run must not
#: inherit them from whoever launched it.
SCRUBBED = (
    "REPRO_OBS", "REPRO_VERIFY", "REPRO_FAULT_INJECT", "REPRO_JOBS",
    "REPRO_CHECKPOINT_INTERVAL", "REPRO_MAX_RSS", "REPRO_MIN_FREE_MB",
)
SCRUBBED_PREFIX = "REPRO_SERVICE_"

SETUP_REPEATS = 3
MIN_ROUNDS = 2


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def scrub_environment() -> list:
    dropped = sorted(
        name for name in os.environ
        if name in SCRUBBED or name.startswith(SCRUBBED_PREFIX)
    )
    for name in dropped:
        del os.environ[name]
    # This measures the code, not the sandbox disk.
    os.environ["REPRO_NO_FSYNC"] = "1"
    return dropped


def cpu_seconds() -> float:
    return sum(os.times()[:4])


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.  Children count once they are reaped.
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def span_metrics(workload, rec: Recorder) -> dict:
    """Layer self times per primary op, and the harness's own checks."""
    spans = rec.spans
    out = {}
    per_layer = {}
    residual = 0.0
    self_times = spans.layer_self_times()
    for kind in workload.primary:
        by_layer = {}
        for root in spans.roots(kind):
            layers = self_times[root.op]
            residual = max(
                residual, abs(sum(layers.values()) - root.duration) / root.duration
            )
            for layer, seconds in layers.items():
                by_layer.setdefault(layer, []).append(seconds)
        for layer, samples in by_layer.items():
            per_layer.setdefault(layer, []).append(percentile(samples, 25))
    n = len(spans.roots(workload.primary[0]))
    for layer, quartiles in per_layer.items():
        out[f"self_ms.{layer}"] = (1e3 * sum(quartiles) / len(workload.primary), n)
    out["harness.span_residual_frac"] = (residual, n)
    out["harness.trace_overhead_frac"] = (
        op_p25(rec.traced_samples, workload.primary)
        / op_p25(rec.samples, workload.primary) - 1.0,
        n,
    )
    return out


def run_one(args, spec: dict) -> int:
    dropped = scrub_environment()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"run.py: no program to measure: {ROOT}/src/repro is missing")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    imported_s = time.perf_counter() - PROCESS_START
    trace = bool(args.trace)
    repeats = 1 if args.smoke else SETUP_REPEATS
    min_rounds = 1 if args.smoke and not trace else MIN_ROUNDS
    seconds = 0.0 if args.smoke else args.seconds

    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    rec = Recorder(SpanRecorder())
    workload = workloads.WORKLOADS[args.workload](args.seed, tmp, ROOT, args.smoke)
    try:
        # Set-up is deterministic compute (inputs, references, warm-up).
        # It runs several times and the median is reported, so the first
        # pass's cold caches and lazy imports do not decide the number.
        setup_samples = []
        for i in range(repeats):
            if i:
                workload.teardown()
            start = time.perf_counter()
            workload.setup(rec)
            setup_samples.append(time.perf_counter() - start)
        measured = {}
        began, cpu_began = time.perf_counter(), cpu_seconds()
        if trace:
            measured.update(workload.probes(rec))
        rounds = 0
        while True:
            rec.spans.enabled = trace and rounds % 2 == 1
            workload.round(rec)
            rounds += 1
            elapsed = time.perf_counter() - began
            # Stop where one more round would overshoot by over half a round.
            if rounds >= min_rounds and elapsed + 0.5 * elapsed / rounds > seconds:
                break
        rec.spans.enabled = False
        cpu_frac = (cpu_seconds() - cpu_began) / (time.perf_counter() - began)

        if trace:
            measured.update(workload.per_layer(rec))
            measured.update(span_metrics(workload, rec))
            measured["harness.cpu_frac"] = (cpu_frac, 1)
            measured["harness.loadavg_1m"] = (os.getloadavg()[0], 1)
        else:
            measured.update(workload.end_to_end(rec))
            measured["setup_s"] = (
                imported_s + statistics.median(setup_samples), len(setup_samples)
            )
        workload.teardown()
        if not trace:
            measured["peak_rss_mb"] = (peak_rss_mb(), 1)
        # Last, so the one full-scale run neither warms the timed ops
        # nor sets the peak memory reported for them.
        if not args.smoke:
            workload.anchor(rec)
    finally:
        workload.teardown()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run's directory is still there
    if args.trace_out:
        rec.spans.write(args.trace_out)

    declared = spec["per_layer" if trace else "end_to_end"]
    unknown = sorted(set(measured) - {m["name"] for m in declared})
    if unknown:
        raise SystemExit(f"run.py: metrics missing from BENCHMARK.json: {unknown}")

    meta = {
        "workload": args.workload, "loop": "closed, 1 caller",
        "seed": args.seed, "seconds": seconds, "trace": int(trace),
        "rounds": rounds, "setup_repeats": repeats,
        "setup_s_samples": [round(s, 4) for s in setup_samples],
        "import_s": round(imported_s, 4), "nproc": os.cpu_count(),
        "python": platform.python_version(), "env_dropped": dropped,
        "env_set": {"REPRO_NO_FSYNC": "1"},
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "cpu_frac": round(cpu_frac, 3),
        "samples_ms": {
            kind: [round(1e3 * x, 3) for x in xs]
            for kind, xs in rec.samples.items() if len(xs) <= 64
        },
    }
    print(f"# {args.workload}: {workload.why}")
    print("meta " + json.dumps(meta))
    print(f"{'metric':34s} {'value':>16s} {'unit':8s} {'better':7s} {'n':>6s}")
    metrics = {}
    for entry in declared:
        # A layer this workload never enters reports 0: it took no time.
        value, n = measured.get(entry["name"], (0.0, 0))
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(
            f"{entry['name']:34s} {value:16.6g} {entry['unit']:8s} "
            f"{entry['better']:7s} {n:6d}"
        )
    for message in rec.failures[:20]:
        print(f"FAILED {message}")
    print(
        f"fail_frac {rec.failed / rec.attempted:.6g} "
        f"({rec.failed} of {rec.attempted} ops failed or gave a wrong output)"
    )
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }))
    return 0 if rec.failed == 0 else 1


def child(args, workload: str, seed: int, trace: int) -> dict:
    """One run in its own process, as the driver makes it."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if trace and args.trace_out:
        base, ext = os.path.splitext(args.trace_out)
        command += ["--trace-out", f"{base}.{workload}{ext}"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        raise SystemExit(f"run.py: {workload} (trace {trace}) exited {done.returncode}")
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


def run_suite(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if not args.aa:
        for name in names:
            for trace in (0,) if args.smoke else (0, 1):
                child(args, name, args.seed, trace)
        return 0
    values = {}
    for i in range(args.aa):
        for name in names:
            result = child(args, name, args.seed + i, 0)
            for metric, entry in result["metrics"].items():
                values.setdefault((name, metric), []).append(entry["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"\nA/A over {args.aa} runs per workload, seeds "
          f"{args.seed}..{args.seed + args.aa - 1}")
    print("| workload | metric | median | IQR/median | (max-min)/median | bound |")
    print("|---|---|---|---|---|---|")
    for (name, metric), series in values.items():
        mid, iqr, full = spreads(series)
        print(f"| {name} | {metric} | {mid:.6g} | {iqr:.4f} | {full:.4f} "
              f"| {bounds[metric]} |")
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the spans as Chrome trace JSON")
    parser.add_argument("--aa", type=int, default=0, metavar="N",
                        help="suite only: N end-to-end runs per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up, one round, no ledger anchor")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload:
        return run_one(args, spec)
    return run_suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
