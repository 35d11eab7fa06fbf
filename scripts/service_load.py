#!/usr/bin/env python3
"""Load generator for the prediction service.

Boots an ephemeral server (or targets ``--url``), drives ``--clients``
concurrent closed-loop clients through a seeded mix of cache hits and
misses, and reports latency percentiles, shed rate and throughput:

  PYTHONPATH=src python scripts/service_load.py --quick

Every response must be terminal (completed / shed / rejected);
a transport error or hung connection fails the run regardless of how
good the percentiles look.

Exit codes: 0 ok, 1 invariant violation or broken server, 2 bad usage.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import statistics
import sys
import tempfile
import threading
import time

from chaos import Server, request

#: Fast, distinct configs for the miss side of the mix (sub-second each).
MISS_BENCHES = ("va", "dct", "sr")


def percentile(samples, fraction):
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def run_load(host, port, clients, requests_per_client, seed, deadline_s):
    """Drive the mix; return (latencies_ms, status_counts, errors, wall_s)."""
    rng = random.Random(seed)
    plans = []
    for client_index in range(clients):
        plan = []
        for request_index in range(requests_per_client):
            if rng.random() < 0.5:
                # Hit side: a handful of shared keys the whole fleet
                # re-requests — exercises coalescing and the memo path.
                bench = MISS_BENCHES[rng.randrange(len(MISS_BENCHES))]
                run_seed = rng.randrange(3)
            else:
                # Miss side: a key unique to this (client, request) slot.
                bench = MISS_BENCHES[
                    (client_index + request_index) % len(MISS_BENCHES)
                ]
                run_seed = 1000 + client_index * 1000 + request_index
            plan.append(
                {
                    "kind": "sim",
                    "benchmark": bench,
                    "size": 8,
                    "work_scale": 0.25,
                    "seed": run_seed,
                    "deadline_s": deadline_s,
                }
            )
        plans.append(plan)

    latencies_ms = []
    status_counts = {}
    errors = []
    lock = threading.Lock()

    def client(plan):
        for body in plan:
            started = time.perf_counter()
            try:
                code, payload, _ = request(host, port, body)
            except Exception as error:  # noqa: BLE001 - harness boundary
                with lock:
                    errors.append(repr(error))
                continue
            status = payload.get("status", f"http-{code}")
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            with lock:
                latencies_ms.append(elapsed_ms)
                status_counts[status] = status_counts.get(status, 0) + 1

    threads = [
        threading.Thread(target=client, args=(plan,)) for plan in plans
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started
    return latencies_ms, status_counts, errors, wall_s


def build_block(latencies_ms, status_counts, wall_s):
    total = sum(status_counts.values())
    shed = sum(
        count
        for status, count in status_counts.items()
        if status in ("shed", "rejected", "drained")
    )
    return {
        "p50_ms": round(percentile(latencies_ms, 0.50), 3),
        "p95_ms": round(percentile(latencies_ms, 0.95), 3),
        "p99_ms": round(percentile(latencies_ms, 0.99), 3),
        "mean_ms": round(statistics.fmean(latencies_ms), 3)
        if latencies_ms
        else 0.0,
        "throughput_rps": round(total / wall_s, 3) if wall_s > 0 else 0.0,
        "shed_rate": round(shed / total, 4) if total else 0.0,
        "requests": total,
        "statuses": dict(sorted(status_counts.items())),
        "wall_s": round(wall_s, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--url", default=None,
                        help="target an already-running server "
                        "(http://host:port) instead of booting one")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=6,
                        help="requests per client")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--deadline", type=float, default=60.0,
                        help="per-request deadline_s sent to the server")
    parser.add_argument("--quick", action="store_true",
                        help="4 clients x 3 requests (CI tier)")
    parser.add_argument("--out", default=None,
                        help="also write the raw block to this path")
    args = parser.parse_args(argv)

    clients = 4 if args.quick else args.clients
    requests_per_client = 3 if args.quick else args.requests

    server = None
    if args.url:
        match = re.match(r"https?://([^:/]+):(\d+)", args.url)
        if not match:
            print(f"--url must look like http://host:port, got {args.url!r}",
                  file=sys.stderr)
            return 2
        host, port = match.group(1), int(match.group(2))
    else:
        tmp = tempfile.mkdtemp(prefix="svc-load-")
        server = Server(
            os.path.join(tmp, "simcache"),
            ["--workers-min", "2", "--workers-max", "4"],
        )
        host, port = server.host, server.port

    try:
        latencies_ms, status_counts, errors, wall_s = run_load(
            host, port, clients, requests_per_client, args.seed,
            args.deadline,
        )
    finally:
        if server is not None:
            server.stop()
            shutil.rmtree(tmp, ignore_errors=True)

    if errors:
        print(f"[load] FAILED: {len(errors)} transport error(s): "
              f"{errors[:3]}", file=sys.stderr)
        return 1
    expected = clients * requests_per_client
    total = sum(status_counts.values())
    if total != expected:
        print(f"[load] FAILED: {expected} requests sent, {total} answered",
              file=sys.stderr)
        return 1
    unknown = [
        status for status in status_counts
        if status not in ("completed", "failed", "shed", "rejected", "drained")
    ]
    if unknown:
        print(f"[load] FAILED: non-terminal statuses {unknown} "
              f"(counts: {status_counts})", file=sys.stderr)
        return 1

    block = build_block(latencies_ms, status_counts, wall_s)
    print(json.dumps({"service": block}, indent=2, sort_keys=True))

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(block, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
