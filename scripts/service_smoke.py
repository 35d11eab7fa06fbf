#!/usr/bin/env python3
"""CI smoke for the prediction service: boot, serve, drain, survive.

The minimum end-to-end story a deploy must tell, against a real
``scripts/serve.py`` subprocess over real HTTP:

1. the server announces its port and ``/readyz`` turns 200;
2. a cold ``/predict`` completes with a fresh run (``cached: false``);
3. the same request again is a cache hit — verified twice: the
   response says ``cached: true`` AND ``/statsz`` shows the store hit —
   and it was answered without being admitted: every request is
   accounted for exactly once, ``service.requests = service.cache_hits
   + service.admitted + service.coalesced + Σ service.rejects.*``;
4. SIGTERM lands *while a request is in flight*: the client still gets
   its 200, the process exits 75 (EX_TEMPFAIL: drained, rerun to
   resume), and the in-flight result is durable in the store.

Usage:
  PYTHONPATH=src python scripts/service_smoke.py

Exit codes: 0 smoke passed, 1 any step failed.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_BANNER = re.compile(r"listening on http://([^:]+):(\d+)")

BODY = {
    "kind": "sim",
    "benchmark": "va",
    "size": 8,
    "work_scale": 0.25,
    "seed": 0,
    "deadline_s": 60,
}
#: Distinct config for the drain step so it cannot be a cache hit.
DRAIN_BODY = dict(BODY, benchmark="sr", work_scale=0.5, seed=1)


def fail(message: str) -> "NoReturn":  # noqa: F821 - py<3.11 spelling
    print(f"[service-smoke] FAILED: {message}", file=sys.stderr)
    raise SystemExit(1)


def start_server(store_root: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO_ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    env.setdefault("REPRO_NO_FSYNC", "1")
    proc = subprocess.Popen(
        [
            sys.executable,
            os.path.join(REPO_ROOT, "scripts", "serve.py"),
            "--port", "0",
            "--store", store_root,
            "--workers-min", "1",
            "--workers-max", "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    deadline = time.time() + 30
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line and proc.poll() is not None:
            fail("server exited before listening")
        match = _BANNER.search(line or "")
        if match:
            return proc, match.group(1), int(match.group(2))
    proc.kill()
    fail("server never announced its port")


def request(host, port, body, path="/predict", method="POST", timeout=120):
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, payload)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def unaccounted(counters: dict) -> int:
    """``service.requests`` minus the outcomes that must add up to it."""
    outcomes = sum(
        value for name, value in counters.items()
        if name in ("service.cache_hits", "service.admitted",
                    "service.coalesced")
        or name.startswith("service.rejects.")
    )
    return counters.get("service.requests", 0) - outcomes


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="service-smoke-")
    store_root = os.path.join(tmp, "results", "simcache")
    proc, host, port = start_server(store_root)
    print(f"[service-smoke] server up at {host}:{port} (pid {proc.pid})")
    try:
        # 1. readiness turns 200 within a bounded poll.
        deadline = time.time() + 15
        while True:
            try:
                status, _ = request(host, port, None, "/readyz", "GET",
                                    timeout=2)
                if status == 200:
                    break
            except OSError:
                pass
            if time.time() > deadline:
                fail("/readyz never turned 200")
            time.sleep(0.1)
        print("[service-smoke] ready")

        # 2. cold predict: a fresh run.
        status, data = request(host, port, BODY)
        if status != 200 or data.get("status") != "completed":
            fail(f"cold predict: expected 200 completed, got {status} {data}")
        if data.get("cached"):
            fail("cold predict claims to be a cache hit on an empty store")
        key = data["key"]
        print(f"[service-smoke] cold completed in {data['latency_ms']}ms")

        # 3. warm repeat: cached per the response AND per /statsz.
        hits_before = request(host, port, None, "/statsz", "GET")[1][
            "store"]["hits"]
        status, data = request(host, port, BODY)
        if status != 200 or not data.get("cached"):
            fail(f"warm predict: expected a cache hit, got {status} {data}")
        if data["key"] != key:
            fail(f"warm predict answered a different key: {data['key']}")
        stats = request(host, port, None, "/statsz", "GET")[1]
        hits_after = stats["store"]["hits"]
        if hits_after <= hits_before:
            fail(
                f"/statsz store hits did not grow ({hits_before} -> "
                f"{hits_after}); the warm answer was not served by the store"
            )
        counters = stats["metrics"]["counters"]
        if (
            counters.get("service.cache_hits") != 1
            or counters.get("service.admitted") != 1
            or unaccounted(counters)
        ):
            fail(
                "one cold run and one warm hit should count 1 admitted + "
                f"1 cache hit and nothing unaccounted, got {counters}"
            )
        print(f"[service-smoke] warm hit ({hits_before} -> {hits_after}), "
              "not admitted")

        # 4. SIGTERM mid-request: the in-flight run is answered and
        #    durable, and the exit code says "drained".
        result_box = {}

        def fire():
            result_box["response"] = request(host, port, DRAIN_BODY)

        client = threading.Thread(target=fire)
        client.start()
        time.sleep(0.7)  # into the run, before it completes
        proc.send_signal(signal.SIGTERM)
        client.join(timeout=120)
        if client.is_alive():
            fail("in-flight request never answered after SIGTERM")
        code = proc.wait(timeout=60)
        status, data = result_box["response"]
        if status != 200 or data.get("status") != "completed":
            fail(
                "in-flight request should complete through the drain, got "
                f"{status} {data}"
            )
        if code != 75:
            fail(f"drain exit code was {code}, expected 75")

        shard = os.path.join(store_root, "sr.jsonl")
        if not os.path.exists(shard):
            fail(f"drained result shard {shard} does not exist")
        keys = set()
        with open(shard) as handle:
            for line in handle:
                if line.strip():
                    keys.add(json.loads(line).get("key"))
        if data["key"] not in keys:
            fail(
                f"in-flight result {data['key']} not durable in {shard} "
                f"(found {sorted(keys)})"
            )
        print("[service-smoke] drain ok: 200 mid-SIGTERM, exit 75, "
              "result durable")
        print("[service-smoke] PASSED")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
