#!/usr/bin/env python3
"""Chaos harness for the prediction service: prove overload degrades, not corrupts.

Each phase boots a fresh ``scripts/serve.py`` subprocess with a seeded
fault plan (``REPRO_FAULT_INJECT``), drives real HTTP requests at it,
and asserts the service's one invariant: **every accepted request
terminates in a declared state** — ``completed``, ``failed``, ``shed``
or ``drained`` — and every refusal is explicit (429/503 with a reason),
never a hung connection or a silent drop.

Phases:

  baseline       no faults; cold completes, warm repeat is a cache hit
                 answered without admission, and ``/statsz`` accounts
                 for every request exactly once: ``service.requests =
                 service.cache_hits + service.admitted +
                 service.coalesced + Σ service.rejects.*``
  worker-death   ``die`` directive: the poisoned config fails cleanly,
                 healthy configs keep completing, workers are recycled
  flaky-retry    ``fail:...:1``: one injected failure, the retry wins
  hang-shed      ``hang`` + a short deadline: 504 shed, the hung worker
                 is put down, the next request gets a fresh one
  io-pressure    ``enospc:store`` + ``slow-io:store``: responses keep
                 flowing while persistence degrades
  golden-integrity  whatever a store-faulted server *did* persist must
                 digest identically to a clean server's golden pin
                 (``repro.verify.golden``): faults may lose writes,
                 never corrupt them
  breaker        repeated deaths trip the per-config breaker: fast 503
                 with the streak in the body, healthy configs unaffected
  overload       queue depth 2, one worker: concurrent burst gets
                 explicit 429 + Retry-After, never unbounded queueing;
                 cache hits sent into the same burst are 200, never
                 429 — a memoized answer takes no queue slot
  drain          SIGTERM mid-load: in-flight finishes (200), queued
                 drains (503 ``drained``), store failure records
                 name the casualties, exit code is 75

Usage:
  PYTHONPATH=src python scripts/service_chaos.py --quick
  PYTHONPATH=src python scripts/service_chaos.py --seed 7

Exit codes: 0 all invariants held, 1 violations (listed on stderr).
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SERVE = os.path.join(REPO_ROOT, "scripts", "serve.py")

#: Sub-second configs (size 8, work_scale 0.25) so phases stay snappy.
FAST_BENCHES = ("va", "dct", "sr")

TERMINAL = {"completed", "failed", "shed", "drained", "rejected"}

_BANNER = re.compile(r"listening on http://[^:]+:(\d+)")


class Violation(Exception):
    pass


class Phase:
    """One server lifetime: subprocess, port, store dir, collected output."""

    def __init__(self, name, env_extra=None, args=(), keep_store=None):
        self.name = name
        self.env_extra = dict(env_extra or {})
        self.args = list(args)
        self.tmp = keep_store or tempfile.mkdtemp(prefix=f"svc-chaos-{name}-")
        self.store = os.path.join(self.tmp, "results", "simcache")
        self.proc = None
        self.port = None

    def __enter__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(REPO_ROOT, "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        env["REPRO_NO_FSYNC"] = "1"
        env["REPRO_DISK_CHECK_INTERVAL"] = "0"
        env.pop("REPRO_FAULT_INJECT", None)
        env.update(self.env_extra)
        self.proc = subprocess.Popen(
            [sys.executable, SERVE, "--port", "0", "--store", self.store]
            + self.args,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        deadline = time.time() + 30
        while time.time() < deadline:
            line = self.proc.stdout.readline()
            if not line and self.proc.poll() is not None:
                raise Violation(f"[{self.name}] server died before listening")
            match = _BANNER.search(line or "")
            if match:
                self.port = int(match.group(1))
                return self
        raise Violation(f"[{self.name}] server never announced its port")

    def __exit__(self, exc_type, exc, tb):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.read()
        return False

    def stop_and_wait(self, timeout=60):
        """SIGTERM and return the exit code (drain phase checks 75)."""
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def request(self, body, timeout=90, path="/predict", method="POST"):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            payload = json.dumps(body) if body is not None else None
            conn.request(method, path, payload)
            resp = conn.getresponse()
            data = json.loads(resp.read() or b"{}")
            return resp.status, data, dict(resp.getheaders())
        finally:
            conn.close()

    def stats(self):
        return self.request(None, path="/statsz", method="GET")[1]


def body_for(bench, seed=0, deadline=None, work_scale=0.25):
    body = {
        "kind": "sim",
        "benchmark": bench,
        "size": 8,
        "work_scale": work_scale,
        "seed": seed,
    }
    if deadline is not None:
        body["deadline_s"] = deadline
    return body


def check(condition, message, violations):
    if not condition:
        violations.append(message)
        print(f"  VIOLATION: {message}", file=sys.stderr)


def unaccounted(counters):
    """``service.requests`` minus the outcomes that must add up to it."""
    outcomes = sum(
        value for name, value in counters.items()
        if name in ("service.cache_hits", "service.admitted",
                    "service.coalesced")
        or name.startswith("service.rejects.")
    )
    return counters.get("service.requests", 0) - outcomes


def check_terminal(status, data, label, violations):
    check(
        data.get("status") in TERMINAL,
        f"{label}: non-terminal response {status} {data}",
        violations,
    )


# --- phases ------------------------------------------------------------------

def phase_baseline(rng, quick, violations):
    with Phase("baseline") as phase:
        bench = rng.choice(FAST_BENCHES)
        status, data, _ = phase.request(body_for(bench))
        check(
            status == 200 and data["status"] == "completed" and not data["cached"],
            f"baseline cold: expected fresh 200, got {status} {data}",
            violations,
        )
        status, data, _ = phase.request(body_for(bench))
        check(
            status == 200 and data["cached"],
            f"baseline warm: expected cache hit, got {status} {data}",
            violations,
        )
        stats = phase.stats()
        check(
            stats["store"]["hits"] >= 1,
            "baseline: /statsz shows no store hit after a warm request",
            violations,
        )
        counters = stats["metrics"]["counters"]
        check(
            counters.get("service.cache_hits") == 1
            and counters.get("service.admitted") == 1
            and unaccounted(counters) == 0,
            "baseline: one cold run and one warm hit should count 1 "
            f"admitted + 1 cache hit and nothing unaccounted, got {counters}",
            violations,
        )
    print("  phase baseline: ok")


def phase_worker_death(rng, quick, violations):
    poisoned = rng.choice(FAST_BENCHES)
    healthy = rng.choice([b for b in FAST_BENCHES if b != poisoned])
    env = {"REPRO_FAULT_INJECT": f"die:sim|{poisoned}"}
    with Phase("worker-death", env) as phase:
        status, data, _ = phase.request(body_for(poisoned))
        check(
            status == 500 and data["status"] == "failed",
            f"worker-death: poisoned config should fail 500, got {status} {data}",
            violations,
        )
        status, data, _ = phase.request(body_for(healthy))
        check(
            status == 200 and data["status"] == "completed",
            f"worker-death: healthy config should survive, got {status} {data}",
            violations,
        )
        stats = phase.stats()
        check(
            stats["workers"]["recycles"] >= 1,
            "worker-death: no worker recycle recorded after deaths",
            violations,
        )
    print("  phase worker-death: ok")


def phase_flaky_retry(rng, quick, violations):
    bench = rng.choice(FAST_BENCHES)
    env = {"REPRO_FAULT_INJECT": f"fail:sim|{bench}:1"}
    with Phase("flaky-retry", env) as phase:
        status, data, _ = phase.request(body_for(bench))
        check(
            status == 200 and data["status"] == "completed",
            f"flaky-retry: one injected failure should be retried away, "
            f"got {status} {data}",
            violations,
        )
    print("  phase flaky-retry: ok")


def phase_hang_shed(rng, quick, violations):
    bench = rng.choice(FAST_BENCHES)
    healthy = rng.choice([b for b in FAST_BENCHES if b != bench])
    env = {"REPRO_FAULT_INJECT": f"hang:sim|{bench}:120"}
    with Phase("hang-shed", env) as phase:
        started = time.time()
        status, data, _ = phase.request(body_for(bench, deadline=1.5))
        elapsed = time.time() - started
        check(
            status == 504 and data["status"] == "shed",
            f"hang-shed: hung run should shed 504, got {status} {data}",
            violations,
        )
        check(
            elapsed < 30,
            f"hang-shed: shed took {elapsed:.1f}s against a 1.5s deadline",
            violations,
        )
        status, data, _ = phase.request(body_for(healthy))
        check(
            status == 200 and data["status"] == "completed",
            f"hang-shed: fresh worker should serve the next request, "
            f"got {status} {data}",
            violations,
        )
        check(
            phase.stats()["workers"]["recycles"] >= 1,
            "hang-shed: the hung worker was never recycled",
            violations,
        )
    print("  phase hang-shed: ok")


def phase_io_pressure(rng, quick, violations):
    env = {"REPRO_FAULT_INJECT": "enospc:store:1,slow-io:store:0.02"}
    with Phase("io-pressure", env) as phase:
        for index in range(2 if quick else 4):
            bench = FAST_BENCHES[index % len(FAST_BENCHES)]
            status, data, _ = phase.request(body_for(bench, seed=index))
            check(
                status == 200 and data["status"] == "completed",
                f"io-pressure: request {index} should complete despite "
                f"store faults, got {status} {data}",
                violations,
            )
        status, data, _ = phase.request(None, path="/readyz", method="GET")
        check(
            status == 200,
            f"io-pressure: service not ready under io faults ({status})",
            violations,
        )
    print("  phase io-pressure: ok")


def phase_golden_integrity(rng, quick, violations):
    """Store faults may cost persistence, never silent corruption."""
    from repro.analysis.simcache import ResultStore
    from repro.verify.golden import audit_store, pin_store

    benches = [rng.choice(FAST_BENCHES) for _ in range(2 if quick else 3)]

    def drive(phase, label):
        for index, bench in enumerate(benches):
            status, data, _ = phase.request(body_for(bench, seed=300 + index))
            check(
                status == 200 and data["status"] == "completed",
                f"golden-integrity: {label} request {index} should "
                f"complete, got {status} {data}",
                violations,
            )

    with Phase("golden-ref") as ref_phase:
        drive(ref_phase, "clean")
    reference = ResultStore(ref_phase.store)
    if not len(reference):
        check(False,
              "golden-integrity: clean server persisted nothing to pin",
              violations)
        shutil.rmtree(ref_phase.tmp, ignore_errors=True)
        return
    ledger = pin_store(
        reference, sorted(reference.keys()),
        reason="service-chaos clean reference server",
    )
    env = {"REPRO_FAULT_INJECT": "enospc:store:1,partial-write:store:1"}
    with Phase("golden-faulted", env) as faulted_phase:
        drive(faulted_phase, "faulted")
    # require_all=False: an injected ENOSPC may legitimately have cost
    # a flush.  What *was* persisted must digest identically.
    audit = audit_store(
        ledger, ResultStore(faulted_phase.store), require_all=False
    )
    check(
        not audit.drifted,
        f"golden-integrity: post-fault payload(s) drifted from the "
        f"clean pin ({audit.summary()}): {audit.drifted}",
        violations,
    )
    shutil.rmtree(ref_phase.tmp, ignore_errors=True)
    shutil.rmtree(faulted_phase.tmp, ignore_errors=True)
    print("  phase golden-integrity: ok")


def phase_breaker(rng, quick, violations):
    bench = rng.choice(FAST_BENCHES)
    env = {"REPRO_FAULT_INJECT": f"die:sim|{bench}"}
    with Phase("breaker", env, args=["--breaker-threshold", "2"]) as phase:
        for attempt in range(2):
            status, data, _ = phase.request(body_for(bench))
            check(
                status == 500,
                f"breaker: failure {attempt} should be a 500, got {status}",
                violations,
            )
        status, data, _ = phase.request(body_for(bench))
        check(
            status == 503 and "breaker" in data.get("error", ""),
            f"breaker: third request should fast-fail 503 with breaker "
            f"context, got {status} {data}",
            violations,
        )
        check(
            phase.stats()["breaker"]["open_configs"] >= 1,
            "breaker: /statsz does not report the open breaker",
            violations,
        )
        healthy = rng.choice([b for b in FAST_BENCHES if b != bench])
        status, data, _ = phase.request(body_for(healthy))
        check(
            status == 200,
            f"breaker: healthy config must not be quarantined, got {status}",
            violations,
        )
    print("  phase breaker: ok")


def phase_overload(rng, quick, violations):
    args = ["--queue-depth", "2", "--workers-min", "1", "--workers-max", "1"]
    with Phase("overload", args=args) as phase:
        burst = 6 if quick else 10
        results = [None] * burst
        errors = []

        def fire(index):
            try:
                results[index] = phase.request(
                    body_for("va", seed=100 + index, work_scale=0.5),
                    timeout=120,
                )
            except Exception as error:  # noqa: BLE001 - harness boundary
                errors.append(f"overload request {index}: {error!r}")

        # One memoized config, answered before the burst saturates the
        # queue and asked for again while it is saturated.
        warm = body_for("dct", seed=99)
        status, data, _ = phase.request(warm)
        check(
            status == 200 and not data["cached"],
            f"overload: warm-up run should be a fresh 200, got {status} {data}",
            violations,
        )

        threads = [
            threading.Thread(target=fire, args=(index,))
            for index in range(burst)
        ]
        for thread in threads:
            thread.start()
            time.sleep(0.05)
        hits = [phase.request(warm)[:2] for _ in range(burst)]
        depth = phase.stats()["queue"]["depth"]
        for thread in threads:
            thread.join()
        check(not errors, f"overload: transport errors {errors}", violations)
        check(
            all(status == 200 and data["cached"] for status, data in hits),
            "overload: cache hits during the burst must be 200, never 429 "
            f"(queue depth {depth} of 2), got {[s for s, _ in hits]}",
            violations,
        )
        statuses = [r[0] for r in results if r]
        rejected = [r for r in results if r and r[0] == 429]
        check(
            all(s in (200, 429, 504) for s in statuses),
            f"overload: unexpected statuses {statuses}",
            violations,
        )
        check(
            rejected,
            f"overload: a {burst}-deep burst against a 2-slot queue never "
            f"got a 429 (statuses: {statuses})",
            violations,
        )
        for status, data, headers in (r for r in results if r):
            check_terminal(status, data, "overload", violations)
            if status == 429:
                check(
                    "Retry-After" in headers,
                    "overload: 429 without a Retry-After header",
                    violations,
                )
    print("  phase overload: ok")


def phase_drain(rng, quick, violations):
    args = ["--workers-min", "1", "--workers-max", "1"]
    with Phase("drain", args=args) as phase:
        count = 3 if quick else 5
        results = [None] * count
        errors = []

        def fire(index):
            try:
                results[index] = phase.request(
                    body_for("sr", seed=200 + index, work_scale=0.5,
                             deadline=60),
                    timeout=120,
                )
            except Exception as error:  # noqa: BLE001 - harness boundary
                errors.append(f"drain request {index}: {error!r}")

        threads = [
            threading.Thread(target=fire, args=(index,))
            for index in range(count)
        ]
        for thread in threads:
            thread.start()
            time.sleep(0.1)
        time.sleep(0.5)  # let request 0 reach a worker
        code = phase.stop_and_wait()
        for thread in threads:
            thread.join()
        check(not errors, f"drain: transport errors {errors}", violations)
        check(code == 75, f"drain: exit code {code}, expected 75", violations)
        answered = [r for r in results if r]
        check(
            len(answered) == count,
            f"drain: {count - len(answered)} request(s) never answered",
            violations,
        )
        statuses = sorted(r[1].get("status") for r in answered)
        for status, data, _ in answered:
            check_terminal(status, data, "drain", violations)
        check(
            "completed" in statuses,
            f"drain: the in-flight run should finish, got {statuses}",
            violations,
        )
        check(
            "drained" in statuses,
            f"drain: queued runs should report drained, got {statuses}",
            violations,
        )
        interrupted = 0
        if os.path.isdir(phase.store):
            for name in os.listdir(phase.store):
                if not name.endswith(".jsonl"):
                    continue
                with open(os.path.join(phase.store, name)) as handle:
                    for line in handle:
                        if not line.strip():
                            continue
                        failure = json.loads(line).get("failure") or {}
                        if failure.get("status") == "interrupted":
                            interrupted += 1
        drained_count = statuses.count("drained")
        check(
            interrupted >= drained_count,
            f"drain: {drained_count} drained job(s) but only {interrupted} "
            "interrupted failure record(s) — a rerun could not find them",
            violations,
        )
    print("  phase drain: ok")


PHASES = (
    phase_baseline,
    phase_worker_death,
    phase_flaky_retry,
    phase_hang_shed,
    phase_io_pressure,
    phase_golden_integrity,
    phase_breaker,
    phase_overload,
    phase_drain,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick", action="store_true", help="smaller bursts (CI tier)"
    )
    parser.add_argument(
        "--phase", action="append", default=None,
        help="run only the named phase(s), e.g. --phase drain",
    )
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    violations = []
    selected = PHASES
    if args.phase:
        wanted = {name.replace("-", "_") for name in args.phase}
        selected = [
            phase for phase in PHASES
            if phase.__name__.replace("phase_", "") in wanted
        ]
        if not selected:
            print(f"no phases match {sorted(wanted)}", file=sys.stderr)
            return 2
    started = time.time()
    for phase_fn in selected:
        name = phase_fn.__name__.replace("phase_", "")
        print(f"[chaos] phase {name} (seed {args.seed})", flush=True)
        try:
            phase_fn(rng, args.quick, violations)
        except Violation as error:
            violations.append(str(error))
            print(f"  VIOLATION: {error}", file=sys.stderr)
    elapsed = time.time() - started
    if violations:
        print(
            f"[chaos] FAILED: {len(violations)} violation(s) in "
            f"{elapsed:.1f}s",
            file=sys.stderr,
        )
        return 1
    print(f"[chaos] all {len(selected)} phase(s) held in {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
