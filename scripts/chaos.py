#!/usr/bin/env python3
"""Seeded fault drills against the real program, one target at a time.

  PYTHONPATH=src python scripts/chaos.py --target store --quick
  PYTHONPATH=src python scripts/chaos.py --target campaign --quick
  PYTHONPATH=src python scripts/chaos.py --target service --quick
  PYTHONPATH=src python scripts/chaos.py --target service --phase drain --seed 7

``--seed`` fixes the target's whole schedule (each target has its own
default, below), so a CI failure reproduces locally with the same flags.
Every drilled process, this one included, runs without fsync and with a
disk guard that re-checks on every call; children also get this
checkout's ``src`` first on ``PYTHONPATH`` and the fault plan in
``REPRO_FAULT_INJECT``.

``--target store`` (seed 1234; phase ``soak``)
    Each trial arms a seeded fault plan (run faults plus ENOSPC, torn
    and slow writes at the store's write seam) over a small simulation
    matrix run with ``keep_going``, clears it, drains what failed
    flushes kept pending and reruns to completion.  Invariants:
    ``no-result-lost`` (every ``ok`` run is in a fresh load of the
    store, which is itself the check that shards stay parseable),
    ``failure-recorded`` (every run that did not complete has a failure
    record), ``resume-completes``, ``converges`` (resumed payloads
    equal a never-faulted reference, wall time scrubbed) and
    ``golden-audit`` (the reference's golden pin audits the store).
    ``--quick`` runs 2 trials; the default is ``--trials 5``.

``--target campaign`` (seed 9, the zoo plan's; phases kill, torn,
sigterm, budget)
    Drives ``scripts/zoo_campaign.py``.  ``kill``: SIGKILL the instant
    the k-th workload record is durable (k = 2 with ``--quick``, else 1,
    2, 3); the journal attaches with exactly k units and no corrupt
    line, and the resume reuses all k and re-simulates none
    (``zero-resimulation``).  ``torn``: garbage appended to the journal
    costs nothing.  ``sigterm``: exit 75 with a schema-valid ``drain``
    partial artifact.  ``budget``: ``--max-workloads 2`` exits 75 with a
    partial covering exactly 2.  Every resume ``converges`` to an
    uninterrupted reference artifact, wall-time fields scrubbed.

``--target service`` (seed 0; nine phases)
    Boots ``scripts/serve.py`` per phase and asserts every accepted
    request ends ``completed``, ``failed``, ``shed`` or ``drained`` and
    every refusal is an explicit 429/503.  ``baseline``: ``/readyz``
    turns 200, a cold run completes fresh, the warm repeat is a store
    hit (``/statsz`` store hits grow) answered without admission, and
    ``service.requests = cache_hits + admitted + coalesced +
    Σ rejects.*``.  ``worker-death``, ``flaky-retry``, ``hang-shed``,
    ``io-pressure``, ``golden-integrity`` (a store-faulted server's
    writes digest like a clean one's pin), ``breaker``, ``overload``
    (429 + Retry-After; cache hits in the burst are 200) and ``drain``
    (SIGTERM mid-load: in-flight runs complete and are durable, queued
    ones drain with an ``interrupted`` record, exit 75).

Exit codes: 0 every invariant held, 1 a violation (named on stderr),
2 harness error or an unknown ``--target`` or ``--phase``.
"""

from __future__ import annotations

import argparse
import contextlib
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
SRC = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC)

from repro.analysis.faults import (  # noqa: E402
    FAULT_INJECT_ENV,
    OK,
    ExecutionPolicy,
    reset_io_faults,
)
from repro.analysis.parallel import ParallelRunner, RunRequest  # noqa: E402
from repro.analysis.simcache import ResultStore  # noqa: E402
from repro.campaign import (  # noqa: E402
    KILL_AFTER_ENV,
    CampaignJournal,
    first_artifact_divergence,
)
from repro.exceptions import CampaignError  # noqa: E402
from repro.resilience import EXIT_INTERRUPTED, reset_disk_guard  # noqa: E402
from repro.verify.golden import audit_store, pin_store  # noqa: E402
from repro.workloads import STRONG_SCALING  # noqa: E402
from repro.zoo import (  # noqa: E402
    CampaignPlan,
    plan_payload,
    validate_campaign_artifact,
)
from repro.zoo.campaign import ZOO_ARTIFACT_KIND  # noqa: E402

SERVE = os.path.join(REPO_ROOT, "scripts", "serve.py")
ZOO_CAMPAIGN = os.path.join(REPO_ROOT, "scripts", "zoo_campaign.py")

#: What every drilled process runs with: no fsync (durability has its own
#: tests), and a disk guard that re-checks on every call, so the low state
#: an injected ENOSPC forces clears on the next flush.
QUIET_DISK = {"REPRO_NO_FSYNC": "1", "REPRO_DISK_CHECK_INTERVAL": "0"}

_BANNER = re.compile(r"listening on http://([^:]+):(\d+)")


class Violation(Exception):
    """An invariant broke and the phase cannot go on."""


def environment(plan: str = "", extra=None) -> dict:
    """The environment of a drilled child: this checkout first on
    ``PYTHONPATH``, :data:`QUIET_DISK`, and ``plan`` as the fault plan."""
    env = {**os.environ, **QUIET_DISK, **(extra or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (SRC, os.environ.get("PYTHONPATH")) if path
    )
    env.pop(FAULT_INJECT_ENV, None)
    if plan:
        env[FAULT_INJECT_ENV] = plan
    return env


def request(host, port, body=None, path="/predict", timeout=120):
    """One HTTP exchange: POST ``body`` as JSON, or GET when it is None.
    Returns ``(status, decoded body, headers)``."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(
            "GET" if body is None else "POST",
            path,
            None if body is None else json.dumps(body),
        )
        response = conn.getresponse()
        data = json.loads(response.read() or b"{}")
        return response.status, data, dict(response.getheaders())
    finally:
        conn.close()


class Server:
    """One ``scripts/serve.py`` on an ephemeral port, found by its banner."""

    def __init__(self, store: str, args=(), plan: str = ""):
        self.store = store
        self.proc = subprocess.Popen(
            [sys.executable, SERVE, "--port", "0", "--store", store, *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=environment(plan),
            text=True,
        )
        deadline = time.time() + 30
        while time.time() < deadline:
            line = self.proc.stdout.readline()
            match = _BANNER.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
            if not line and self.proc.poll() is not None:
                break
        self.stop()
        raise Violation("server-boots: serve.py never announced its port")

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def request(self, body=None, path="/predict", timeout=90):
        """:func:`request`; no answer at all breaks the service contract."""
        try:
            return request(self.host, self.port, body, path, timeout)
        except (OSError, http.client.HTTPException) as error:
            raise Violation(f"answered: {path} got no answer ({error!r})")

    def stats(self) -> dict:
        return self.request(path="/statsz")[1]

    def stop(self, timeout=60) -> int:
        """SIGTERM (SIGKILL after ``timeout`` s); returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.read()
        return self.proc.returncode


class Drill:
    """The violations of one run, each named by its invariant."""

    def __init__(self):
        self.violations = []
        self.phases = 0
        self.name = "chaos"

    def check(self, ok: bool, invariant: str, detail: str = "") -> bool:
        if not ok:
            message = f"{self.name}: {invariant}: {detail}"
            self.violations.append(message)
            print(f"  VIOLATION {message}", file=sys.stderr, flush=True)
        return ok

    def require(self, ok: bool, invariant: str, detail: str = "") -> None:
        """:meth:`check`, and end the phase if it failed."""
        if not ok:
            raise Violation(f"{invariant}: {detail}")

    @contextlib.contextmanager
    def phase(self, name: str):
        self.name, before = name, len(self.violations)
        self.phases += 1
        print(f"[{name}]", flush=True)
        try:
            yield
        except Violation as violation:
            self.check(False, *str(violation).split(": ", 1))
        held = len(self.violations) == before
        print(f"  {name}: {'ok' if held else 'FAILED'}", flush=True)

    def converged(self, ours: dict, theirs: dict, what: str) -> bool:
        """The one convergence check: ``ours`` equals the reference
        ``theirs`` once both are scrubbed of wall-time fields."""
        divergence = first_artifact_divergence(ours, theirs)
        return self.check(
            divergence is None, "converges",
            f"{what} diverged from the reference: "
            f"{divergence.describe() if divergence else ''}",
        )


# --- store: seeded fault plans over an in-process campaign -------------------

#: Two cheap multi-kernel workloads at a reduced work scale keep a trial
#: to about a second while still crossing kernel boundaries.
STORE_ABBRS = ("va", "btree")


def store_matrix() -> list:
    return [
        RunRequest("sim", STRONG_SCALING[abbr], size=8, work_scale=0.25,
                   seed=seed)
        for abbr in STORE_ABBRS
        for seed in (0, 1)
    ]


def store_schedule(seed: int, trials: int) -> list:
    """``[(jobs, fault plan)]``, one per trial: 1-3 directives over runs
    and the store's write seam (trace and metrics seams have their own
    tests).  Failure records ride the store seam, so a failed append
    must keep them pending until the drain flush."""
    rng = random.Random(seed)
    schedule = []
    for _ in range(trials):
        candidates = [
            f"fail:sim|{rng.choice(STORE_ABBRS)}:1",   # fails once, retry wins
            f"fail:sim|{rng.choice(STORE_ABBRS)}",     # terminal failure
            "enospc:store:1",                          # one flush hits ENOSPC
            "partial-write:store:1",                   # one flush tears a line
            "slow-io:store:0.01",                      # every flush is slow
        ]
        plan = ",".join(rng.sample(candidates, rng.randint(1, 3)))
        schedule.append((rng.choice((1, 2)), plan))
    return schedule


def store_campaign(root: str, jobs: int, plan: str = ""):
    """One ``keep_going`` campaign over :func:`store_matrix` under
    ``plan``; afterwards the faults are cleared and the store drained."""
    reset_io_faults()
    reset_disk_guard()
    os.environ.pop(FAULT_INJECT_ENV, None)
    if plan:
        os.environ[FAULT_INJECT_ENV] = plan
    store = ResultStore(root)
    runner = ParallelRunner(
        store, jobs=jobs,
        policy=ExecutionPolicy(max_retries=1, keep_going=True),
    )
    try:
        return runner.run_batch_report(store_matrix())
    finally:
        os.environ.pop(FAULT_INJECT_ENV, None)
        reset_io_faults()
        # The guard re-checks (interval 0) and the disk is fine again.
        reset_disk_guard()
        store.flush()


def run_store(drill: Drill, workdir: str, seed: int, args, phases) -> None:
    keys = [request.key for request in store_matrix()]
    with drill.phase("reference"):
        root = os.path.join(workdir, "reference")
        report = store_campaign(root, jobs=1)
        drill.require(
            report.executed == len(keys), "reference-completes",
            f"the clean reference ran {report.executed} of {len(keys)}",
        )
        store = ResultStore(root)
        reference = {key: store.get(key) for key in keys}
        lost = [key for key, payload in reference.items() if payload is None]
        drill.require(not lost, "no-result-lost",
                      f"the reloaded reference store is missing {lost}")
        ledger = pin_store(store, keys, reason="chaos store reference")
    if drill.violations:
        return
    trials = 2 if args.quick else args.trials
    for trial, (jobs, plan) in enumerate(store_schedule(seed, trials)):
        with drill.phase(f"soak {trial} jobs={jobs} plan={plan}"):
            root = os.path.join(workdir, f"trial{trial}")
            report = store_campaign(root, jobs, plan)
            reloaded = ResultStore(root)
            for outcome in report.outcomes:
                drill.check(
                    outcome.status != OK or reloaded.contains(outcome.key),
                    "no-result-lost",
                    f"completed {outcome.key} is missing from the reloaded "
                    "store",
                )
            # A skipped run answers through the records that tripped
            # its breaker.
            for outcome in report.failures:
                drill.check(
                    bool(reloaded.failures(outcome.key)), "failure-recorded",
                    f"{outcome.status} run {outcome.key} has no failure "
                    "record",
                )
            resumed = store_campaign(root, jobs)
            unfinished = [o for o in resumed.outcomes if o.status != OK]
            drill.check(
                not unfinished, "resume-completes",
                f"{len(unfinished)} runs left ({resumed.summary()})",
            )
            final = ResultStore(root)
            for key in keys:
                payload = final.get(key)
                if drill.check(payload is not None, "resume-completes",
                               f"{key} is missing after the resume"):
                    drill.converged(payload, reference[key], key)
            audit = audit_store(ledger, final)
            drill.check(audit.ok, "golden-audit", audit.summary())


# --- campaign: kill, tear, drain and budget-stop scripts/zoo_campaign.py -----

CAMPAIGN_N = 4
CAMPAIGN_WORK_SCALE = 0.25


def campaign_schedule(seed: int, quick: bool) -> list:
    """``[(phase, k)]``: every phase with the journal append it stops at
    (SIGTERM stops after the first measured workload)."""
    kills = [("kill", k) for k in ([2] if quick else [1, 2, 3])]
    return kills + [("torn", 2), ("sigterm", 1), ("budget", 2)]


class Campaign:
    """One plan of ``scripts/zoo_campaign.py`` and its reference artifact."""

    def __init__(self, drill: Drill, workdir: str, seed: int):
        self.drill, self.workdir, self.seed = drill, workdir, seed
        self.plan = CampaignPlan(
            n=CAMPAIGN_N, seed=seed, work_scale=CAMPAIGN_WORK_SCALE
        )
        self.reference = None

    def command(self, name: str, extra=()) -> list:
        return [
            sys.executable, "-u", ZOO_CAMPAIGN,
            "--n", str(CAMPAIGN_N), "--seed", str(self.seed),
            "--work-scale", str(CAMPAIGN_WORK_SCALE), "--jobs", "1",
            "--journal-dir", os.path.join(self.workdir, f"{name}-journal"),
            "--out", self.artifact(name), *extra,
        ]

    def artifact(self, name: str) -> str:
        return os.path.join(self.workdir, f"{name}.json")

    def env(self, kill_after=None) -> dict:
        # TMPDIR: a SIGKILLed campaign cannot remove its temporary store.
        extra = {"TMPDIR": self.workdir}
        if kill_after is not None:
            extra[KILL_AFTER_ENV] = str(kill_after)
        return environment(extra=extra)

    def run(self, name: str, extra=(), kill_after=None):
        return subprocess.run(
            self.command(name, extra), env=self.env(kill_after), timeout=600,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )

    def journal(self, name: str) -> CampaignJournal:
        return CampaignJournal.open(
            os.path.join(self.workdir, f"{name}-journal"),
            ZOO_ARTIFACT_KIND, plan_payload(self.plan),
            created_unix=time.time(),
        )

    def valid(self, name: str) -> dict:
        path = self.artifact(name)
        self.drill.require(os.path.exists(path), "artifact-written",
                           f"{name} exited without writing {path}")
        with open(path) as handle:
            document = json.load(handle)
        problems = validate_campaign_artifact(document)
        self.drill.require(not problems, "schema-valid",
                           f"{name}.json: {problems[:3]}")
        return document

    def exits(self, result, code: int, what: str) -> None:
        self.drill.require(
            result.returncode == code, "exit-code",
            f"{what}: expected {code}, got {result.returncode}:\n"
            f"{result.stdout}",
        )

    def resume(self, name: str, sealed: int) -> str:
        """Re-invoke ``name``: exit 0, only the unsealed workloads are
        simulated, and the artifact converges to the reference."""
        resumed = self.run(name)
        self.exits(resumed, 0, f"{name} resume")
        executed = sum(
            1 for line in resumed.stdout.splitlines()
            if line.startswith("  z")
            and ("measured=" in line or "FAILED" in line)
        )
        self.drill.check(
            executed == CAMPAIGN_N - sealed, "zero-resimulation",
            f"{name}: resume executed {executed} workloads, expected "
            f"{CAMPAIGN_N - sealed}",
        )
        self.drill.converged(self.valid(name), self.reference, name)
        return resumed.stdout


def run_campaign(drill: Drill, workdir: str, seed: int, args, phases) -> None:
    campaign = Campaign(drill, workdir, seed)
    with drill.phase("reference"):
        campaign.exits(campaign.run("reference"), 0, "uninterrupted run")
        campaign.reference = campaign.valid("reference")
    if drill.violations:
        return
    for phase, k in campaign_schedule(seed, args.quick):
        if phases and phase not in phases:
            continue
        name = f"{phase}{k}" if phase == "kill" else phase
        with drill.phase(name):
            CAMPAIGN_PHASES[phase](campaign, name, k)


def campaign_kill(campaign: Campaign, name: str, k: int) -> None:
    drill = campaign.drill
    campaign.exits(campaign.run(name, kill_after=k), -signal.SIGKILL,
                   f"SIGKILL after append {k}")
    drill.check(not os.path.exists(campaign.artifact(name)), "no-artifact",
                "a killed campaign wrote its artifact")
    journal = campaign.journal(name)
    drill.check(
        len(journal.completed) == k, "journal-intact",
        f"{len(journal.completed)} sealed units, expected {k}",
    )
    drill.check(
        journal.corrupt_lines == 0, "journal-intact",
        f"{journal.corrupt_lines} corrupt lines after a post-append kill",
    )
    reused = f"resume: reused {k} of {CAMPAIGN_N} workload(s)"
    drill.check(reused in campaign.resume(name, k), "zero-resimulation",
                f"the resume did not report '{reused}'")


def campaign_torn(campaign: Campaign, name: str, k: int) -> None:
    campaign.exits(campaign.run(name, kill_after=k), -signal.SIGKILL,
                   "set-up kill")
    with open(campaign.journal(name).path, "a") as handle:
        handle.write('{"type": "workload", "unit": "zdeadbeef", "status"')
    campaign.resume(name, k)


def campaign_sigterm(campaign: Campaign, name: str, k: int) -> None:
    drill = campaign.drill
    process = subprocess.Popen(
        campaign.command(name), env=campaign.env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    lines, measured = [], 0
    try:
        # Drain until the k-th workload lands, then request shutdown.
        for line in process.stdout:
            lines.append(line)
            if line.startswith("  z") and "measured=" in line:
                measured += 1
                if measured == k:
                    process.send_signal(signal.SIGTERM)
        process.wait(timeout=120)
    finally:
        if process.poll() is None:
            process.kill()
    result = subprocess.CompletedProcess(
        process.args, process.returncode, "".join(lines)
    )
    campaign.exits(result, EXIT_INTERRUPTED, "SIGTERM mid-campaign")
    document = campaign.valid(name)
    partial = document.get("partial")
    drill.require(
        isinstance(partial, dict) and partial.get("reason") == "drain",
        "partial-artifact", f"no drain partial block: {partial!r}",
    )
    completed = partial["completed"]
    drill.check(
        0 < completed < CAMPAIGN_N, "partial-artifact",
        f"the drain completed {completed} of {CAMPAIGN_N}: it landed "
        "outside the campaign",
    )
    cells = sum(
        cell for row in document["confusion"].values() for cell in row.values()
    )
    drill.check(
        cells == len(document["workloads"]), "partial-artifact",
        f"confusion cells sum to {cells}, expected "
        f"{len(document['workloads'])}",
    )
    # The resume's own count of sealed work is the partial's.
    campaign.resume(name, completed)


def campaign_budget(campaign: Campaign, name: str, k: int) -> None:
    drill = campaign.drill
    campaign.exits(campaign.run(name, extra=["--max-workloads", str(k)]),
                   EXIT_INTERRUPTED, f"--max-workloads {k}")
    document = campaign.valid(name)
    partial = document.get("partial")
    drill.check(
        isinstance(partial, dict)
        and partial.get("reason") == "workload-budget"
        and partial.get("completed") == k,
        "partial-artifact", f"unexpected partial block {partial!r}",
    )
    drill.check(
        len(document["workloads"]) + len(document["failures"]) == k,
        "partial-artifact", "the artifact does not cover exactly the "
        "budgeted prefix",
    )
    campaign.resume(name, k)


CAMPAIGN_PHASES = {
    "kill": campaign_kill,
    "torn": campaign_torn,
    "sigterm": campaign_sigterm,
    "budget": campaign_budget,
}


# --- service: seeded fault regimes against scripts/serve.py ------------------

#: Sub-second configs (size 8, work_scale 0.25) so phases stay snappy.
FAST_BENCHES = ("va", "dct", "sr")

TERMINAL = {"completed", "failed", "shed", "drained", "rejected"}

SERVICE_PHASES = (
    "baseline", "worker-death", "flaky-retry", "hang-shed", "io-pressure",
    "golden-integrity", "breaker", "overload", "drain",
)


def service_schedule(seed: int, quick: bool, phases=SERVICE_PHASES) -> list:
    """``[(phase, benchmarks it drills)]``, drawn in phase order.  A
    second benchmark of a pair is always a different, healthy one."""
    rng = random.Random(seed)

    def one():
        return (rng.choice(FAST_BENCHES),)

    def pair():
        first = rng.choice(FAST_BENCHES)
        return first, rng.choice([b for b in FAST_BENCHES if b != first])

    draws = {
        "baseline": one, "worker-death": pair, "flaky-retry": one,
        "hang-shed": pair, "breaker": pair,
        "golden-integrity": lambda: tuple(
            rng.choice(FAST_BENCHES) for _ in range(2 if quick else 3)
        ),
    }
    return [(phase, draws.get(phase, tuple)()) for phase in phases]


def body_for(bench, seed=0, deadline=None, work_scale=0.25) -> dict:
    body = {"kind": "sim", "benchmark": bench, "size": 8,
            "work_scale": work_scale, "seed": seed}
    if deadline is not None:
        body["deadline_s"] = deadline
    return body


def unaccounted(counters: dict) -> int:
    """``service.requests`` minus the outcomes that must add up to it."""
    outcomes = sum(
        value for name, value in counters.items()
        if name in ("service.cache_hits", "service.admitted",
                    "service.coalesced")
        or name.startswith("service.rejects.")
    )
    return counters.get("service.requests", 0) - outcomes


def burst(server: Server, bodies: list, spacing: float):
    """Send ``bodies`` concurrently, ``spacing`` s apart.  Returns a
    ``join()`` that waits and gives ``(responses, transport errors)``."""
    responses, errors = [None] * len(bodies), []

    def fire(index, body):
        try:
            responses[index] = server.request(body, timeout=120)
        except Exception as error:  # noqa: BLE001 - harness boundary
            errors.append(f"request {index}: {error}")

    threads = [
        threading.Thread(target=fire, args=item) for item in enumerate(bodies)
    ]
    for thread in threads:
        thread.start()
        time.sleep(spacing)

    def join():
        for thread in threads:
            thread.join()
        return [r for r in responses if r], errors

    return join


class ServiceDrill:
    """The service target's phases: ``phase_<name>(benches)``."""

    def __init__(self, drill: Drill, workdir: str, quick: bool):
        self.drill, self.workdir, self.quick = drill, workdir, quick

    def server(self, name, plan="", args=()) -> Server:
        return Server(os.path.join(self.workdir, name), args, plan)

    def expect(self, response, status, state, invariant, what) -> None:
        got, data, _ = response
        self.drill.check(
            got == status and data.get("status") == state, invariant,
            f"{what}: expected {status} {state}, got {got} {data}",
        )

    def terminal(self, responses) -> None:
        for status, data, headers in responses:
            self.drill.check(
                data.get("status") in TERMINAL, "terminal-state",
                f"non-terminal response {status} {data}",
            )
            self.drill.check(status != 429 or "Retry-After" in headers,
                             "explicit-refusal", "429 without Retry-After")

    def phase_baseline(self, bench):
        drill = self.drill
        with self.server("baseline") as server:
            deadline = time.time() + 15
            while server.request(path="/readyz", timeout=2)[0] != 200:
                drill.require(time.time() < deadline, "ready",
                              "/readyz never turned 200")
                time.sleep(0.1)
            status, cold, _ = server.request(body_for(bench))
            drill.check(
                status == 200 and cold.get("status") == "completed"
                and not cold.get("cached"), "cold-fresh",
                f"expected a fresh 200, got {status} {cold}",
            )
            hits_before = server.stats()["store"]["hits"]
            status, warm, _ = server.request(body_for(bench))
            drill.check(
                status == 200 and warm.get("cached")
                and warm.get("key") == cold.get("key"), "warm-hit",
                f"expected a cache hit on {cold.get('key')}, got "
                f"{status} {warm}",
            )
            stats = server.stats()
            drill.check(
                stats["store"]["hits"] > hits_before, "hit-from-store",
                f"/statsz store hits {hits_before} -> "
                f"{stats['store']['hits']}",
            )
            counters = stats["metrics"]["counters"]
            drill.check(
                counters.get("service.cache_hits") == 1
                and counters.get("service.admitted") == 1,
                "hit-not-admitted",
                f"one cold run and one warm hit should count 1 admitted + "
                f"1 cache hit, got {counters}",
            )
            drill.check(unaccounted(counters) == 0, "requests-accounted",
                        f"counters {counters}")

    def phase_worker_death(self, poisoned, healthy):
        with self.server("worker-death", f"die:sim|{poisoned}") as server:
            self.expect(server.request(body_for(poisoned)), 500, "failed",
                        "poisoned-fails", "the poisoned config")
            self.expect(server.request(body_for(healthy)), 200, "completed",
                        "healthy-survives", "a healthy config")
            self.drill.check(server.stats()["workers"]["recycles"] >= 1,
                             "worker-recycled", "no recycle after deaths")

    def phase_flaky_retry(self, bench):
        with self.server("flaky-retry", f"fail:sim|{bench}:1") as server:
            self.expect(server.request(body_for(bench)), 200, "completed",
                        "retry-wins", "one injected failure")

    def phase_hang_shed(self, bench, healthy):
        drill = self.drill
        with self.server("hang-shed", f"hang:sim|{bench}:120") as server:
            started = time.time()
            response = server.request(body_for(bench, deadline=1.5))
            elapsed = time.time() - started
            self.expect(response, 504, "shed", "deadline-sheds", "a hung run")
            drill.check(elapsed < 30, "deadline-sheds",
                        f"shed took {elapsed:.1f}s against a 1.5s deadline")
            self.expect(server.request(body_for(healthy)), 200, "completed",
                        "healthy-survives", "the next request")
            drill.check(server.stats()["workers"]["recycles"] >= 1,
                        "worker-recycled", "the hung worker was never "
                        "recycled")

    def phase_io_pressure(self):
        plan = "enospc:store:1,slow-io:store:0.02"
        with self.server("io-pressure", plan) as server:
            for index in range(2 if self.quick else 4):
                bench = FAST_BENCHES[index % len(FAST_BENCHES)]
                self.expect(server.request(body_for(bench, seed=index)), 200,
                            "completed", "serves-under-io-faults",
                            f"request {index}")
            status = server.request(path="/readyz")[0]
            self.drill.check(status == 200, "ready",
                             f"not ready under io faults ({status})")

    def phase_golden_integrity(self, *benches):
        """Store faults may cost persistence, never silent corruption."""
        drill = self.drill
        stores = {}
        plans = {"clean": "", "faulted": "enospc:store:1,partial-write:store:1"}
        for label, plan in plans.items():
            with self.server(f"golden-{label}", plan) as server:
                for index, bench in enumerate(benches):
                    self.expect(
                        server.request(body_for(bench, seed=300 + index)),
                        200, "completed", "serves-under-io-faults",
                        f"{label} request {index}",
                    )
            stores[label] = ResultStore(server.store)
        reference = stores["clean"]
        drill.require(len(reference) > 0, "golden-audit",
                      "the clean server persisted nothing to pin")
        ledger = pin_store(reference, sorted(reference.keys()),
                           reason="chaos service clean reference server")
        # require_all=False: an injected ENOSPC may have cost a flush;
        # what *was* persisted must digest identically.
        audit = audit_store(ledger, stores["faulted"], require_all=False)
        drill.check(not audit.drifted, "golden-audit",
                    f"{audit.summary()}: {audit.drifted}")

    def phase_breaker(self, bench, healthy):
        drill = self.drill
        with self.server("breaker", f"die:sim|{bench}",
                         ["--breaker-threshold", "2"]) as server:
            for attempt in range(2):
                status = server.request(body_for(bench))[0]
                drill.check(status == 500, "poisoned-fails",
                            f"failure {attempt}: got {status}")
            status, data, _ = server.request(body_for(bench))
            drill.check(
                status == 503 and "breaker" in data.get("error", ""),
                "breaker-fast-fails",
                f"third request: expected 503 naming the breaker, got "
                f"{status} {data}",
            )
            drill.check(server.stats()["breaker"]["open_configs"] >= 1,
                        "breaker-fast-fails", "/statsz shows no open breaker")
            status = server.request(body_for(healthy))[0]
            drill.check(status == 200, "healthy-survives",
                        f"a healthy config got {status}")

    def phase_overload(self):
        drill = self.drill
        args = ["--queue-depth", "2", "--workers-min", "1",
                "--workers-max", "1"]
        with self.server("overload", args=args) as server:
            size = 6 if self.quick else 10
            # One memoized config, answered before the burst saturates
            # the queue and asked for again while it is saturated.
            warm = body_for("dct", seed=99)
            status, data, _ = server.request(warm)
            drill.check(status == 200 and not data["cached"], "cold-fresh",
                        f"warm-up: expected a fresh 200, got {status} {data}")
            join = burst(server, [
                body_for("va", seed=100 + index, work_scale=0.5)
                for index in range(size)
            ], spacing=0.05)
            hits = [server.request(warm)[:2] for _ in range(size)]
            depth = server.stats()["queue"]["depth"]
            responses, errors = join()
            drill.check(not errors, "answered", f"transport errors {errors}")
            drill.check(
                all(status == 200 and data["cached"] for status, data in hits),
                "hit-not-admitted",
                f"cache hits in the burst must be 200, never 429 (queue "
                f"depth {depth} of 2), got {[s for s, _ in hits]}",
            )
            statuses = [status for status, _, _ in responses]
            drill.check(all(s in (200, 429, 504) for s in statuses),
                        "explicit-refusal", f"unexpected statuses {statuses}")
            drill.check(429 in statuses, "explicit-refusal",
                        f"a {size}-deep burst against a 2-slot queue never "
                        f"got a 429 (statuses: {statuses})")
            self.terminal(responses)

    def phase_drain(self):
        drill = self.drill
        args = ["--workers-min", "1", "--workers-max", "1"]
        with self.server("drain", args=args) as server:
            count = 3 if self.quick else 5
            join = burst(server, [
                body_for("sr", seed=200 + index, work_scale=0.5, deadline=60)
                for index in range(count)
            ], spacing=0.1)
            time.sleep(0.5)  # let request 0 reach a worker
            code = server.stop()
            responses, errors = join()
        drill.check(not errors, "answered", f"transport errors {errors}")
        drill.check(code == EXIT_INTERRUPTED, "drain-exit-75",
                    f"exit code {code}, expected {EXIT_INTERRUPTED}")
        drill.check(len(responses) == count, "answered",
                    f"{count - len(responses)} request(s) never answered")
        self.terminal(responses)
        states = sorted(data.get("status") for _, data, _ in responses)
        drill.check("completed" in states, "in-flight-completes",
                    f"the in-flight run should finish, got {states}")
        drill.check("drained" in states, "queued-drains",
                    f"queued runs should report drained, got {states}")
        store = ResultStore(server.store)
        for _, data, _ in responses:
            key = data.get("key")
            if data.get("status") == "completed":
                drill.check(store.contains(key), "in-flight-durable",
                            f"completed {key} is not in its shard")
            elif data.get("status") == "drained":
                drill.check(
                    any(record.get("status") == "interrupted"
                        for record in store.failures(key)),
                    "drained-recorded",
                    f"drained {key} has no interrupted failure record: a "
                    "rerun could not find it",
                )


def run_service(drill: Drill, workdir: str, seed: int, args, phases) -> None:
    service = ServiceDrill(drill, workdir, args.quick)
    selected = [p for p in SERVICE_PHASES if not phases or p in phases]
    for phase, benches in service_schedule(seed, args.quick, selected):
        with drill.phase(phase):
            getattr(service, "phase_" + phase.replace("-", "_"))(*benches)


#: ``--target`` -> (runner, default seed, phase names).
TARGETS = {
    "store": (run_store, 1234, ("soak",)),
    "campaign": (run_campaign, 9, tuple(CAMPAIGN_PHASES)),
    "service": (run_service, 0, SERVICE_PHASES),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--target", required=True, choices=sorted(TARGETS))
    parser.add_argument("--seed", type=int, default=None,
                        help="fixes the whole schedule (default: the "
                        "target's own)")
    parser.add_argument("--quick", action="store_true",
                        help="CI tier: fewer trials, kill points and "
                        "burst requests")
    parser.add_argument("--trials", type=int, default=5,
                        help="store trials without --quick (default 5)")
    parser.add_argument("--keep", action="store_true",
                        help="keep the scratch directory for post-mortems")
    parser.add_argument("--phase", action="append", default=[],
                        help="run only the named phase(s); repeatable")
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    run, default_seed, known = TARGETS[args.target]
    phases = [name.replace("_", "-") for name in args.phase]
    unknown = sorted(set(phases) - set(known))
    if unknown:
        print(f"unknown --phase {', '.join(unknown)} for --target "
              f"{args.target} (known: {', '.join(known)})", file=sys.stderr)
        return 2
    seed = default_seed if args.seed is None else args.seed
    os.environ.update(QUIET_DISK)
    workdir = tempfile.mkdtemp(prefix=f"repro-chaos-{args.target}-")
    drill = Drill()
    started = time.time()
    try:
        run(drill, workdir, seed, args, phases)
    except (OSError, subprocess.TimeoutExpired, CampaignError) as error:
        print(f"harness error: {error!r}", file=sys.stderr)
        return 2
    finally:
        if args.keep:
            print(f"scratch kept at {workdir}")
        else:
            shutil.rmtree(workdir, ignore_errors=True)
    summary = (f"chaos {args.target}: {drill.phases} phase(s), seed {seed}, "
               f"{time.time() - started:.1f}s")
    if drill.violations:
        print(f"{summary}: {len(drill.violations)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"{summary}: every invariant held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
