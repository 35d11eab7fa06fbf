"""The four benchmark workloads and their outside-in layer probes.

Every workload is a closed loop with one caller.  Inputs come from
``--seed``; the Table II trace generators draw their random streams
from it, which changes addresses but moves the amount of work by under
0.5 %, so runs with different seeds stay comparable.

Each class states *why* it exists — which layers it exercises and which
it deliberately bypasses — because that is what lets a later change say
"this should move here and nowhere else".

Only the layers' public functions are called, from outside; the spans
recorded here are the harness's own (see :mod:`spans`).
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from measure import Recorder, kind_quartiles, op_p25, percentile, work_rate
from repro.analysis.faults import ExecutionPolicy
from repro.analysis.runner import (
    CachedRunner,
    compute_mrc,
    compute_sim,
    curve_payload,
    mrc_key,
    sim_key,
)
from repro.analysis.simcache import ResultStore
from repro.campaign import CampaignJournal, first_artifact_divergence
from repro.checkpoint import CheckpointPolicy
from repro.core import ScaleModelPredictor
from repro.core.baselines import METHOD_NAMES, make_predictor
from repro.core.workflow import predict_strong_scaling
from repro.gpu import GPUConfig
from repro.mrc import collect_miss_rate_curve
from repro.verify.digest import payload_digest
from repro.verify.golden import load_ledger
from repro.workloads import build_trace, get_benchmark
from repro.zoo.campaign import (
    ZOO_ARTIFACT_KIND,
    CampaignPlan,
    plan_payload,
    run_campaign,
)
from repro.zoo.sample import sample_batch

#: One benchmark per scaling class of the paper: super-linear (cliff),
#: sub-linear (pointer chase), linear (compute-bound).
KINDS = ("va", "btree", "bs")
SCALE_SIZES = (8, 16)
TARGET_SIZES = (32, 64, 128)
#: A quarter of the Table II input keeps all three scaling regimes at
#: 8/16/32 SMs (va still falls off its cliff at 32) while an op takes
#: 1.5–2 s instead of 6–8 s, so a run holds several samples per kind.
WORK_SCALE = 0.25

#: Value and the number of samples behind it.
Metric = Tuple[float, int]
Metrics = Dict[str, Metric]


def sim_digest(result) -> str:
    return payload_digest(asdict(result))


def curve_digest(curve) -> str:
    return payload_digest(curve_payload(curve))


class Workload:
    name = ""
    why = ""
    #: Kinds behind ``op_p25_ms`` and ``alt_op_p25_ms``.
    primary: Tuple[str, ...] = ()
    alt: Tuple[str, ...] = ()

    def __init__(self, seed: int, tmp: str, root: str, smoke: bool) -> None:
        self.seed = seed
        self.tmp = tmp
        self.root = root
        self.smoke = smoke
        self.setups = 0

    def setup(self, rec: Recorder) -> None:
        """Generate inputs, compute references, warm up.  Repeatable."""
        raise NotImplementedError

    def anchor(self, rec: Recorder) -> None:
        """Once per process, untimed: check outputs against a reference the
        workload did not compute itself (golden ledger, direct engine call)."""

    def round(self, rec: Recorder) -> None:
        """Run every op kind once (fast kinds: one batch)."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` acquired."""

    def work(self) -> Dict[str, float]:
        """Deterministic work count per primary kind."""
        raise NotImplementedError

    def end_to_end(self, rec: Recorder) -> Metrics:
        n = min(len(rec.samples[k]) for k in self.primary)
        n_alt = min(len(rec.samples[k]) for k in self.alt)
        return {
            "op_p25_ms": (1e3 * op_p25(rec.samples, self.primary), n),
            "alt_op_p25_ms": (1e3 * op_p25(rec.samples, self.alt), n_alt),
            "work_per_s": (work_rate(rec.samples, self.work()), n),
        }

    def probes(self, rec: Recorder) -> Metrics:
        """Outside-in layer probes; traced runs only, before the rounds."""
        return {}

    def per_layer(self, rec: Recorder) -> Metrics:
        """Layer numbers read off the rounds' samples and spans."""
        return {}

    def ledger_digest(self, key: str) -> Optional[str]:
        path = os.path.join(self.root, "results", "golden", "ledger.json")
        entry = load_ledger(path)["entries"].get(key)
        return entry["digest"] if entry else None

    def check_stable(self, rec: Recorder, what: str, digest: str) -> None:
        """Every recomputation of ``what`` must digest like the first."""
        first = self.digests.setdefault(what, digest)
        rec.check(first == digest, f"{self.name}: {what} changed between rounds")


def probe(scale: float, calls) -> Metric:
    """Median wall time of the calls, each timed alone, times ``scale``."""
    samples = []
    for call in calls:
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return scale * statistics.median(samples), len(samples)


def span_ms(spans, name: str, op_name: str) -> Metric:
    """Lower-quartile duration of the ``name`` spans under ``op_name`` ops."""
    ops = {s.op for s in spans.roots(op_name)}
    found = [s.duration for s in spans.spans if s.name == name and s.op in ops]
    return (1e3 * percentile(found, 25), len(found)) if found else (0.0, 0)


def trace_probes(seed: int) -> Metrics:
    """Trace generation alone: it is lazy, so every sim and every MRC
    pays it again inside their own timed window."""
    out: Metrics = {}
    accesses = 0
    scale = GPUConfig.paper_baseline().capacity_scale
    for kind in KINDS:
        gc.collect()
        start = time.perf_counter()
        trace = build_trace(
            get_benchmark(kind), work_scale=WORK_SCALE,
            capacity_scale=scale, seed=seed,
        )
        accesses += trace.count_accesses()
        out[f"trace.build_ms.{kind}"] = (1e3 * (time.perf_counter() - start), 1)
    out["trace.accesses"] = (accesses, 1)
    return out


# --------------------------------------------------------------------------
# predict_cold
# --------------------------------------------------------------------------

class PredictCold(Workload):
    name = "predict_cold"
    why = (
        "Fig. 3 flow with no cache, pool or server: two scale-model sims + "
        "exact MRC + predictor per op, so engine/gpu/mrc/trace carry it all"
    )
    primary = KINDS
    alt = tuple(f"detailed.{k}" for k in KINDS)

    def setup(self, rec: Recorder) -> None:
        self.specs = {k: get_benchmark(k) for k in KINDS}
        self.digests: Dict[str, str] = {}
        self.last: Dict[str, dict] = {}
        # The detailed target-size runs the predictions are scored
        # against; they also warm every code path the ops use.
        self.reference = {
            k: compute_sim(self.specs[k], TARGET_SIZES[0], WORK_SCALE, self.seed)
            for k in KINDS
        }

    def anchor(self, rec: Recorder) -> None:
        # One full-scale ledger run per process; which one rotates with
        # the seed so ten seeds cover all six scale-model entries.
        kind = KINDS[self.seed % len(KINDS)]
        size = SCALE_SIZES[(self.seed // len(KINDS)) % len(SCALE_SIZES)]
        spec = self.specs[kind]
        expected = self.ledger_digest(sim_key(spec, size, 1.0, 0))
        rec.check(
            expected == sim_digest(compute_sim(spec, size, 1.0, 0)),
            f"predict_cold: {kind}@{size} does not match the golden ledger",
        )

    def round(self, rec: Recorder) -> None:
        spans = rec.spans
        for kind in KINDS:
            spec = self.specs[kind]
            sims = {}

            def simulate_fn(num_sms, work_scale, spec=spec, sims=sims):
                with spans.span(f"sim{num_sms}", "engine"):
                    sims[num_sms] = compute_sim(
                        spec, num_sms, work_scale * WORK_SCALE, self.seed
                    )
                return sims[num_sms]

            def mrc_fn(spec=spec, sims=sims):
                with spans.span("mrc", "mrc"):
                    sims["mrc"] = compute_mrc(spec, WORK_SCALE, "stack", self.seed)
                return sims["mrc"]

            with rec.op(kind, "core"):
                study = predict_strong_scaling(
                    spec, SCALE_SIZES, TARGET_SIZES,
                    simulate_fn=simulate_fn, mrc_fn=mrc_fn,
                    include_actuals=False,
                )
            curve = sims.pop("mrc")
            for size, result in sims.items():
                self.check_stable(rec, f"{kind}@{size}", sim_digest(result))
            self.check_stable(rec, f"{kind} curve", curve_digest(curve))
            self.check_stable(
                rec, f"{kind} predictions", payload_digest(
                    {m: {str(t): v for t, v in p.items()}
                     for m, p in study.predictions.items()}
                ),
            )
            self.last[kind] = {"sims": sims, "curve": curve, "study": study}
        for kind in KINDS:
            with rec.op(f"detailed.{kind}", "engine"):
                result = compute_sim(
                    self.specs[kind], TARGET_SIZES[0], WORK_SCALE, self.seed
                )
            rec.check(
                sim_digest(result) == sim_digest(self.reference[kind]),
                f"predict_cold: detailed {kind} differs from its set-up run",
            )

    def work(self) -> Dict[str, float]:
        # Warp instructions, not events: an engine change may alter
        # events per instruction, never the instructions simulated.
        return {
            k: sum(r.warp_instructions for r in self.last[k]["sims"].values())
            for k in KINDS
        }

    def apes(self) -> Dict[str, float]:
        target = TARGET_SIZES[0]
        out = {}
        for kind in KINDS:
            predicted = self.last[kind]["study"].predictions["scale-model"][target]
            actual = self.reference[kind].ipc
            out[kind] = 100.0 * abs(predicted - actual) / actual
        return out

    def probes(self, rec: Recorder) -> Metrics:
        out = trace_probes(self.seed)
        va = self.specs["va"]

        # Python calls per simulated event, on a short fixed run.
        calls = [0]

        def count(frame, event, arg):
            if event in ("call", "c_call"):
                calls[0] += 1

        sys.setprofile(count)
        try:
            small = compute_sim(va, 8, 0.05, self.seed)
        finally:
            sys.setprofile(None)
        out["engine.calls_per_event"] = (calls[0] / small.events, 1)

        # Cost of the two instrumentation seams while switched on.
        from repro.obs import profile_hooks
        from repro.verify import hooks as verify_hooks

        def timed_sim() -> float:
            gc.collect()
            start = time.perf_counter()
            compute_sim(va, 8, WORK_SCALE, self.seed)
            return time.perf_counter() - start

        best = {"off": [], "obs": [], "verify": []}
        for _ in range(2):
            best["off"].append(timed_sim())
            for name, module in (("obs", profile_hooks), ("verify", verify_hooks)):
                module.install()
                try:
                    best[name].append(timed_sim())
                finally:
                    module.uninstall()
        off = min(best["off"])
        out["obs.on_overhead_frac"] = (min(best["obs"]) / off - 1.0, 2)
        out["verify.on_overhead_frac"] = (min(best["verify"]) / off - 1.0, 2)
        return out

    def per_layer(self, rec: Recorder) -> Metrics:
        spans = rec.spans
        out: Metrics = {}
        sim_s = events = loop_s = 0.0
        sim8_s = mrc_s = 0.0
        totals = dict.fromkeys(
            ("events", "warp_instructions", "cycles", "l1_misses", "llc_misses"), 0.0
        )
        for kind in KINDS:
            for size in SCALE_SIZES:
                metric = span_ms(spans, f"sim{size}", kind)
                out[f"engine.sim_ms.{kind}.{size}"] = metric
                result = self.last[kind]["sims"][size]
                sim_s += metric[0] / 1e3
                events += result.events
                loop_s += result.wall_time_s
                for field in totals:
                    totals[field] += getattr(result, field)
            sim8_s += out[f"engine.sim_ms.{kind}.8"][0]
            out[f"mrc.stack_ms.{kind}"] = span_ms(spans, "mrc", kind)
            mrc_s += out[f"mrc.stack_ms.{kind}"][0]
        n = len(spans.roots("va"))
        out["engine.us_per_event"] = (1e6 * sim_s / events, n)
        # wall_time_s is the last round's; the spans are lower quartiles.
        out["engine.loop_share"] = (loop_s / sim_s, n)
        out["engine.events"] = (totals["events"], 1)
        out["engine.warp_insns"] = (totals["warp_instructions"], 1)
        out["engine.cycles"] = (totals["cycles"], 1)
        out["engine.events_per_winsn"] = (
            totals["events"] / totals["warp_instructions"], 1
        )
        out["gpu.l1_misses"] = (totals["l1_misses"], 1)
        out["gpu.llc_misses"] = (totals["llc_misses"], 1)
        out["mrc.vs_sim8_ratio"] = (mrc_s / sim8_s, n)
        curves = [self.last[k]["curve"].metadata for k in KINDS]
        out["mrc.l1_accesses"] = (sum(c["l1_accesses"] for c in curves), 1)
        out["mrc.llc_accesses"] = (sum(c["llc_accesses"] for c in curves), 1)
        apes = self.apes()
        for kind in KINDS:
            out[f"core.ape_pct.{kind}"] = (apes[kind], 1)
        out["core.mape_pct"] = (statistics.fmean(apes.values()), 1)

        # The predictor alone: every method, every target.
        profile = self.last["va"]["study"].profile

        def predict_all() -> None:
            model = ScaleModelPredictor(profile)
            for target in TARGET_SIZES:
                model.predict(target)
            for method in METHOD_NAMES:
                if method != "scale-model":
                    fitted = make_predictor(method).fit(profile.sizes, profile.ipcs)
                    for target in TARGET_SIZES:
                        fitted.predict(target)

        out["core.predict_us"] = probe(1e6, [predict_all] * 50)
        return out


# --------------------------------------------------------------------------
# mrc_sweep
# --------------------------------------------------------------------------

class MrcSweep(Workload):
    name = "mrc_sweep"
    why = (
        "both MRC methods on fresh traces, no timing simulation: mrc and "
        "trace do all the work, so an engine-only change must not move it"
    )
    primary = tuple(f"stack.{k}" for k in KINDS)
    alt = tuple(f"statstack.{k}" for k in KINDS)

    def setup(self, rec: Recorder) -> None:
        self.specs = {k: get_benchmark(k) for k in KINDS}
        self.config = GPUConfig.paper_baseline()
        self.digests: Dict[str, str] = {}
        self.curves: Dict[str, object] = {}
        # Exact LRU simulation at every capacity: a second exact method
        # the stack-distance curves must agree with, and the warm-up.
        start = time.perf_counter()
        self.lru = {"va": self.collect("va", "lru", rec)}
        self.lru_s = time.perf_counter() - start
        for kind in KINDS[1:]:
            self.lru[kind] = self.collect(kind, "lru", rec)
        self.collect("va", "statstack", rec)

    def collect(self, kind: str, method: str, rec: Recorder):
        with rec.spans.span("build_trace", "trace"):
            trace = build_trace(
                self.specs[kind], work_scale=WORK_SCALE,
                capacity_scale=self.config.capacity_scale, seed=self.seed,
            )
        with rec.spans.span("collect", "mrc"):
            return collect_miss_rate_curve(trace, config=self.config, method=method)

    def anchor(self, rec: Recorder) -> None:
        kind = KINDS[self.seed % len(KINDS)]
        spec = self.specs[kind]
        expected = self.ledger_digest(mrc_key(spec, 1.0, "stack", 0))
        rec.check(
            expected == curve_digest(compute_mrc(spec, 1.0, "stack", 0)),
            f"mrc_sweep: {kind} stack curve does not match the golden ledger",
        )

    def round(self, rec: Recorder) -> None:
        for op in self.primary + self.alt:
            method, kind = op.split(".")
            with rec.op(op, "harness"):
                curve = self.collect(kind, method, rec)
            self.check_stable(rec, op, curve_digest(curve))
            self.curves[op] = curve
        for kind in KINDS:
            exact, lru = self.curves[f"stack.{kind}"].mpki, self.lru[kind].mpki
            rec.check(
                all(abs(a - b) <= 1e-9 * max(b, 1.0) for a, b in zip(exact, lru)),
                f"mrc_sweep: stack-distance and LRU curves of {kind} disagree",
            )

    def work(self) -> Dict[str, float]:
        return {op: self.curves[op].metadata["l1_accesses"] for op in self.primary}

    def statstack_error(self) -> float:
        """Mean |StatStack − exact| MPKI error over every non-zero point."""
        errors = []
        for kind in KINDS:
            exact = self.curves[f"stack.{kind}"].mpki
            approx = self.curves[f"statstack.{kind}"].mpki
            errors += [100.0 * abs(a - e) / e for a, e in zip(approx, exact) if e > 0]
        return statistics.fmean(errors)

    def probes(self, rec: Recorder) -> Metrics:
        return trace_probes(self.seed)

    def per_layer(self, rec: Recorder) -> Metrics:
        out: Metrics = {}
        quartiles = kind_quartiles(rec.samples, self.primary + self.alt)
        for op, seconds in quartiles.items():
            method, kind = op.split(".")
            out[f"mrc.{method}_ms.{kind}"] = (1e3 * seconds, len(rec.samples[op]))
        out["mrc.lru_ms.va"] = (1e3 * self.lru_s, 1)
        work = self.work()
        out["mrc.stack_us_per_access"] = (
            1e6 * sum(quartiles[op] for op in self.primary) / sum(work.values()),
            min(len(rec.samples[op]) for op in self.primary),
        )
        exact = [self.curves[op].metadata for op in self.primary]
        out["mrc.l1_accesses"] = (sum(c["l1_accesses"] for c in exact), 1)
        out["mrc.llc_accesses"] = (sum(c["llc_accesses"] for c in exact), 1)
        out["mrc.statstack_err_pct"] = (self.statstack_error(), 1)
        return out


# --------------------------------------------------------------------------
# campaign_store
# --------------------------------------------------------------------------

def filler_records(seed: int, count: int) -> List[Tuple[str, dict, str]]:
    """``count`` result records a long-lived store already holds.

    Shaped like real simulation payloads, keyed apart from anything a
    campaign asks for; the values come from ``seed``.
    """
    rng = np.random.default_rng((0xF111, seed))
    records = []
    for i in range(count):
        insns = int(rng.integers(10**5, 10**7))
        payload = {
            "workload": f"filler-{i % 16}",
            "system": "8-SM",
            "num_sms": 8,
            "cycles": float(rng.integers(10**4, 10**6)),
            "thread_instructions": insns * 32,
            "warp_instructions": insns,
            "memory_accesses": int(rng.integers(10**4, 10**6)),
            "memory_stall_fraction": float(rng.random()),
            "l1_hits": int(rng.integers(0, 10**5)),
            "l1_misses": int(rng.integers(0, 10**5)),
            "llc_hits": int(rng.integers(0, 10**5)),
            "llc_misses": int(rng.integers(0, 10**5)),
            "events": int(rng.integers(10**4, 10**6)),
            "wall_time_s": float(rng.random()),
            "extra": {},
        }
        records.append(
            (f"filler|{rng.integers(2**62):016x}", payload, payload["workload"])
        )
    return records


def fill_store(root: str, records) -> None:
    store = ResultStore(root, flush_every=len(records) + 1)
    for key, payload, shard in records:
        store.put(key, payload, shard=shard)
    store.flush()


def dir_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(base, name))
        for base, _, names in os.walk(root) for name in names
    )


class CampaignStore(Workload):
    name = "campaign_store"
    why = (
        "a 24-run zoo campaign on tiny sims: pool, runner, store, journal "
        "and zoo carry the gap between engine time and wall; cold writes "
        "the store, warm reads it"
    )
    primary = ("cold_pool",)
    alt = ("warm_rerun",)
    #: The zoo sample is part of the workload definition, like the
    #: choice of va/btree/bs: the sampler's total work swings 2x with
    #: its seed (1.6–3.4 s measured), which would drown any code change.
    #: ``--seed`` instead decides what the store already holds.
    PLAN = CampaignPlan(n=6, seed=9, work_scale=0.1)
    FILLER = 256
    BATCH = 50

    def runner(self, store: str, jobs: int) -> CachedRunner:
        return CachedRunner(
            store, jobs=jobs, policy=ExecutionPolicy(keep_going=True),
            checkpoint=CheckpointPolicy(root=None),
        )

    def setup(self, rec: Recorder) -> None:
        self.setups += 1
        self.dir = os.path.join(self.tmp, f"campaign-{self.setups}")
        self.base = os.path.join(self.dir, "base")
        fill_store(self.base, filler_records(self.seed, self.FILLER))
        self.rounds = 0
        # Serial reference: the artifact every pooled run must equal.
        self.serial_store = self.fresh_store("serial")
        start = time.perf_counter()
        runner = self.runner(self.serial_store, jobs=1)
        self.reference = run_campaign(self.PLAN, runner)
        self.serial_s = time.perf_counter() - start
        self.last_runner = runner

    def fresh_store(self, name: str) -> str:
        path = os.path.join(self.dir, name)
        shutil.copytree(self.base, path)
        return path

    def journal(self, name: str) -> CampaignJournal:
        return CampaignJournal.open(
            os.path.join(self.dir, name), ZOO_ARTIFACT_KIND,
            plan_payload(self.PLAN), created_unix=time.time(),
        )

    def check_artifact(self, rec: Recorder, what: str, artifact: dict) -> None:
        diverged = first_artifact_divergence(self.reference, artifact)
        rec.check(
            diverged is None and not artifact["failures"],
            f"campaign_store: {what} artifact diverges from the serial "
            f"reference at {diverged.describe() if diverged else 'failures'}",
        )

    def round(self, rec: Recorder) -> None:
        spans = rec.spans
        self.rounds += 1
        store = self.fresh_store(f"store-{self.rounds}")
        journal_name = f"journal-{self.rounds}"
        with rec.op("cold_pool", "harness"):
            with spans.span("journal.open", "campaign"):
                journal = self.journal(journal_name)
            with spans.span("runner.open", "simcache"):
                runner = self.runner(store, jobs=2)
            with spans.span("run_campaign", "zoo"):
                artifact = run_campaign(self.PLAN, runner, journal=journal)
        self.check_artifact(rec, "cold_pool", artifact)
        self.last_runner = runner
        self.last_journal = journal

        batch = 5 if self.smoke else self.BATCH
        gc.collect()
        for _ in range(batch):
            with rec.op("warm_rerun", "harness", collect=False):
                with spans.span("runner.open", "simcache"):
                    runner = self.runner(store, jobs=2)
                with spans.span("run_campaign", "zoo"):
                    artifact = run_campaign(self.PLAN, runner)
            self.check_artifact(rec, "warm_rerun", artifact)
        rec.check(
            runner.misses == 0, "campaign_store: warm re-run missed the store"
        )
        gc.collect()
        for _ in range(batch):
            with rec.op("resume", "harness", collect=False):
                with spans.span("journal.open", "campaign"):
                    journal = self.journal(journal_name)
                with spans.span("runner.open", "simcache"):
                    runner = self.runner(store, jobs=2)
                with spans.span("run_campaign", "zoo"):
                    artifact = run_campaign(self.PLAN, runner, journal=journal)
            self.check_artifact(rec, "resume", artifact)

    def work(self) -> Dict[str, float]:
        return {"cold_pool": self.reference["campaign"]["runs"]}

    def compute_seconds(self) -> float:
        """Host seconds the serial reference spent inside engine and MRC."""
        total = 0.0
        for key, payload in ResultStore(self.serial_store).items():
            if key.startswith("sim|"):
                total += payload["wall_time_s"]
            elif key.startswith("mrc|"):
                total += payload["metadata"]["collection_seconds"]
        return total

    def probes(self, rec: Recorder) -> Metrics:
        out: Metrics = {}
        records = filler_records(self.seed + 1, 2000)

        store = ResultStore(os.path.join(self.dir, "probe-put"))
        out["simcache.put_flush_us"] = probe(1e6, (
            lambda r=r: store.put(r[0], r[1], shard=r[2]) for r in records[:200]
        ))

        root = os.path.join(self.dir, "probe-2k")
        fill_store(root, records)
        out["simcache.records"] = (len(records), 1)
        out["simcache.bytes_per_record"] = (dir_bytes(root) / len(records), 1)
        out["simcache.reopen_ms_2k"] = probe(
            1e3, [lambda: ResultStore(root).get(records[0][0])] * 5
        )
        store = ResultStore(root)
        out["simcache.get_us"] = probe(
            1e6, (lambda key=key: store.get(key) for key, _, _ in records)
        )

        spec = sample_batch(self.PLAN.n, self.PLAN.seed)[0]
        runner = self.runner(self.serial_store, jobs=1)
        out["runner.hit_us"] = probe(1e6, [
            lambda: runner.simulate(
                spec, 8, work_scale=self.PLAN.work_scale, seed=self.PLAN.seed
            )
        ] * 500)
        rec.check(runner.misses == 0, "campaign_store: runner.hit probe missed")

        out["zoo.sample_ms"] = probe(
            1e3, [lambda: sample_batch(self.PLAN.n, self.PLAN.seed)] * 5
        )

        journal = self.journal("probe-journal")
        record = self.reference["workloads"][0]
        out["campaign.append_us"] = probe(1e6, (
            lambda i=i: journal.record(
                f"unit-{i}", "ok", record, recorded_unix=time.time()
            )
            for i in range(100)
        ))
        return out

    def per_layer(self, rec: Recorder) -> Metrics:
        out: Metrics = {}
        cold = percentile(rec.samples["cold_pool"], 25)
        n = len(rec.samples["cold_pool"])
        compute = self.compute_seconds()
        out["runner.cold_overhead_frac"] = (1.0 - compute / self.serial_s, 1)
        out["parallel.speedup"] = (self.serial_s / cold, n)
        out["parallel.overhead_ms"] = (1e3 * (cold - compute / 2), n)
        out["parallel.exec_retries"] = (self.last_runner.stats()["exec_retries"], 1)

        sealed = f"journal-{self.rounds}"
        out["campaign.replay_ms"] = probe(1e3, [lambda: self.journal(sealed)] * 20)
        journal = self.journal(sealed)
        out["campaign.bytes_per_unit"] = (
            os.path.getsize(journal.path) / len(journal.completed), 1
        )
        resume = rec.samples["resume"]
        out["campaign.resume_p50_ms"] = (1e3 * statistics.median(resume), len(resume))
        warm = rec.samples["warm_rerun"]
        out["campaign.warm_p95_ms"] = (1e3 * percentile(warm, 95), len(warm))

        accuracy = self.reference["accuracy"]
        out["zoo.mape_pct"] = (accuracy["mape_pct"], 1)
        out["zoo.match_rate"] = (accuracy["regime_match_rate"], 1)
        out["zoo.failures"] = (len(self.reference["failures"]), 1)
        return out


# --------------------------------------------------------------------------
# service_closed
# --------------------------------------------------------------------------

_BANNER = re.compile(r"listening on http://([^:]+):(\d+)")


class ServiceClosed(Workload):
    name = "service_closed"
    why = (
        "closed loop, 1 client against scripts/serve.py: HTTP parse, "
        "admission, job table and supervisor hand-off are the whole cost "
        "of a hit and the overhead on a miss; engine work is small and fixed"
    )
    BENCHMARKS = ("va", "dct", "sr")
    primary = ("hit",)
    alt = tuple(f"miss.{b}" for b in BENCHMARKS)
    #: Misses are sized so the request path, not the engine, is a
    #: visible share of them (0.2–0.4 s of simulation each).
    MISS_SCALE = 0.1
    HITS = 2000

    def setup(self, rec: Recorder) -> None:
        self.setups += 1
        self.dir = os.path.join(self.tmp, f"service-{self.setups}")
        os.makedirs(self.dir)
        self.store_root = os.path.join(self.dir, "store")
        #: Request seeds handed out so far; each miss takes a fresh one.
        self.next_seed = (self.seed * 100_003) % 2**30
        self.seen: List[Tuple[dict, dict]] = []
        self.hit_walls: List[float] = []
        self.miss_overheads: List[float] = []
        self.non_completed = 0

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, os.path.join(self.root, "scripts", "serve.py"),
                "--port", "0", "--store", self.store_root,
                "--workers-min", "1", "--workers-max", "1",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True, cwd=self.dir,
        )
        while True:
            line = self.proc.stdout.readline()
            match = _BANNER.search(line)
            if match:
                break
            if not line:
                raise RuntimeError("service_closed: server exited before listening")
        self.host, self.port = match.group(1), int(match.group(2))
        self.boot_s = time.perf_counter() - start

        # Warm-up: the first miss spawns the worker (~0.4 s of import).
        silent = Recorder(rec.spans)
        for benchmark in self.BENCHMARKS:
            self.predict(silent, "warm-up", self.body(benchmark))
        self.anchors = list(self.seen)
        for body, result in self.seen * 10:
            self.predict(silent, "warm-up", body, expect=result)
        rec.check(not silent.failures, "; ".join(silent.failures[:3]))

    def anchor(self, rec: Recorder) -> None:
        # The server's answers against the engine called directly.
        for body, result in self.anchors:
            local = compute_sim(
                get_benchmark(body["benchmark"]), body["size"],
                body["work_scale"], body["seed"],
            )
            rec.check(
                payload_digest(result) == sim_digest(local),
                f"service_closed: {body['benchmark']} differs from "
                "in-process compute_sim",
            )

    def body(self, benchmark: str) -> dict:
        self.next_seed += 1
        return {
            "kind": "sim", "benchmark": benchmark, "size": 8,
            "work_scale": self.MISS_SCALE, "seed": self.next_seed,
            "deadline_s": 60,
        }

    def predict(self, rec: Recorder, kind: str, body: dict,
                expect: Optional[dict] = None, collect: bool = True) -> dict:
        """One request on its own connection (the server closes each)."""
        spans = rec.spans
        payload = json.dumps(body)
        with rec.op(kind, "harness", collect=collect):
            conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
            try:
                with spans.span("connect", "service"):
                    conn.connect()
                with spans.span("request", "service"):
                    conn.request("POST", "/predict", payload)
                with spans.span("response", "service"):
                    response = conn.getresponse()
                    raw = response.read()
            finally:
                conn.close()
        data = json.loads(raw or b"{}")
        ok = response.status == 200 and data.get("status") == "completed"
        if not ok:
            self.non_completed += 1
        rec.check(ok, f"service_closed: {kind} answered {response.status} {data}")
        if ok and expect is None:
            rec.check(not data["cached"], f"service_closed: {kind} was not a miss")
            self.seen.append((body, data["result"]))
        elif ok:
            rec.check(
                data["cached"] and data["result"] == expect,
                f"service_closed: hit differs from the miss for {data.get('key')}",
            )
        return data

    def round(self, rec: Recorder) -> None:
        for benchmark in self.BENCHMARKS:
            for _ in range(2):
                data = self.predict(rec, f"miss.{benchmark}", self.body(benchmark))
                if "result" in data:
                    self.miss_overheads.append(
                        rec.last_s - data["result"]["wall_time_s"]
                    )
        hits = 200 if self.smoke else self.HITS
        gc.collect()
        start = time.perf_counter()
        for i in range(hits):
            body, result = self.seen[i % len(self.seen)]
            self.predict(rec, "hit", body, expect=result, collect=False)
        if not rec.spans.enabled:
            self.hit_walls.append(hits / (time.perf_counter() - start))

    def end_to_end(self, rec: Recorder) -> Metrics:
        out = super().end_to_end(rec)
        # Requests per second of each round's hit phase, checks included:
        # what a design-space explorer looping over known configs gets.
        # Upper quartile: the rate's counterpart of the ops' lower one.
        out["work_per_s"] = (percentile(self.hit_walls, 75), len(self.hit_walls))
        return out

    def work(self) -> Dict[str, float]:
        return {"hit": 1.0}

    def statsz(self) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", "/statsz")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def per_layer(self, rec: Recorder) -> Metrics:
        out: Metrics = {}
        hits = rec.samples["hit"]
        hit_p50 = statistics.median(hits)
        out["service.boot_ms"] = (1e3 * self.boot_s, 1)
        out["service.hit_p50_ms"] = (1e3 * hit_p50, len(hits))
        out["service.hit_p99_ms"] = (1e3 * percentile(hits, 99), len(hits))
        for benchmark in self.BENCHMARKS:
            misses = rec.samples[f"miss.{benchmark}"]
            out[f"service.miss_ms.{benchmark}"] = (
                1e3 * statistics.median(misses), len(misses)
            )
        out["service.miss_overhead_ms"] = (
            1e3 * statistics.median(self.miss_overheads), len(self.miss_overheads)
        )
        # What a hit costs beyond the store lookup it amounts to.
        store = ResultStore(self.store_root)
        keys = list(store.keys())
        out["simcache.get_us"] = probe(
            1e6, (lambda i=i: store.get(keys[i % len(keys)]) for i in range(2000))
        )
        get_s = out["simcache.get_us"][0] / 1e6
        out["service.hit_overhead_ms"] = (1e3 * (hit_p50 - get_s), len(hits))
        stats = self.statsz()
        out["service.non_completed"] = (self.non_completed, 1)
        out["service.rss_mb"] = (
            stats["metrics"]["gauges"]["service.rss_bytes"] / 2**20, 1
        )
        out["service.worker_recycles"] = (stats["workers"]["recycles"], 1)
        return out

    def teardown(self) -> None:
        proc = getattr(self, "proc", None)
        if proc is None:
            return
        self.proc = None
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


WORKLOADS = {
    cls.name: cls for cls in (PredictCold, MrcSweep, CampaignStore, ServiceClosed)
}
