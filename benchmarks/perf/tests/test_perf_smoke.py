"""The real thing, briefly: ``run.py --smoke`` on every workload."""

import json
import os
import subprocess
import sys
import time

import pytest

from conftest import PERF_DIR, ROOT

RUN = os.path.join(PERF_DIR, "run.py")


def run(*flags):
    done = subprocess.run(
        [sys.executable, RUN, *flags], stdout=subprocess.PIPE, text=True, cwd=ROOT
    )
    return done.returncode, done.stdout


def results(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_smoke_suite_is_quick_and_correct(spec):
    start = time.perf_counter()
    code, stdout = run("--smoke", "--seed", "3")
    elapsed = time.perf_counter() - start
    assert code == 0, stdout
    # ~20 s on a quiet host; the margin is for a slow phase of the sandbox.
    assert elapsed < 40, f"smoke took {elapsed:.1f} s"
    found = results(stdout)
    assert len(found) == len(spec["workloads"])
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for result in found:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        # Every declared name is printed, and nothing else.
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not os.path.exists(os.path.join(ROOT, ".bench_tmp"))


def test_traced_run_prints_every_per_layer_metric(spec, tmp_path):
    out = tmp_path / "trace.json"
    code, stdout = run(
        "--workload", "mrc_sweep", "--smoke", "--trace", "1", "--trace-out", str(out)
    )
    assert code == 0, stdout
    (result,) = results(stdout)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # Predicted flat: no engine, store or service time in an MRC sweep.
    for name, value in values.items():
        if name.split(".")[0] in ("engine", "gpu", "simcache", "service", "zoo"):
            assert value == 0, name
    assert values["self_ms.mrc"] > 0 and values["self_ms.engine"] == 0
    assert values["harness.span_residual_frac"] < 0.02
    events = json.loads(out.read_text())["traceEvents"]
    assert {"stack.va", "build_trace", "collect"} <= {e["name"] for e in events}


def test_a_wrong_output_fails_the_run(tmp_path):
    """The ledger anchor must notice an engine that drifted."""
    import workloads
    from measure import Recorder
    from spans import SpanRecorder

    workload = workloads.MrcSweep(0, str(tmp_path), ROOT, smoke=True)
    workload.ledger_digest = lambda key: "sha256:not-this"
    rec = Recorder(SpanRecorder())
    workload.setup(rec)
    with rec.op("anchor", "harness"):
        pass
    workload.anchor(rec)
    assert rec.failed == 1 and "golden ledger" in rec.failures[0]
