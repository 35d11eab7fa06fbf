"""Cross-process trace determinism for every generator family.

``build_trace`` must return the same arrays for the same
``(spec, work_scale, capacity_scale, seed)`` no matter which process
builds it — the cache keys, the golden ledger and the zoo spec digests
all assume it.  These tests hash one representative workload per family
(plus a grammar-generated composite) in-process twice, then recompute
the digests in a fresh interpreter and demand bit equality.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.trace import trace_digest
from repro.workloads import build_trace, get_benchmark
from repro.workloads.generators import _FAMILIES
from repro.zoo import Prim, Seq, realize

#: One catalog representative per generator family.
FAMILY_REPS = {
    "sweep": ("va", False),
    "hotcold": ("bfs", False),
    "stream": ("pf", False),
    "tiled": ("gemm", False),
    "chase": ("btree", False),
    "irregular": ("bs", True),
}

WORK_SCALE = 0.05
SEED = 3


def _specs():
    specs = {
        family: get_benchmark(abbr, weak=weak)
        for family, (abbr, weak) in FAMILY_REPS.items()
    }
    specs["generated"] = realize(
        Seq((Prim("sweep", {"hot_mb": 1.0}), Prim("frontier", {"fp_mb": 2.0}))),
        seed=5, intent="sub-linear", ctas_per_phase=24,
    )
    return specs


def _digests():
    return {
        family: trace_digest(build_trace(spec, work_scale=WORK_SCALE, seed=SEED))
        for family, spec in _specs().items()
    }


def test_reps_cover_every_family():
    assert set(_specs()) == set(_FAMILIES)


def test_digests_stable_within_process():
    assert _digests() == _digests()


def test_digests_stable_across_processes():
    expected = _digests()
    helper = (
        "import json, sys; "
        "sys.path.insert(0, sys.argv[1]); "
        "from tests.workloads import test_determinism_digest as m; "
        "print(json.dumps(m._digests()))"
    )
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", helper, root],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(result.stdout) == expected


def test_different_seed_changes_some_digest():
    spec = get_benchmark("bfs")
    base = trace_digest(build_trace(spec, work_scale=WORK_SCALE, seed=SEED))
    other = trace_digest(build_trace(spec, work_scale=WORK_SCALE, seed=SEED + 1))
    assert base != other
