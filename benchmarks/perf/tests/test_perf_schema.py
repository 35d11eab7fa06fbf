"""BENCHMARK.json against the driver's contract and the harness."""

import json
import os
import re

import pytest

from conftest import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_top_level_keys(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["benchmarks/perf"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert spec["command"][:1] == ["python3"]
    for part in spec["command"][1:]:
        assert part.startswith("benchmarks/perf/") and ".." not in part


def test_run_budget_fits_the_drivers_cap(spec):
    # 4 + 22 x workloads runs; each is import + 3 set-ups + anchor +
    # run_seconds + half a round + teardown — under 13 s on top of
    # run_seconds on the build host (see NOISE.md).
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 13) <= 3420


def test_metric_entries(spec):
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(entry["name"]), entry
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")


def test_setup_has_the_largest_bound(spec):
    by_name = {m["name"]: m for m in spec["end_to_end"]}
    setup = by_name["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_workloads_match_the_harness(spec):
    import workloads

    assert 2 <= len(spec["workloads"]) <= 8
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert NAME.match(entry["name"])
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for cls in workloads.WORKLOADS.values():
        assert cls.primary and cls.alt and cls.why
