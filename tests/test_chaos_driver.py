"""The fault drills of ``scripts/chaos.py``: schedules, convergence, usage.

The drills themselves boot servers and kill campaigns, so they run by
hand and in CI; these checks cover what must hold before any of that:
the seeded schedules, the one convergence check the targets share, and
that a bad target or phase name stops ``chaos.py`` before anything starts.
"""

import importlib.util
import os
import pathlib
import random
import subprocess

import pytest

PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "chaos.py"
_spec = importlib.util.spec_from_file_location("chaos", PATH)
chaos = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(chaos)

#: (jobs, plan) per trial as the store drill has always drawn them for
#: seed 1234; the first two are the CI (--quick) schedule.
STORE_1234 = [
    (1, "fail:sim|btree:1"),
    (1, "fail:sim|va,fail:sim|va:1"),
    (2, "slow-io:store:0.01,partial-write:store:1,enospc:store:1"),
    (1, "fail:sim|va:1"),
    (2, "slow-io:store:0.01"),
]

#: The service drill's seed-0 --quick draws, phase by phase.
SERVICE_0_QUICK = [
    ("baseline", ("dct",)),
    ("worker-death", ("dct", "va")),
    ("flaky-retry", ("dct",)),
    ("hang-shed", ("sr", "dct")),
    ("io-pressure", ()),
    ("golden-integrity", ("dct", "dct")),
    ("breaker", ("dct", "sr")),
    ("overload", ()),
    ("drain", ()),
]


def test_store_quick_schedule_is_the_pinned_one():
    assert chaos.store_schedule(1234, 2) == STORE_1234[:2]
    assert chaos.store_schedule(1234, 5) == STORE_1234


def test_service_schedule_is_the_pinned_one():
    assert chaos.service_schedule(0, quick=True) == SERVICE_0_QUICK


def _schedules(seed):
    return (
        chaos.store_schedule(seed, 5),
        chaos.campaign_schedule(seed, quick=False),
        chaos.service_schedule(seed, quick=False),
        chaos.service_schedule(seed, quick=True, phases=("breaker", "drain")),
    )


@pytest.mark.parametrize("seed", [0, 7, 1234])
def test_every_schedule_is_a_pure_function_of_the_seed(seed):
    first = _schedules(seed)
    random.seed(seed + 1)  # the global generator must not matter
    random.random()
    assert _schedules(seed) == first


def test_different_seeds_draw_different_schedules():
    assert len({str(chaos.store_schedule(seed, 5)) for seed in range(5)}) > 1
    assert len({
        str(chaos.service_schedule(seed, quick=False)) for seed in range(5)
    }) > 1


def test_convergence_names_a_one_field_divergence():
    reference = {"ipc": 1.5, "kernels": [{"cycles": 10, "wall_time_s": 0.2}]}
    ours = {"ipc": 1.5, "kernels": [{"cycles": 11, "wall_time_s": 0.2}]}
    drill = chaos.Drill()
    assert not drill.converged(ours, reference, "payload")
    (violation,) = drill.violations
    assert "converges" in violation
    assert "kernels[0].cycles: 11 != 10" in violation


def test_convergence_ignores_the_scrubbed_wall_time_fields():
    reference = {"ipc": 1.5, "wall_time_s": 0.2, "created_unix": 1.0,
                 "kernels": [{"cycles": 10, "wall_s": 3.0}]}
    ours = {"ipc": 1.5, "wall_time_s": 9.9, "created_unix": 2.0,
            "kernels": [{"cycles": 10, "wall_s": 0.1}]}
    drill = chaos.Drill()
    assert drill.converged(ours, reference, "payload")
    assert drill.violations == []


@pytest.fixture
def nothing_starts(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("chaos.py started work for a bad name")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(chaos.tempfile, "mkdtemp", refuse)
    for name, (_, seed, phases) in list(chaos.TARGETS.items()):
        monkeypatch.setitem(chaos.TARGETS, name, (refuse, seed, phases))


def test_unknown_target_exits_2_before_anything_starts(nothing_starts):
    with pytest.raises(SystemExit) as exited:
        chaos.main(["--target", "disk"])
    assert exited.value.code == 2


@pytest.mark.parametrize("target", ["store", "campaign", "service"])
def test_unknown_phase_exits_2_before_anything_starts(
    nothing_starts, target, capsys
):
    assert chaos.main(["--target", target, "--phase", "meltdown"]) == 2
    assert "meltdown" in capsys.readouterr().err
