"""Cross-commit pins on the generated traces.

``build_trace`` draws each kernel from one ``numpy.random.Generator``
per draw purpose, each read by one sized call (the draw-order contract
of ``repro.workloads.generators._Grid``), and the golden ledger and the
zoo accuracy pins assume the streams never move.  These ``trace_digest``
values were recorded under ``TRACE_CONTRACT`` 2 (NumPy 2.4); one case
per generator branch — every family, every parameter that selects a
different draw sequence, ragged CTAs (``sigma``), weak scaling and
several kernels.

A digest that moves means the trace moved: fix the generator, do not
re-record — unless the contract itself changes, in which case
``TRACE_CONTRACT`` is bumped and the ledger re-blessed for the same
reason.
"""

from dataclasses import replace

import pytest

from repro.trace import trace_digest
from repro.workloads import build_trace, get_benchmark
from tests.workloads.test_determinism_digest import SEED, WORK_SCALE, _specs


def variant(abbr, weak=False, **params):
    spec = get_benchmark(abbr, weak=weak)
    return replace(spec, params={**spec.params, **params})


#: name -> (spec, work_scale); every case is built with ``seed=SEED``.
CASES = {
    **{f"family.{name}": (spec, WORK_SCALE) for name, spec in _specs().items()},
    "generated.full_scale": (_specs()["generated"], 1.0),
    "sweep.cold_frac": (variant("va", cold_frac=0.3, fp_mb=40.0), WORK_SCALE),
    "sweep.l1_reuse3": (get_benchmark("va", weak=True), 0.5),
    "sweep.three_kernels": (get_benchmark("dct"), 0.02),
    "stream.sequential": (get_benchmark("bs"), WORK_SCALE),
    "stream.no_reuse": (get_benchmark("ht"), WORK_SCALE),
    "stream.no_lead_in": (variant("at", lead_in=0), WORK_SCALE),
    "tiled.two_kernels": (get_benchmark("2mm"), WORK_SCALE),
    "irregular.zipf": (variant("bs", weak=True, zipf_exp=0.9), WORK_SCALE),
    "irregular.sigma0": (variant("bs", weak=True, sigma=0.0), WORK_SCALE),
    "hotcold.zipf": (variant("sr", zipf_exp=1.1), 0.02),
    "hotcold.sigma0": (variant("bfs", sigma=0.0), WORK_SCALE),
    "hotcold.four_kernels": (get_benchmark("gr"), WORK_SCALE),
    "hotcold.weak_x2": (get_benchmark("bfs", weak=True), 2.0),
    "chase.sigma0": (variant("btree", sigma=0.0), WORK_SCALE),
    "chase.weak_x2": (get_benchmark("btree", weak=True), 2.0),
}

PINS = {
    "family.sweep": "sha256:bba0e01a70886e8a856b566ef491c6bcad2782850f9e1cd58f74f93afdea0b50",
    "family.hotcold": "sha256:2f7f68d44eb2f5959683a272c044d8d80a1acd68e7a2e82e7d2063cd8a651c99",
    "family.stream": "sha256:4058401d9d00e06f1f58f0ba173b9b2d15d30075e709760622a3f7898108d788",
    "family.tiled": "sha256:ee7de9f1ea8fe44e43aa693616cf3dd04193c71b032ed083a7580696cfe461c7",
    "family.chase": "sha256:7d20958e6c054d7ecc171f527478e50025d250d273f905acb8b6c2015c18b5cf",
    "family.irregular": "sha256:75fda3094154fbe86dbc11e871208ea43742a6875014a73187c853719c07e7f4",
    "family.generated": "sha256:2f14870cc6fcf6fbb41e10e2a42094554fb29b3fc6f3bbb260a996ebd1b4e624",
    "generated.full_scale": "sha256:573b3486873c67b8dbd1303b84b2f32ff390d87b27637793f111f014092cc702",
    "sweep.cold_frac": "sha256:43775a11c61c24eee43ac60704a70af447ec347f07b7f0f66f407ff9d2582761",
    "sweep.l1_reuse3": "sha256:8d8e0c4dc04996b4aaccec5bffa16cc0ec8b45e27e8dcede4ee6dbd05116a9dc",
    "sweep.three_kernels": "sha256:bc51ab8d1d8b55ab374b2ec266f5bfe42d4e74ccce636e6c0c33c3c2be100998",
    "stream.sequential": "sha256:eeef867903fa95b4af186b59537b2a1d003408bc53239b0a81169f4306606130",
    "stream.no_reuse": "sha256:47ebbeafbf4c86acccafec2331d4ac0a462a9b400f19c58f0115c985b5e4e1b6",
    "stream.no_lead_in": "sha256:95e970068cbe08dabf204af75dda979421aadac2c1345cc9775ed478d1ca3f9b",
    "tiled.two_kernels": "sha256:46ccfd76dcc8dbe2abf1ddb123c137b0e5ec13e7d9fcf7f71852dfe752c98ba2",
    "irregular.zipf": "sha256:ee6d8a889806c100ae4a8af8e57913d5802de97d2143d4c6c43eb78c5edb6990",
    "irregular.sigma0": "sha256:c63af66aaff601bc8b3f05002c710c78222f4866010074a446d41c47b4090ca2",
    "hotcold.zipf": "sha256:c0b62ce75c933ca23f0d37bfd26e91c8a8bacf192e96259819ba122091316580",
    "hotcold.sigma0": "sha256:726de8afc3b03462ebe3235a01b7678ff1a7eb3fb182e517388fb87661f7b77a",
    "hotcold.four_kernels": "sha256:fd86cbf13996efed5332cd5ce578b460241d0ff97eb1325d817dbd15ec92fa49",
    "hotcold.weak_x2": "sha256:92107ad94c354c0cedfab75fad096a9957d51e80ab3b7a64b862e30589013f62",
    "chase.sigma0": "sha256:90cddb0fa1124f888c953725c9fd09d023020bad253cb00be8d1ebd0a27a2fcd",
    "chase.weak_x2": "sha256:bfb9d9c77c2d94ef71e5fb26f5fe4f39587aadca1216ca69c749aa25691eb38f",
}


def test_every_case_is_pinned():
    assert set(PINS) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_digest_matches_the_parent_commit(name):
    spec, work_scale = CASES[name]
    digest = trace_digest(build_trace(spec, work_scale=work_scale, seed=SEED))
    assert digest == PINS[name]
