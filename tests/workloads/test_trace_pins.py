"""Cross-commit pins on the generated traces.

``build_trace`` draws from one ``numpy.random.Generator`` per CTA in a
fixed order, and the golden ledger, the result-store keys and the zoo
spec digests all assume the streams never move.  These ``trace_digest``
values were recorded on the CTA-at-a-time generators (commit 3f4ffab,
NumPy 2.4) before generation went whole-kernel; one case per generator
branch — every family, every parameter that selects a different draw
sequence, ragged CTAs (``sigma``), weak scaling and several kernels.

A digest that moves means the trace moved: fix the generator, do not
re-record, unless the ledger is being re-blessed for the same reason.
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
    "family.sweep": "sha256:a4d03c5d7f0d818430887153147f609ed58ff8d8fe1a4284fc00cee515edbda7",
    "family.hotcold": "sha256:eb5704e89a618b654e95d236e3debdda472b8e8b764f79d58bce800daa8d8878",
    "family.stream": "sha256:8c603bb9fa4cf509d80edbbdb277fc86993eb22498568242385b84910280fecc",
    "family.tiled": "sha256:aba1084154e8710945b7f954e2ec4f25dee998aef30409d53f8ca2e3c4428781",
    "family.chase": "sha256:0870f5a260d43e5aba1ebc9cf4d82f323274a61e02f887d30df6a64763b586b0",
    "family.irregular": "sha256:7f74fa4d1ecef17ed4242824fedd450fd6ea9c183cafde120fbee8a4eedb8214",
    "family.generated": "sha256:0eb293d9bf64a66c0371e0d611e2efe1d0e1d3c96b74b66649a5c2cb136bf7db",
    "generated.full_scale": "sha256:0969493a050a7810902751bf336ce1ed5f1d3b4b1f5cec04f25572ab1e18bad7",
    "sweep.cold_frac": "sha256:96ea9f52b01c7a4cb92bcdcb90c9ee00e76ad5aa82eaee5d2e43cd06ed121751",
    "sweep.l1_reuse3": "sha256:9f01cce4ddbe66687a1e518658e98977de706bf7a280a1f8959d289d1e8dd9bb",
    "sweep.three_kernels": "sha256:b6fc253f3cd358959610178e954b5a5c2b5001149d78f4a8973ddeef90ee3575",
    "stream.sequential": "sha256:3506318bb3592305e4d70edf561fec1aba7a3d8f109454d10218d49997509405",
    "stream.no_reuse": "sha256:eaefa12593851e6ce7ae9184fd807c8b389d4ac350509002a81167918d2f3ca4",
    "stream.no_lead_in": "sha256:0d674deb5c1576544d50a3f72ca852e2ef9bc7c49a74f258354f7ff7dc25595c",
    "tiled.two_kernels": "sha256:710590b99e401f78e79b303ac889bda74fce0ed85b4c6d6c0815970f5ea52a7b",
    "irregular.zipf": "sha256:6aa625b06d2930b5a6d0eb92b744f3acea6d12f1054cd9398d5072de0edb6d4b",
    "irregular.sigma0": "sha256:3b31f51d4779482e13c88ecb08dc1020d73f2a017a45870cafe63f69806bd3f0",
    "hotcold.zipf": "sha256:2127dbd76aff634b003ac4229afa107441e534fbcaa486fd82887c4debda4d73",
    "hotcold.sigma0": "sha256:e399c5d9127d50d6cfd2c1fa855baffc1321b8564f28e9494def2720eeee11de",
    "hotcold.four_kernels": "sha256:d7245444c1e4cad4f81cba692bcc447dcfed3f06f32cb26e32fb47667ffb3231",
    "hotcold.weak_x2": "sha256:812525750e0abc58bbe5d42652eef63abe16a832d2eb6f6e714ca7e854c396c5",
    "chase.sigma0": "sha256:b17f0847c6ee72af9b7986a16b743c6de37df1d612e873617ead6fe577770bda",
    "chase.weak_x2": "sha256:915d30167518adfae246a87cc8cd52362851a7f76c2809985c1ac0be16f12ddc",
}


def test_every_case_is_pinned():
    assert set(PINS) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_digest_matches_the_parent_commit(name):
    spec, work_scale = CASES[name]
    digest = trace_digest(build_trace(spec, work_scale=work_scale, seed=SEED))
    assert digest == PINS[name]
