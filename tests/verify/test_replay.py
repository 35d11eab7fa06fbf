"""Differential replay: the boundary-digest pin, checked vs. plain, and
the first-divergence localizer on a genuinely mutated leg."""

from repro.analysis.faults import FAULT_INJECT_ENV
from repro.gpu import GPUSimulator
from repro.verify.replay import (
    digest_run,
    first_divergence,
    replay_checked_vs_plain,
)

from tests.verify.conftest import small_setup


def _factory(config):
    return lambda: GPUSimulator(config)


#: dct at 16 SMs, work_scale 0.25, seed 0: per-boundary state digests and
#: the result digest, recorded when boundary state still reached replay
#: through the checkpoint interface.  The ``on_boundary`` seam must see
#: exactly the same state at exactly the same points.
DCT_16_BOUNDARIES = (
    (1, 17450.140413484747, {
        "clock": "sha256:6fc6f84b616c2eeba8a900335e86c7d2809bc93b7caa6c2f6eaa8376fe4bd5d2",
        "sms": "sha256:0827075af986cb5b447deda42ce6342f5635b70c799e3310e4b0258c90c7543d",
        "memory": "sha256:7a4f10adfacb6aeee66301551ff65660179d410b2500b5bd7f09aae8275c1546",
        "accesses": "sha256:d12f874987021cd333ba1cff4973abf657227b5742f9dfbf73a1aa09b29aba55",
        "cta_seq": "sha256:f3457dabe1b412ed6374d56fe8fe3b969c761b77dcc80ecc0964b7c7641d219b",
    }),
    (2, 62092.0213654142, {
        "clock": "sha256:85a5709b211800a46ad942f9598637f59de7c5c56fca0bc7f9b38ac90364c5f2",
        "sms": "sha256:b79319b73a47f44fa45ac5084c00df2f240813b84b37f83ee35fe37b1a3ea37f",
        "memory": "sha256:0523f40f029d5d37a2256ff0b26c2e874ebb9a3ca3a3e62eca2bf5eccca768ae",
        "accesses": "sha256:11ed2d3cc60b6fdd68cbc8eb90a5762d27be4364580a5430532fbb2d00061b9e",
        "cta_seq": "sha256:44c59909f17c296d6f2ec4a53efac3a951add75aa67616d9c5d9d2f5fbb44f04",
    }),
)
DCT_16_RESULT = (
    "sha256:de642806b72892733d57e92f48cd2ba0ac02215e1076856fccbbc61133ce9b5d"
)


class TestBoundaryDigests:
    def test_dct_boundary_state_matches_the_pin(self):
        config, trace = small_setup(abbr="dct", size=16, work_scale=0.25)
        replay = digest_run(_factory(config), trace)
        assert tuple(
            (b.kernels_completed, b.cycles, b.field_digests)
            for b in replay.boundaries
        ) == DCT_16_BOUNDARIES
        assert replay.result_digest == DCT_16_RESULT

    def test_single_kernel_has_no_boundary(self):
        config, trace = small_setup(abbr="va", size=2, work_scale=0.05)
        assert digest_run(_factory(config), trace).boundaries == ()


class TestCheckedVsPlain:
    def test_checked_loop_is_semantically_identical(self):
        config, trace = small_setup()
        plain, checked, divergence = replay_checked_vs_plain(
            _factory(config), trace
        )
        assert divergence is None
        assert plain.result_digest == checked.result_digest


class TestFirstDivergence:
    def test_determinism_differential_is_clean(self):
        config, trace = small_setup()
        a = digest_run(_factory(config), trace)
        b = digest_run(_factory(config), trace)
        assert first_divergence(a, b) is None

    def test_mutated_leg_names_first_kernel_and_field(self, monkeypatch):
        config, trace = small_setup()
        clean = digest_run(_factory(config), trace)
        monkeypatch.setenv(FAULT_INJECT_ENV, f"drop-miss:{trace.name}")
        mutated = digest_run(_factory(config), trace)
        divergence = first_divergence(clean, mutated)
        assert divergence is not None
        # The single dropped increment lands in kernel 0, so the first
        # boundary's memory digest is where the paths split.
        assert divergence.kernel == 1
        assert divergence.field == "memory"
        text = str(divergence)
        assert "first divergence at kernel boundary 1" in text
        assert "memory" in text
