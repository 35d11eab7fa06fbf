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
#: the result digest, recorded under trace contract 2 (one random stream
#: per kernel and draw purpose).  The ``on_boundary`` seam must see
#: exactly the same state at exactly the same points.  The two
#: ``memory`` digests were re-recorded when the memory state lost its
#: always-empty ``banked_mcs`` key, and again when it lost the shared
#: ``prune_countdown`` (each L1 now prunes its own merge table every
#: ``l1_mshrs`` primary misses); every other value is unchanged.
DCT_16_BOUNDARIES = (
    (1, 16912.709057851902, {
        "clock": "sha256:25b43c41073436c49aec11179f7fc1b85da13d9882ed7c71a87b14dcca436c37",
        "sms": "sha256:ab0ce498208e80f282e32af20af76007faa6046ed135a725f3883881107dc25d",
        "memory": "sha256:0cc99dc2f145a544f53b3fb2e6a44269650a6daf0f5811c0bd27bdc61b227733",
        "accesses": "sha256:d12f874987021cd333ba1cff4973abf657227b5742f9dfbf73a1aa09b29aba55",
        "cta_seq": "sha256:f3457dabe1b412ed6374d56fe8fe3b969c761b77dcc80ecc0964b7c7641d219b",
    }),
    (2, 63000.11052833623, {
        "clock": "sha256:93ba8bec8c23920a5bc556af70c7121472be6dba155203763a18386082ddbd6c",
        "sms": "sha256:e55a768764a3076fa029bcae5fbb775299ee1bb5dfcad8f0c15b097c380c7a7c",
        "memory": "sha256:533fd80ef6fab15e8358aaf10dc94086bb9a2bd3ded847bb2e717be34bf29796",
        "accesses": "sha256:11ed2d3cc60b6fdd68cbc8eb90a5762d27be4364580a5430532fbb2d00061b9e",
        "cta_seq": "sha256:44c59909f17c296d6f2ec4a53efac3a951add75aa67616d9c5d9d2f5fbb44f04",
    }),
)
DCT_16_RESULT = (
    "sha256:7fc6fd255b069e8f702ae487827d0fd73137600023ffba5744391c69f6abb6a0"
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
