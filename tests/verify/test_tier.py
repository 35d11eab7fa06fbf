"""Golden tier determinism and shape tests."""

import pytest

from repro.exceptions import ReproError
from repro.verify.golden import (
    GoldenCase,
    GoldenTier,
    full_tier,
    golden_tier,
    ledger_requests,
    quick_tier,
)
from repro.workloads import STRONG_SCALING


class TestQuickTier:
    def test_deterministic(self):
        # The quick tier is what the checked-in ledger pins: two
        # constructions must agree on every case, scale, target and seed.
        assert quick_tier() == quick_tier()

    def test_one_case_per_scaling_class(self):
        classes = [case.spec.scaling.value for case in quick_tier().cases]
        assert sorted(classes) == ["linear", "sub-linear", "super-linear"]

    def test_fixed_seed(self):
        assert quick_tier().seed == 0

    def test_pins_sims_and_mrcs(self):
        # 3 cases x (2 scales + 1 target) sims + 3 MRC collections.
        assert len(ledger_requests(quick_tier())) == 12


class TestFullTier:
    def test_covers_every_strong_scaling_benchmark(self):
        abbrs = {case.abbr for case in full_tier().cases}
        assert abbrs == set(STRONG_SCALING)

    def test_two_targets(self):
        assert all(case.targets == (32, 64) for case in full_tier().cases)


class TestTierValidation:
    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ReproError):
            GoldenCase("definitely-not-a-benchmark")

    def test_single_scale_rejected(self):
        with pytest.raises(ReproError):
            GoldenCase("va", scales=(8,))

    def test_no_targets_rejected(self):
        with pytest.raises(ReproError):
            GoldenCase("va", targets=())

    def test_target_below_largest_scale_rejected(self):
        with pytest.raises(ReproError):
            GoldenCase("va", scales=(8, 16), targets=(12,))

    def test_empty_tier_rejected(self):
        with pytest.raises(ReproError):
            GoldenTier(name="quick", cases=())

    def test_duplicate_benchmarks_rejected(self):
        with pytest.raises(ReproError):
            GoldenTier(name="quick", cases=(GoldenCase("va"), GoldenCase("va")))

    def test_unknown_tier_rejected(self):
        with pytest.raises(ReproError):
            golden_tier("nightly")

    def test_sizes_order_scales_then_targets(self):
        case = GoldenCase("va", scales=(8, 16), targets=(32,))
        assert case.sizes == (8, 16, 32)
