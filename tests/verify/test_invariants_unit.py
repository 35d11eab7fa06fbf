"""Invariant catalog unit tests on hand-built fakes and bare event heaps."""

import heapq
from types import SimpleNamespace

import pytest

from repro.exceptions import InvariantError
from repro.mrc.cliff import Region
from repro.verify.invariants import (
    check_curve,
    check_prediction,
    check_queue,
    check_result,
)


def _heap_of(times):
    """A simulator-shaped ``(time, seq, warp)`` heap."""
    heap = []
    for seq, time in enumerate(times):
        heapq.heappush(heap, (time, seq, object()))
    return heap


class TestQueueConsistency:
    def test_clean_queue_passes(self):
        heap = _heap_of((3.0, 1.0, 2.0, 2.0))
        heapq.heappop(heap)
        check_queue(heap)

    def test_heap_property_violation_detected(self):
        heap = _heap_of((1.0, 2.0, 3.0))
        # Replacing a pushed entry behind the heap's back is exactly the
        # corruption the scan exists to catch.
        heap[-1] = (-99.0,) + heap[-1][1:]
        with pytest.raises(InvariantError, match="heap property"):
            check_queue(heap)


def _fake_result(**overrides):
    fields = dict(
        workload="fake",
        memory_accesses=100,
        l1_hits=60,
        l1_misses=40,
        llc_hits=20,
        llc_misses=15,
        extra={"l1_merged": 5},
        cycles=1000.0,
        memory_stall_fraction=0.4,
        warp_instructions=500,
        thread_instructions=500 * 32,
    )
    fields.update(overrides)
    return SimpleNamespace(**fields)


class TestCheckResult:
    def test_consistent_result_passes(self):
        check_result(_fake_result())

    def test_miss_conservation(self):
        with pytest.raises(InvariantError, match="miss conservation"):
            check_result(_fake_result(l1_misses=41))

    def test_llc_conservation(self):
        with pytest.raises(InvariantError, match="LLC conservation"):
            check_result(_fake_result(llc_hits=21))

    def test_f_mem_range(self):
        with pytest.raises(InvariantError, match="f_mem out of range"):
            check_result(_fake_result(memory_stall_fraction=1.5))

    def test_thread_warp_divisibility(self):
        with pytest.raises(InvariantError, match="whole multiple"):
            check_result(_fake_result(thread_instructions=500 * 32 + 1))


def _fake_curve(**overrides):
    fields = dict(
        workload="fake",
        mpki=[5.0, 4.0, 4.0, 1.0],
        miss_ratio=[0.5, 0.4, 0.4, 0.1],
    )
    fields.update(overrides)
    return SimpleNamespace(**fields)


class TestCheckCurve:
    def test_monotone_curve_passes(self):
        check_curve(_fake_curve())

    def test_mpki_inversion_detected(self):
        with pytest.raises(InvariantError, match="MPKI increases"):
            check_curve(_fake_curve(mpki=[5.0, 4.0, 4.5, 1.0]))

    def test_ratio_range(self):
        with pytest.raises(InvariantError, match="outside"):
            check_curve(_fake_curve(miss_ratio=[1.5, 0.4, 0.4, 0.1]))

    def test_ratio_inversion_detected(self):
        with pytest.raises(InvariantError, match="miss ratio increases"):
            check_curve(_fake_curve(miss_ratio=[0.5, 0.4, 0.45, 0.1]))


def _fake_prediction(region=Region.PRE_CLIFF, **overrides):
    # Profile: largest simulated size 64 at IPC 2.0, correction 1.1.
    profile = SimpleNamespace(
        workload="fake",
        largest=(64, 2.0),
        correction_factor=lambda: 1.1,
        f_mem=0.25,
    )
    predictor = SimpleNamespace(profile=profile)
    if region is Region.PRE_CLIFF:
        ipc = 2.0 * (128 / 64) * 1.1  # Eq. 2
        details = {"ipc_large": 2.0, "scale": 2.0}
    elif region is Region.CLIFF:
        ipc = 2.0 * (128 / 64) / (1 - 0.25)  # Eq. 3
        details = {"f_mem": 0.25, "scale": 2.0}
    else:  # POST_CLIFF, Eq. 4 anchored at size 96
        anchor_ipc = 2.0 * (96 / 64) / (1 - 0.25)
        ipc = anchor_ipc * (128 / 96) * 1.1
        details = {"f_mem": 0.25, "anchor_size": 96.0,
                   "anchor_ipc": anchor_ipc}
    fields = dict(
        workload="fake",
        target_size=128,
        ipc=ipc,
        region=region,
        correction_factor=1.1,
        details=details,
    )
    fields.update(overrides)
    return predictor, SimpleNamespace(**fields)


class TestCheckPrediction:
    @pytest.mark.parametrize(
        "region", (Region.PRE_CLIFF, Region.CLIFF, Region.POST_CLIFF)
    )
    def test_consistent_prediction_passes(self, region):
        predictor, result = _fake_prediction(region)
        check_prediction(predictor, result)

    @pytest.mark.parametrize(
        "region", (Region.PRE_CLIFF, Region.CLIFF, Region.POST_CLIFF)
    )
    def test_drifted_ipc_detected(self, region):
        predictor, result = _fake_prediction(region)
        result.ipc *= 1.001
        with pytest.raises(InvariantError, match="does not reproduce"):
            check_prediction(predictor, result)

    def test_correction_factor_mismatch(self):
        predictor, result = _fake_prediction()
        result.correction_factor = 1.2
        with pytest.raises(InvariantError, match="correction factor"):
            check_prediction(predictor, result)

    def test_eq4_anchor_mismatch(self):
        predictor, result = _fake_prediction(Region.POST_CLIFF)
        result.details = dict(result.details, anchor_ipc=999.0)
        with pytest.raises(InvariantError, match="anchor"):
            check_prediction(predictor, result)
