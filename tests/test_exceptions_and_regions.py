"""Exception-hierarchy and address-region convention tests."""

import pytest

from repro.exceptions import (
    ConfigurationError,
    PredictionError,
    ReproError,
    SimulationError,
    TraceError,
    WorkloadError,
)
from repro.memory_regions import BYPASS_BASE


class TestExceptionHierarchy:
    @pytest.mark.parametrize("exc", [
        ConfigurationError, SimulationError, TraceError,
        PredictionError, WorkloadError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_catching_base_does_not_catch_builtin(self):
        with pytest.raises(KeyError):
            try:
                raise KeyError("x")
            except ReproError:  # pragma: no cover - must not trigger
                pytest.fail("ReproError must not catch KeyError")


class TestBypassRegion:
    def test_region_above_generator_bases(self):
        from repro.workloads import generators

        for base in (generators.HOT_BASE, generators.COLD_BASE,
                     generators.STREAM_BASE, generators.TILE_BASE,
                     generators.TREE_BASE):
            assert base < BYPASS_BASE
