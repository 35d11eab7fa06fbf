"""Verify-subsystem fixtures: pristine switch and env around every test.

Paranoia mode is process-global (one flag), so a leaked install would
silently change the semantics of every later test.  The autouse fixture
clears ``REPRO_VERIFY`` / ``REPRO_FAULT_INJECT`` and turns the switch
off on both sides of each test.
"""

import pytest

from repro.gpu import GPUConfig
from repro.verify import hooks
from repro.workloads import STRONG_SCALING, build_trace


@pytest.fixture(autouse=True)
def _pristine_verify(monkeypatch):
    monkeypatch.delenv("REPRO_VERIFY", raising=False)
    monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
    hooks.uninstall()
    hooks.reset_stats()
    yield
    hooks.uninstall()
    hooks.reset_stats()


def small_setup(abbr="btree", size=4, work_scale=0.1, seed=0):
    """A sub-second real workload: (config, trace) for a scaled system."""
    config = GPUConfig.paper_baseline().scaled(size)
    trace = build_trace(
        STRONG_SCALING[abbr],
        work_scale=work_scale,
        capacity_scale=config.capacity_scale,
        seed=seed,
    )
    return config, trace


def instrumented_targets():
    """Every callable an instrumentation system once rebound.

    Both ``install()`` functions only flip a switch now, so each of
    these must be the very same object before, during and after.
    """
    import repro.analysis.runner as runner_mod
    from repro.analysis.parallel import ParallelRunner
    from repro.analysis.simcache import ResultStore
    from repro.core.model import ScaleModelPredictor
    from repro.engine.kernel import SimulationKernel
    from repro.gpu.gpu import GPUSimulator

    return (
        SimulationKernel.run,
        GPUSimulator._build_result,
        ScaleModelPredictor.predict,
        runner_mod.compute_mrc,
        ResultStore.flush,
        ResultStore._load_one_shard,
        ParallelRunner.run_batch_report,
    )
