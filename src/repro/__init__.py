"""repro — GPU Scale-Model Simulation (HPCA 2024), reproduced in Python.

The package rebuilds the paper's full stack:

* :mod:`repro.gpu` — an event-driven GPU timing simulator (the Accel-Sim
  stand-in) with proportional-resource-scaling configurations (Tables I,
  III, V) and a multi-chiplet extension;
* :mod:`repro.workloads` — synthetic miniatures of the 21 benchmarks of
  Table II and the weak-scaling inputs of Table IV;
* :mod:`repro.mrc` — miss-rate-curve collection (stack distances,
  StatStack, GPU interleaving model) and cliff/region analysis;
* :mod:`repro.core` — the scale-model predictor (Eqs. 1-4), the four
  baseline methods, and the end-to-end workflow of Figure 3;
* :mod:`repro.analysis` — runners that regenerate every table and figure
  of the paper's evaluation.

Quickstart::

    from repro import get_benchmark
    from repro.core import predict_strong_scaling

    study = predict_strong_scaling(get_benchmark("dct"))
    print(study.predictions["scale-model"][128], study.actuals[128])
"""

from repro.exceptions import (
    ConfigurationError,
    PredictionError,
    ReproError,
    SimulationError,
    TraceError,
    WorkloadError,
)
from repro.gpu import (
    GPUConfig,
    GPUSimulator,
    McmConfig,
    McmSimulator,
    SimulationResult,
    simulate,
    simulate_mcm,
)
from repro.mrc import MissRateCurve, analyze_regions, collect_miss_rate_curve
from repro.core import (
    PredictionResult,
    ScaleModelPredictor,
    ScaleModelProfile,
    predict_strong_scaling,
    predict_weak_scaling,
)
from repro.validate import validate_config, validate_trace
from repro.workloads import (
    STRONG_SCALING,
    WEAK_SCALING,
    BenchmarkSpec,
    ScalingBehavior,
    build_trace,
    get_benchmark,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "TraceError",
    "PredictionError",
    "WorkloadError",
    # validation
    "validate_config",
    "validate_trace",
    # gpu
    "GPUConfig",
    "McmConfig",
    "GPUSimulator",
    "McmSimulator",
    "SimulationResult",
    "simulate",
    "simulate_mcm",
    # mrc
    "MissRateCurve",
    "collect_miss_rate_curve",
    "analyze_regions",
    # core
    "ScaleModelPredictor",
    "ScaleModelProfile",
    "PredictionResult",
    "predict_strong_scaling",
    "predict_weak_scaling",
    # workloads
    "BenchmarkSpec",
    "ScalingBehavior",
    "STRONG_SCALING",
    "WEAK_SCALING",
    "build_trace",
    "get_benchmark",
]
