"""The paper's core contribution: GPU scale-model performance prediction.

Given (1) the IPC of two proportionally scaled-down *scale models* and
(2) the workload's LLC miss-rate curve (strong scaling only), the
predictor estimates target-system IPC without ever simulating the target
(Section V of the paper):

* pre-cliff region  — Eq. 2: proportional scaling corrected by the
  per-workload factor ``C`` measured between the scale models (Eq. 1);
* cliff region      — Eq. 3: proportional scaling boosted by
  ``1 / (1 - f_mem)``, the memory-stall fraction of the largest scale
  model, because crossing the cliff eliminates memory stalls;
* post-cliff region — Eq. 4: extrapolation from the first post-cliff
  system, itself predicted with Eq. 3, corrected by ``C`` again.

:mod:`repro.core.baselines` implements the four comparison methods
(proportional scaling, linear, power-law and logarithmic regression);
:mod:`repro.core.workflow` wires simulator, MRC collection and prediction
into the end-to-end flow of Figure 3 (:func:`study`), which every figure,
artifact and campaign runs through.
"""

from repro.core.model import PredictionResult, ScaleModelPredictor
from repro.core.multicliff import MultiCliffPredictor, find_all_cliffs
from repro.core.profile import ScaleModelProfile
from repro.core.baselines import (
    BaselinePredictor,
    LinearRegression,
    LogarithmicRegression,
    PowerLawRegression,
    ProportionalScaling,
    make_predictor,
    METHOD_NAMES,
)
from repro.core.accuracy import prediction_error, summarize_errors
from repro.core.workflow import (
    ScaleModelStudy,
    predict_all,
    predict_strong_scaling,
    predict_weak_scaling,
    study,
)

__all__ = [
    "ScaleModelPredictor",
    "MultiCliffPredictor",
    "find_all_cliffs",
    "PredictionResult",
    "ScaleModelProfile",
    "BaselinePredictor",
    "ProportionalScaling",
    "LinearRegression",
    "PowerLawRegression",
    "LogarithmicRegression",
    "make_predictor",
    "METHOD_NAMES",
    "prediction_error",
    "summarize_errors",
    "ScaleModelStudy",
    "predict_all",
    "predict_strong_scaling",
    "predict_weak_scaling",
    "study",
]
