"""Trained one-size-fits-all scaling model (the prior-work approach).

Prior CPU scale-model work (Liu et al. [45, 46]) *trains* an extrapolation
model on a set of training benchmarks — simulating them at every system
size — and applies the learned curve to new workloads.  Section II of the
paper argues this breaks on GPUs because workloads scale in qualitatively
different ways; this module implements a faithful stand-in so the argument
can be reproduced quantitatively:

* **training**: for every training benchmark, normalize its measured IPC
  curve to the largest scale model, ``r_b(n) = IPC_b(n) / IPC_b(L)``;
  the trained model is the geometric mean curve ``g(n)`` over benchmarks
  (geometric, because ratios compose multiplicatively);
* **prediction**: for a new workload, ``IPC(T) = IPC_L * g(T)`` — one
  shared curve for everything, exactly the one-size-fits-all property
  the paper criticizes.

Leave-one-out evaluation (:func:`leave_one_out_errors`) quantifies how a
trained global model fares on each benchmark when trained on the rest:
accurate when training and test workloads scale alike, and far off when a
super-linear workload is predicted from a mostly-linear training set —
the failure mode that motivates per-workload prediction.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence

from repro.core.accuracy import prediction_error
from repro.exceptions import PredictionError


class TrainedScalingModel:
    """A global normalized-scaling curve learned from training benchmarks."""

    def __init__(self, anchor_size: int) -> None:
        if anchor_size < 1:
            raise PredictionError(f"anchor_size must be >= 1, got {anchor_size}")
        self.anchor_size = anchor_size
        self._curve: Dict[int, float] = {}
        self._num_training = 0

    def fit(self, training_curves: Sequence[Mapping[int, float]]) -> "TrainedScalingModel":
        """Learn the geometric-mean normalized curve.

        Each training curve maps system size to measured IPC and must
        include the anchor size.
        """
        if not training_curves:
            raise PredictionError("need at least one training benchmark")
        log_sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for curve in training_curves:
            if self.anchor_size not in curve:
                raise PredictionError(
                    f"training curve lacks the anchor size {self.anchor_size}"
                )
            anchor = curve[self.anchor_size]
            if anchor <= 0:
                raise PredictionError("anchor IPC must be positive")
            for size, ipc in curve.items():
                if ipc <= 0:
                    raise PredictionError("training IPCs must be positive")
                log_sums[size] = log_sums.get(size, 0.0) + math.log(ipc / anchor)
                counts[size] = counts.get(size, 0) + 1
        self._curve = {
            size: math.exp(total / counts[size])
            for size, total in log_sums.items()
        }
        self._num_training = len(training_curves)
        return self

    @property
    def curve(self) -> Dict[int, float]:
        """The learned normalized scaling curve (size -> ratio)."""
        if not self._curve:
            raise PredictionError("model is not fitted")
        return dict(self._curve)

    def predict(self, anchor_ipc: float, target_size: int) -> float:
        """Predict IPC at ``target_size`` from the anchor measurement."""
        if not self._curve:
            raise PredictionError("model is not fitted")
        if anchor_ipc <= 0:
            raise PredictionError("anchor IPC must be positive")
        if target_size not in self._curve:
            raise PredictionError(
                f"size {target_size} was not in the training data "
                f"(trained sizes: {sorted(self._curve)})"
            )
        return anchor_ipc * self._curve[target_size]


def leave_one_out_errors(
    curves: Mapping[str, Mapping[int, float]],
    anchor_size: int,
    target_size: int,
) -> Dict[str, float]:
    """Per-benchmark relative error of the trained model, leave-one-out.

    For each benchmark, the model is trained on every *other* benchmark's
    curve and applied to the held-out one — the honest evaluation of a
    trained approach on an unseen workload of interest.
    """
    if len(curves) < 2:
        raise PredictionError("leave-one-out needs at least two benchmarks")
    errors: Dict[str, float] = {}
    names: List[str] = list(curves)
    for held_out in names:
        training = [curves[n] for n in names if n != held_out]
        model = TrainedScalingModel(anchor_size).fit(training)
        actual = curves[held_out].get(target_size)
        anchor = curves[held_out].get(anchor_size)
        if actual is None or anchor is None:
            raise PredictionError(
                f"{held_out}: curve lacks anchor or target size"
            )
        predicted = model.predict(anchor, target_size)
        errors[held_out] = prediction_error(predicted, actual)
    return errors
