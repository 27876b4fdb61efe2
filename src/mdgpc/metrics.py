"""Accuracy, negative log-likelihood and calibration metrics.

Calibration uses B equal-width confidence bins over (0, 1]; bin b covers
((b-1)/B, b/B] and a confidence of exactly 0 is assigned to bin 1.
Confidence is the maximum predicted probability, a prediction counts as
correct when its argmax matches the true label.

    ECE = sum_b (n_b / n) |acc_b - conf_b|,    MCE = max over nonempty bins.

MCE weighs a bin by nothing but its being non-empty, so one prediction alone
in a bin sets it: at eval's defaults one query of 8 000, alone in bin 5,
gives an MCE of 0.668, and a shift of 0.002 in its confidence moves it to
the next bin and the MCE to 0.528. Read MCE beside the bin counts of
`reliability_table` (the `count` column of eval's ``calibration.csv``).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = ["CalibrationTable", "accuracy", "nll", "reliability_table", "ece", "mce"]

NLL_FLOOR = 1e-12


def _validate(probs: np.ndarray, y_true: np.ndarray):
    probs = np.asarray(probs, dtype=float)
    y_true = np.asarray(y_true, dtype=int)
    if probs.ndim != 2:
        raise InputError(f"probs must be (M, C), got shape {probs.shape}")
    if probs.shape[0] == 0:
        raise InputError("no predictions")
    if y_true.shape != (probs.shape[0],):
        raise InputError(
            f"y_true shape {y_true.shape} does not match {probs.shape[0]} predictions"
        )
    if np.any(y_true < 0) or np.any(y_true >= probs.shape[1]):
        raise InputError("true label outside [0, C)")
    if np.any(probs < 0.0) or not np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-6):
        raise InputError("probability rows must be nonnegative and sum to 1")
    return probs, y_true


def accuracy(probs: np.ndarray, y_true: np.ndarray) -> float:
    probs, y_true = _validate(probs, y_true)
    return float(np.mean(np.argmax(probs, axis=1) == y_true))


def nll(probs: np.ndarray, y_true: np.ndarray) -> float:
    """Mean negative log predicted probability of the true label."""
    probs, y_true = _validate(probs, y_true)
    p = np.maximum(probs[np.arange(y_true.shape[0]), y_true], NLL_FLOOR)
    return float(np.mean(-np.log(p)))


@dataclass(frozen=True)
class CalibrationTable:
    """Per-bin counts, mean confidence and accuracy; empty bins hold zeros."""

    lower: np.ndarray
    upper: np.ndarray
    count: np.ndarray
    confidence: np.ndarray
    accuracy: np.ndarray

    @property
    def n_bins(self) -> int:
        return self.lower.shape[0]

    @property
    def total(self) -> int:
        return int(self.count.sum())


def reliability_table(probs: np.ndarray, y_true: np.ndarray, bins: int = 15) -> CalibrationTable:
    probs, y_true = _validate(probs, y_true)
    if bins < 1:
        raise InputError(f"bins must be >= 1, got {bins}")
    conf = probs.max(axis=1)
    correct = (np.argmax(probs, axis=1) == y_true).astype(float)
    edges = np.arange(1, bins + 1) / bins
    # bin b covers (edges[b-1], edges[b]]; conf 0 lands in bin 1
    idx = np.searchsorted(edges, conf, side="left")
    idx = np.minimum(idx, bins - 1)
    count = np.bincount(idx, minlength=bins).astype(int)
    conf_sum = np.bincount(idx, weights=conf, minlength=bins)
    acc_sum = np.bincount(idx, weights=correct, minlength=bins)
    nz = count > 0
    mean_conf = np.zeros(bins)
    mean_acc = np.zeros(bins)
    mean_conf[nz] = conf_sum[nz] / count[nz]
    mean_acc[nz] = acc_sum[nz] / count[nz]
    return CalibrationTable(
        lower=np.concatenate([[0.0], edges[:-1]]),
        upper=edges.copy(),
        count=count,
        confidence=mean_conf,
        accuracy=mean_acc,
    )


def ece(probs: np.ndarray, y_true: np.ndarray, bins: int = 15) -> float:
    table = reliability_table(probs, y_true, bins)
    weights = table.count / table.total
    return float(np.sum(weights * np.abs(table.accuracy - table.confidence)))


def mce(probs: np.ndarray, y_true: np.ndarray, bins: int = 15) -> float:
    table = reliability_table(probs, y_true, bins)
    nz = table.count > 0
    return float(np.max(np.abs(table.accuracy[nz] - table.confidence[nz])))
