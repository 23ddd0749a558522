"""Platt scaling of classifier confidences into stance probabilities, and the
three-band discretization (opposition / undisclosed / defense)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._kernels import sigmoid

BAND_OPPOSITION = "opposition"
BAND_UNDISCLOSED = "undisclosed"
BAND_DEFENSE = "defense"

# band boundaries; 0.4 belongs to undisclosed, 0.6 to defense
LOWER_BOUND = 0.4
UPPER_BOUND = 0.6

# the Platt fit stops once both gradient components are below TOL
TOL = 1e-8
MAX_ITER = 100

# equal-width probability bins of the calibration report and of the ECE
N_BINS = 10


class CalibrationError(Exception):
    pass


@dataclass(frozen=True)
class PlattModel:
    slope: float
    offset: float

    def __post_init__(self):
        if not np.isfinite(self.slope) or not np.isfinite(self.offset):
            raise CalibrationError("non-finite Platt parameters")


@dataclass(frozen=True)
class StanceScore:
    user_id: str
    raw_confidence: float
    probability: float
    band: str


def fit_platt(confidences: Sequence[float], labels: Sequence[int]
              ) -> PlattModel:
    """Fit sigmoid(A*s + B) to labels by Newton iteration on cross-entropy.

    Targets are smoothed to (N+ + 1)/(N+ + 2) and 1/(N- + 2), which keeps the
    optimum finite even on perfectly separated scores.
    """
    s = np.asarray(confidences, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if len(s) != len(y) or len(s) < 10:
        raise CalibrationError("need >= 10 (confidence, label) pairs")
    if set(np.unique(y)) != {0.0, 1.0}:
        raise CalibrationError("both classes must be present")

    n_pos = float(y.sum())
    n_neg = float(len(y) - n_pos)
    t_pos = (n_pos + 1.0) / (n_pos + 2.0)
    t_neg = 1.0 / (n_neg + 2.0)
    t = np.where(y == 1.0, t_pos, t_neg)

    def objective(p):
        return float(-np.sum(t * np.log(np.clip(p, 1e-300, 1))
                             + (1 - t) * np.log(np.clip(1 - p, 1e-300, 1))))

    a, b = 0.0, 0.0
    for _ in range(MAX_ITER):
        p = sigmoid(a * s + b)
        grad_a = float(np.sum((p - t) * s))
        grad_b = float(np.sum(p - t))
        if max(abs(grad_a), abs(grad_b)) < TOL:
            return PlattModel(slope=a, offset=b)
        w = p * (1.0 - p)
        haa = float(np.sum(w * s * s)) + 1e-12
        hab = float(np.sum(w * s))
        hbb = float(np.sum(w)) + 1e-12
        det = haa * hbb - hab * hab
        if det <= 0:
            raise CalibrationError("singular Hessian in Platt fit")
        da = -(hbb * grad_a - hab * grad_b) / det
        db = -(-hab * grad_a + haa * grad_b) / det
        # halve the step until the objective stops increasing
        obj = objective(p)
        step = 1.0
        for _half in range(30):
            a_new, b_new = a + step * da, b + step * db
            if objective(sigmoid(a_new * s + b_new)) <= obj + 1e-12:
                a, b = a_new, b_new
                break
            step *= 0.5
        else:
            raise CalibrationError("Platt fit line search failed")
    p = sigmoid(a * s + b)
    grad = max(abs(float(np.sum((p - t) * s))), abs(float(np.sum(p - t))))
    if grad < 1e-6:
        # numerically flat region; close enough for downstream use
        return PlattModel(slope=a, offset=b)
    raise CalibrationError(
        f"Platt fit did not converge in {MAX_ITER} iterations "
        f"(gradient norm {grad:.3g})")


def calibrate(model: PlattModel, confidence: float) -> float:
    """:func:`calibrate_many` of one confidence, as a Python float."""
    return float(calibrate_many(model, confidence))


def calibrate_many(model: PlattModel, confidences: Sequence[float]) -> np.ndarray:
    """Calibrated probabilities sigmoid(A*confidence + B), each clipped into
    the open interval (0, 1)."""
    p = sigmoid(model.slope * np.asarray(confidences, dtype=np.float64)
                + model.offset)
    return np.clip(p, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def stance_band(probability: float) -> str:
    """opposition for p < 0.4, undisclosed for 0.4 <= p < 0.6, defense for
    p >= 0.6."""
    if not (0.0 <= probability <= 1.0):
        raise ValueError("probability must be in [0, 1]")
    if probability < LOWER_BOUND:
        return BAND_OPPOSITION
    if probability < UPPER_BOUND:
        return BAND_UNDISCLOSED
    return BAND_DEFENSE


def score_users(model: PlattModel, user_ids: Sequence[str],
                confidences: Sequence[float]) -> list[StanceScore]:
    probs = calibrate_many(model, confidences).tolist()
    return [StanceScore(user_id=uid, raw_confidence=float(conf),
                        probability=p, band=stance_band(p))
            for uid, conf, p in zip(user_ids, confidences, probs)]


def expected_calibration_error(probabilities: Sequence[float],
                               labels: Sequence[int]) -> float:
    """Binned ECE: mean |empirical rate - mean predicted| weighted by bin
    occupancy, over the bins of :func:`calibration_table`."""
    n = len(probabilities)
    ece = 0.0
    for mean, rate, count in calibration_table(probabilities, labels):
        if count:
            ece += count / n * abs(rate - mean)
    return ece


def calibration_table(probabilities: Sequence[float], labels: Sequence[int]
                      ) -> list[tuple[float, float, int]]:
    """Per-bin (mean confidence, empirical rate, count) rows for the
    calibration report, one for each of ``N_BINS`` bins."""
    p = np.asarray(probabilities, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    bins = np.clip((p * N_BINS).astype(int), 0, N_BINS - 1)
    rows = []
    for b in range(N_BINS):
        mask = bins == b
        if mask.any():
            rows.append((float(p[mask].mean()), float(y[mask].mean()),
                         int(mask.sum())))
        else:
            rows.append(((b + 0.5) / N_BINS, float("nan"), 0))
    return rows
