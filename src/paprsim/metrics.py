"""PAPR and empirical CCDF estimation with quantile readout."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricError, ShapeError


@dataclass(frozen=True)
class CcdfCurve:
    """Empirical complementary CDF: P(value > threshold) per threshold."""

    thresholds_db: np.ndarray
    prob_exceed: np.ndarray
    sample_count: int


def papr_db(samples) -> np.ndarray:
    """Peak-to-average power ratio in dB of each block along the last axis.

    Samples (..., n) give PAPR values of shape (...); a single block gives a
    scalar.
    """
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ShapeError("papr of an empty signal is undefined")
    return _papr_db_rows(np.abs(samples) ** 2)


def _papr_db_rows(power: np.ndarray) -> np.ndarray:
    """:func:`papr_db` from instantaneous power |x|^2 (..., n), for callers
    that already hold it."""
    peak = np.max(power, axis=-1)
    if np.any(peak == 0):
        raise MetricError("papr of an all-zero signal is undefined")
    return 10.0 * np.log10(peak / np.mean(power, axis=-1))


def estimate_ccdf(papr_values, thresholds_db) -> CcdfCurve:
    """Fraction of samples strictly above each threshold."""
    values = np.asarray(papr_values, dtype=float).reshape(-1)
    thresholds = np.asarray(thresholds_db, dtype=float).reshape(-1)
    if values.size == 0:
        raise ShapeError("cannot estimate a CCDF from zero samples")
    if thresholds.size == 0 or np.any(np.diff(thresholds) <= 0):
        raise ShapeError("thresholds must be non-empty and strictly ascending")
    ordered = np.sort(values)
    n_at_or_below = np.searchsorted(ordered, thresholds, side="right")
    prob = (values.size - n_at_or_below) / values.size
    prob.setflags(write=False)
    thresholds.setflags(write=False)
    return CcdfCurve(thresholds_db=thresholds, prob_exceed=prob, sample_count=values.size)


def ccdf_quantile(curve: CcdfCurve, p: float) -> float:
    """Smallest threshold whose exceedance probability is <= p.

    Linearly interpolates between the bracketing grid thresholds. Raises
    when p falls outside the probability range the curve actually achieves.
    """
    if not 0 < p < 1:
        raise MetricError("p must lie strictly between 0 and 1")
    prob = curve.prob_exceed
    t = curve.thresholds_db
    if p >= prob[0]:
        raise MetricError(
            f"p = {p:g} is at or above the largest achieved exceedance {prob[0]:g}; "
            f"achievable range is ({prob[-1]:g}, {prob[0]:g})"
        )
    if p < prob[-1]:
        raise MetricError(
            f"p = {p:g} is below the smallest achieved exceedance {prob[-1]:g}; "
            f"achievable range is ({prob[-1]:g}, {prob[0]:g})"
        )
    idx = int(np.argmax(prob <= p))
    if prob[idx] == p or prob[idx - 1] == prob[idx]:
        return float(t[idx])
    frac = (prob[idx - 1] - p) / (prob[idx - 1] - prob[idx])
    return float(t[idx - 1] + frac * (t[idx] - t[idx - 1]))
