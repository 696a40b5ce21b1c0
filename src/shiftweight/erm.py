"""Importance-weighted empirical risk minimization and oracle target evaluation.

Reported risks always use bounded losses: 0-1 loss for classification, squared
error clipped to [0, 1] for regression.  The training surrogates are weighted
cross-entropy and weighted squared loss.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError, require_finite, require_paired
from .predictors import (GramFactor, class_labels, gram_factor,
                         kernel_ridge_fit, logistic_fit)

logger = logging.getLogger("shiftweight")


class FittedModel:
    """Minimal trained predictor: class labels for logistic, reals for kernel
    ridge.  k is a logistic model's class count (None: not known).  NaN or
    inf covariates raise NonFiniteInput."""

    def __init__(self, family, fn, k=None):
        self.family = family
        self.k = k
        self._fn = fn

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        require_finite(covariates=x)
        return self._fn(x)


@dataclass
class WeightedERMResult:
    model: FittedModel
    train_weighted_risk: float


def blend_gamma(theta_hat, gamma):
    """Per-label weights 1 + gamma * theta_hat for the categorical path."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    return 1.0 + gamma * np.asarray(theta_hat, dtype=float)


def _per_sample_weights(omega, y):
    if callable(omega):
        w = np.asarray(omega(y), dtype=float)
    else:
        w = np.asarray(omega, dtype=float)[np.asarray(y, dtype=int)]
    if w.shape != (len(y),):
        raise DataError(f"importance weights have shape {w.shape}, "
                        f"expected ({len(y)},)")
    require_finite(importance_weights=w)
    neg = w < 0
    if np.any(neg):
        # negative estimates make the surrogate unbounded below; the stored
        # estimate stays unclamped, only the ERM copy is floored
        logger.warning("clamped %d negative importance weights to 0 for ERM",
                       int(neg.sum()))
        w = np.where(neg, 0.0, w)
    if w.max() == 0.0:
        raise DataError("all importance weights are zero")
    return w


def weighted_erm(erm_split, omega, family="logistic", k=None, bandwidth=0.9,
                 start=None):
    """Minimize the weighted surrogate over the chosen family.

    omega is a callable evaluated at the labels or, for logistic only, a
    length-k weight vector indexed by class label; any blend (blend_gamma,
    evaluate_weight) is already in omega.  Weights that are all ones run the
    identical code path as unweighted training.  start is what the fit may
    begin from, such as a statistic's coef fit on the same covariates.  For
    logistic it is a (p, k) Newton start for the softmax weights; the
    fitted model does not depend on it beyond rounding.  For kernel_ridge
    it is the GramFactor of these covariates at this bandwidth, used in
    place of building one: the fitted model is the same bit for bit.  A
    factor of other covariates (not equal value for value) or of another
    bandwidth raises DataError.  None: logistic starts from its
    least-squares logits, kernel_ridge builds the factor.
    """
    x, y = erm_split
    x = np.asarray(x, dtype=float)
    if len(x) == 0:
        raise DataError("empty ERM split")
    if family == "logistic":
        y = class_labels(y, np.inf if k is None else k)
        if k is None:
            k = int(y.max()) + 1
        if not callable(omega) and np.shape(omega) != (k,):
            raise DataError(f"omega has shape {np.shape(omega)}, expected ({k},)")
        w = _per_sample_weights(omega, y)
        logits, train_logits, _ = logistic_fit(x, y, k, w, start=start)

        def fn(xq):
            return np.argmax(logits(xq), axis=1)

        model = FittedModel("logistic", fn, k)
        risk = float(np.mean(w * (np.argmax(train_logits, axis=1) != y)))
    elif family == "kernel_ridge":
        if start is not None and not isinstance(start, GramFactor):
            raise DataError("start for kernel_ridge is the GramFactor of the "
                            "ERM covariates, not a logistic Newton start")
        if not callable(omega):
            raise DataError("kernel_ridge needs omega as a function of the "
                            "real labels, not a vector indexed by class")
        w = _per_sample_weights(omega, y)
        y = np.asarray(y, dtype=float)
        if start is None:
            start = gram_factor(x, bandwidth)
        elif start.bandwidth != bandwidth:
            raise DataError(f"start is a Gram factor at bandwidth "
                            f"{start.bandwidth}, not {bandwidth}")
        elif not np.array_equal(start.points, x.reshape(-1)):
            raise DataError("start is the Gram factor of other covariates "
                            "than the ERM split's")
        fn, fit = kernel_ridge_fit(start, y, w)
        model = FittedModel("kernel_ridge", fn)
        risk = float(np.mean(w * np.clip((fit - y) ** 2, 0.0, 1.0)))
    else:
        raise ValueError(f"unknown family {family!r}")

    return WeightedERMResult(model, risk)


def oracle_target_risk(model, target_x, target_y):
    """Mean bounded loss of the model on held-out labeled target samples.
    A logistic model's labels must be classes in 0..k-1, as in training."""
    target_x = np.asarray(target_x, dtype=float)
    if len(target_x) == 0:
        raise DataError("empty oracle target set")
    require_paired(target_x, target_y)
    require_finite(covariates=target_x, labels=target_y)
    pred = model.predict(target_x)
    if model.family == "logistic":
        k = np.inf if model.k is None else model.k
        return float(np.mean(pred != class_labels(target_y, k)))
    err = (pred - np.asarray(target_y, dtype=float)) ** 2
    return float(np.mean(np.clip(err, 0.0, 1.0)))

