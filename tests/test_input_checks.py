"""Bad inputs to the statistic fits and weighted ERM fail where they enter,
with the package's typed errors."""

import numpy as np
import pytest

from shiftweight import (DataError, IllConditioned, NonFiniteInput,
                         train_hypercube, train_kernel_regressor,
                         train_simplex, weighted_erm)
from shiftweight.predictors import _safe_spd_solve


def _sample():
    """Three classes of 20 points each, clustered at 0, 1 and 2."""
    y = np.repeat(np.arange(3), 20)
    return y + 0.1 * np.random.default_rng(12).normal(size=len(y)), y


def _with_nan(values):
    values = np.array(values, dtype=float)
    values[len(values) // 2] = np.nan
    return values


ENTRY_POINTS = {
    "train_simplex": lambda x, y: train_simplex((x, y), 3),
    "train_hypercube": lambda x, y: train_hypercube((x, y), 3),
    "train_kernel_regressor": lambda x, y: train_kernel_regressor((x, y)),
    "weighted_erm_logistic": lambda x, y: weighted_erm(
        (x, y), np.ones(3), "logistic"),
    "weighted_erm_kernel_ridge": lambda x, y: weighted_erm(
        (x, y), lambda ys: np.ones(len(ys)), "kernel_ridge"),
}
REAL_LABELS = ("train_kernel_regressor", "weighted_erm_kernel_ridge")


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_finite_input_is_named(entry):
    x, y = _sample()
    with pytest.raises(NonFiniteInput) as exc:
        ENTRY_POINTS[entry](_with_nan(x), y)
    assert exc.value.field == "covariates"
    if entry in REAL_LABELS:
        with pytest.raises(NonFiniteInput) as exc:
            ENTRY_POINTS[entry](x, _with_nan(y))
        assert exc.value.field == "labels"


CLASS_LABEL_ENTRY_POINTS = {
    "train_simplex": ENTRY_POINTS["train_simplex"],
    "train_hypercube": ENTRY_POINTS["train_hypercube"],
    "weighted_erm_logistic": lambda x, y: weighted_erm(
        (x, y), np.ones(3), "logistic", k=3),
}


@pytest.mark.parametrize("bad, error, message", (
    (-1, DataError, "class label -1 outside 0..2"),
    (3, DataError, "class label 3 outside 0..2"),
    (1.5, DataError, "class label 1.5 is not an integer"),
    (np.nan, NonFiniteInput, "labels contains NaN")))
@pytest.mark.parametrize("entry", sorted(CLASS_LABEL_ENTRY_POINTS))
def test_bad_class_label_is_rejected_where_it_enters(entry, bad, error,
                                                     message):
    """With k = 3, a label outside 0..2 is neither wrapped round to class 2
    nor left to fail as a raw IndexError or bincount ValueError."""
    x, y = _sample()
    with pytest.raises(error, match=message):
        CLASS_LABEL_ENTRY_POINTS[entry](np.append(x, 1.0), np.append(y, bad))


@pytest.mark.parametrize("params", ({"ridge": -1.0}, {"ridge": 0.0},
                                    {"bandwidth": -0.5}, {"bandwidth": 0.0}))
def test_kernel_ridge_erm_rejects_nonpositive_hyperparameters(params):
    x, y = _sample()
    with pytest.raises(ValueError, match="must be positive"):
        weighted_erm((x, y), lambda ys: np.ones(len(ys)), "kernel_ridge",
                     **params)


def test_failed_cholesky_is_typed_not_patched_by_least_squares():
    with pytest.raises(IllConditioned):
        _safe_spd_solve(-np.eye(3), np.ones(3))
