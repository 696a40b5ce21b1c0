"""Error types raised by the estimators and the experiment runner."""

import numbers

import numpy as np


class ShiftWeightError(Exception):
    pass


class SingularOperator(ShiftWeightError):
    """Forward operator is rank deficient; carries the singular spectrum."""

    def __init__(self, message, spectrum=None):
        super().__init__(message)
        self.spectrum = spectrum


class NonFiniteInput(ShiftWeightError, ValueError):
    """An input array holds NaN or inf; carries the name of the offending input."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def require_finite(**arrays):
    """Raise NonFiniteInput naming the first keyword array that holds NaN or inf."""
    for name, values in arrays.items():
        if not np.all(np.isfinite(values)):
            raise NonFiniteInput(f"{name} contains NaN or inf", field=name)


def require_counts(**counts):
    """Raise ValueError naming the first keyword count not an integer >= 1."""
    for name, value in counts.items():
        if not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"{name} must be an integer at least 1, got {value!r}")


class DataError(ShiftWeightError, ValueError):
    """A sample cannot support the estimate: an empty split or target set, a
    class label outside 0..k-1 or absent from the training data, a negative
    sample weight, or no positive importance weight."""


def require_paired(x, y):
    """Raise DataError unless the covariates x and labels y have one label
    per covariate."""
    if len(x) != len(y):
        raise DataError(f"{len(x)} covariates with {len(y)} labels")


class IllConditioned(ShiftWeightError):
    """An SPD solve met a matrix that is not numerically positive definite,
    or NaN or inf in its inputs; or an iterative fit did not converge within
    its step cap."""


class ConfigError(ShiftWeightError):
    """Bad experiment config; carries the offending line number and field."""

    def __init__(self, message, line=None, field=None):
        super().__init__(message)
        self.line = line
        self.field = field
