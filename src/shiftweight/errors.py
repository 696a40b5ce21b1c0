"""Error types raised by the estimators and the experiment runner."""


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


class DataError(ShiftWeightError, ValueError):
    """A sample cannot support the estimate: an empty split or target set, a
    class absent from the training data, or no positive importance weight."""


class IllConditioned(ShiftWeightError):
    """Linear system could not be solved even after jitter escalation."""


class ConfigError(ShiftWeightError):
    """Bad experiment config; carries the offending line number and field."""

    def __init__(self, message, line=None, field=None):
        super().__init__(message)
        self.line = line
        self.field = field
