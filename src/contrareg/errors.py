"""Exception hierarchy shared across the package."""


class ContrastiveRegressionError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(ContrastiveRegressionError):
    """Array dimensions of parameters and data disagree."""


class FactorizationError(ContrastiveRegressionError):
    """A covariance matrix is numerically non-SPD (e.g. noise variance underflow)."""


class RankDeficiencyError(ContrastiveRegressionError):
    """A loading matrix is rank deficient beyond tolerance."""


class DegenerateData(ContrastiveRegressionError):
    """Dataset carries no usable variation (n = 0 or all-constant columns)."""


class NonFiniteObjective(ContrastiveRegressionError):
    """The objective became non-finite and automatic step shrinking did not recover."""


class TooFewSamples(ContrastiveRegressionError):
    """Not enough foreground samples for the requested fold count."""


class ConstantTruth(ContrastiveRegressionError):
    """R-squared is undefined because the reference values are constant."""


class ZeroBeta(ContrastiveRegressionError):
    """Regression coefficients are numerically zero; no response-linked component."""


class MalformedFile(ContrastiveRegressionError):
    """An input file could not be parsed; carries file path and line number."""

    def __init__(self, path, line, message):
        self.path = path
        self.line = line
        self.message = message
        super().__init__(f"{path}:{line}: {message}")

    def __reduce__(self):       # pickled by its three arguments, e.g. back from a worker process
        return type(self), (self.path, self.line, self.message)
