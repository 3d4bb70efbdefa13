"""Exception hierarchy used across the package.

Validation failures (bad inputs, bad configs) and numerical failures
(non-convergence, failed factorizations) are kept as separate subtrees so
the CLI can map them to distinct exit codes.
"""


class FairSmoothError(Exception):
    """Base class for all package errors."""


class ValidationError(FairSmoothError):
    """Input or configuration rejected before any heavy computation."""


class NumericalError(FairSmoothError):
    """Computation started but failed numerically."""


# -- validation ------------------------------------------------------------

class DimensionMismatch(ValidationError):
    pass


class InvalidParameter(ValidationError):
    pass


class NonSymmetric(ValidationError):
    pass


class NotPSD(ValidationError):
    pass


class NonOrthonormalBasis(ValidationError):
    pass


class SelfLoop(ValidationError):
    pass


class IndexOutOfRange(ValidationError):
    pass


class InvalidSimplexRow(ValidationError):
    pass


class EmptyGroup(ValidationError):
    pass


class NoLabels(ValidationError):
    pass


class EmptyPairs(ValidationError):
    pass


class ParseError(ValidationError):
    pass


class RowCountMismatch(ValidationError):
    pass


class UnsupportedSpec(ValidationError):
    pass


# -- numerical -------------------------------------------------------------

class NotPositiveDefinite(NumericalError):
    pass


class NotConverged(NumericalError):
    pass
