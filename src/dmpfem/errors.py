"""Exception types shared across the package."""


class DmpFemError(Exception):
    """Base class for all package-specific errors."""


class DegenerateCell(DmpFemError):
    """A simplex has (near-)zero measure."""


class IndexOutOfRange(DmpFemError):
    """A cell references a vertex index outside the vertex table."""


class NonManifold(DmpFemError):
    """A facet is shared by more than two cells."""


class NonFiniteValue(DmpFemError):
    """A vertex coordinate or a sampled coefficient value is NaN or infinite."""


class DimensionMismatch(DmpFemError):
    """Operation requested for an unsupported spatial dimension."""


class MissingBoundaryValue(DmpFemError):
    """Dirichlet values do not give exactly one value per boundary node."""


class LinearSolveDiverged(DmpFemError):
    """Linear solve failed: singular factorization or residual above tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class PicardDiverged(DmpFemError):
    """Fixed-point iteration exhausted its iteration budget."""

    def __init__(self, message, last_update=None):
        super().__init__(message)
        self.last_update = last_update


class UnsupportedCMode(DmpFemError):
    """Cut threshold undefined for the requested zeroth-order-coefficient mode."""


class NotConverged(DmpFemError):
    """Refusing to certify a solution that did not converge."""


class InvalidParameters(DmpFemError):
    """Parameter values outside their admissible ranges."""


class HypothesisViolated(DmpFemError):
    """Sampled decay function fails the iteration-lemma hypothesis."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class CoefficientBoundsViolation(DmpFemError):
    """Spot-checked coefficient values contradict the declared bounds."""
