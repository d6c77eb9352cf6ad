"""Exception types shared across the package."""


class OrbitConeError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedAlgebra(OrbitConeError):
    """Algebra specification string names an unsupported algebra."""


class DimensionTooLarge(OrbitConeError):
    """Requested computation exceeds the supported dimension range."""


class DimensionMismatch(OrbitConeError):
    """Coordinate vector length does not match the algebra dimension."""


class DegenerateForm(OrbitConeError):
    """A bilinear form required to be nondegenerate is numerically singular."""


class NotUnitDirections(OrbitConeError):
    """A sampled cone was given a row that is not a finite unit vector."""


class ZeroPoint(OrbitConeError):
    """Operation requires a nonzero point."""


class OddDimension(OrbitConeError):
    """Skew form evaluated on an odd number of vectors."""


class EmptyFamily(OrbitConeError):
    """Point family has no branches to sample."""


class InsufficientRadii(OrbitConeError):
    """Asymptotic cone sampling needs at least three strictly increasing radii."""


class BudgetTooSmall(OrbitConeError):
    """Sampling budget below the minimum needed for a meaningful answer."""


class BadPartition(OrbitConeError):
    """Block sizes do not partition the ambient signature."""


class NonCommuting(OrbitConeError):
    """Matrices expected to commute do not, beyond tolerance."""
