"""Exception types shared across the package.

Every error raised on a violated contract derives from VrrwError so the
command line layer can map domain failures to a single exit code.
"""


class VrrwError(Exception):
    """Base class for all domain errors raised by this package."""


class ValidationError(VrrwError):
    """Structural invariant of an input object is violated.

    Covers interaction matrices (shape, symmetry, positivity, row sums),
    simplex points (negativity, normalization) and malformed configs.
    """


class BuildError(VrrwError):
    """The compiled library (the walk's steps and the flow) could not be built."""


class NumericError(VrrwError):
    """Non-finite, overflowing or underflowing values in a numeric routine."""


class DegenerateSupportError(VrrwError):
    """The interaction energy vanishes on the requested support."""


class DomainError(VrrwError):
    """A parameter lies outside the mathematical domain of an operation."""


class BoundaryJacobianError(VrrwError):
    """Jacobian requested at a face boundary where it is not two-sided."""


class ReducibilityError(VrrwError):
    """A frozen-occupation kernel is reducible; its linear system is singular."""


class SummabilityError(VrrwError):
    """A clock-weight tail is not summable enough for the requested bound."""
