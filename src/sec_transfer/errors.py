"""Exception hierarchy.

Two branches matter operationally: ``ValidationError`` means the caller handed
us something malformed (bad dimensions, a matrix that is not a state, a
probability list that is not passive, ...), while ``NumericalInvariantError``
means inputs were fine but a computed quantity violated one of the library's
internal consistency bounds.  The command line front end maps the former to
exit code 2 and the latter to exit code 3.

Error messages should name the violated invariant and, where one applies, the
offending tolerance.
"""


class SecTransferError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SecTransferError):
    """Malformed or inconsistent input."""


class NumericalInvariantError(SecTransferError):
    """A computed quantity violated an internal consistency bound."""


class DegenerateSpectrum(ValidationError):
    """A local Hamiltonian has a repeated energy level."""


class UnknownBlock(ValidationError):
    """No block with the requested total energy exists."""


class DimensionMismatch(ValidationError):
    """Operands refer to different Hilbert-space dimensions."""


class NotAState(ValidationError):
    """Matrix fails the density-matrix invariants (hermiticity, trace, positivity)."""


class BlockMismatch(ValidationError):
    """Block-diagonal operands are defined over different block structures."""


class NotUnitary(ValidationError):
    """A block matrix fails the unitarity bound."""


class LengthMismatch(ValidationError):
    """Paired lists have different lengths."""


class NotPassive(ValidationError):
    """Probabilities are not non-increasing with energy."""


class NotMaxActive(ValidationError):
    """Probabilities are not non-decreasing with energy."""


class Unphysical(ValidationError):
    """Correlation parameters lie outside the physical region."""


class NotTwoQubit(ValidationError):
    """Operation is defined for 2 x 2 systems only."""


class RationalSnapError(ValidationError):
    """A float could not be snapped to a unique exact rational."""


class NegativeTemperatureWarning(UserWarning):
    """A thermal constructor was called with a negative inverse temperature."""
