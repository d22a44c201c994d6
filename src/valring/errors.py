"""Exception types raised across the package.

Everything derives from ValringError (a ValueError) so callers can
catch the whole family at once; the CLI maps them to exit code 1 with a
structured error report.
"""


class ValringError(ValueError):
    """Base class for all package-specific errors."""


class NonPrime(ValringError):
    """Residue characteristic is not a prime."""


class EvenPrime(ValringError):
    """Residue characteristic 2 is rejected; 2 must be a unit."""


class NotPrimePower(ValringError):
    """Residue field size does not factor as a prime power."""


class BadFamilyCombo(ValringError):
    """Ring family is incompatible with the given parameters."""


class RingMismatch(ValringError):
    """Operands belong to different rings."""


class NotAUnit(ValringError):
    """Inversion was requested for a non-invertible element."""


class BadIndex(ValringError):
    """Element or vertex index is outside its valid range."""


class BadArity(ValringError):
    """A tuple-length parameter is outside its valid range."""


class NotUnits(ValringError):
    """An operation requires a set of units but got non-units."""


class AllNonUnits(ValringError):
    """A coordinate vector has no unit coordinate, so it has no
    canonical projective representative."""


class BadSize(ValringError):
    """A requested subset size is impossible for the given ring."""


class TooLarge(ValringError):
    """A requested object exceeds a configured size cap."""


class ParseError(ValringError):
    """A ring or set literal could not be parsed."""
