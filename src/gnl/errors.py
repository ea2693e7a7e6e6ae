"""Shared exception types.

Every validation failure in the package raises a named subclass of
:class:`GnlError` so callers (and the CLI) can distinguish bad input from a
failed physics check without string matching.
"""


class GnlError(ValueError):
    """Base class for all input-validation errors raised by this package."""


class NonSymmetric(GnlError):
    """Matrix expected to be (complex) symmetric is not."""


class NonPositiveU(GnlError):
    """Imaginary part of an adjacency potential is not positive definite."""


class SingularSolve(GnlError):
    """A linear solve required by a graph transform hit a singular matrix."""


class NormAtOrAboveOne(GnlError):
    """Graph matrix has spectral norm at or above the physical edge."""


class NonUnitary(GnlError):
    """Matrix expected to be unitary is not."""


class NonSymmetricG(GnlError):
    """Real coupling graph expected to be symmetric is not."""


class NonPositiveAlpha(GnlError):
    """Squeezing parameter must be strictly positive."""


class IndexOutOfRange(GnlError):
    """Mode index outside [0, n)."""


class EqualIndices(GnlError):
    """Pair indices must differ."""


class NonHermitian(GnlError):
    """Matrix expected to be Hermitian is not."""


class ShapeMismatch(GnlError):
    """Operands have incompatible shapes."""


class NonCommutingD(GnlError):
    """Block diagonal does not commute with the singular-value profile."""


class InvalidBlockShape(GnlError):
    """Bipartite block input is not a 2-D complex block of the stated shape."""


class AllZeroCoefficients(GnlError):
    """All four generator coefficients vanish."""


class UnknownVariant(GnlError):
    """Requested named state variant does not exist."""


class TooFewSpins(GnlError):
    """Wire construction needs at least three spins."""


class OddSpinCount(GnlError):
    """This symmetry needs an even number of spins."""


class SpanTooLong(GnlError):
    """Chain span exceeds the ring length."""


class WireTooSmall(GnlError):
    """Wire is too short for the requested six-mode construction."""


class InconsistentRecursion(GnlError):
    """Fock recursion gave conflicting amplitudes for the same occupation."""


class OddCutoff(GnlError):
    """Fock cutoff must be even (photons come in pairs)."""


class BadPairing(GnlError):
    """Spin pairing must partition the modes into disjoint ordered pairs."""


class SelfCheckFailed(GnlError):
    """A derived result failed the package's own verification (a solver defect)."""
