"""Exception types raised across the package.

Every error derives from UrnboundError so callers can catch the whole
family at once.  Validation errors carry enough context in the message
to locate the offending entry.  The classes that a bad input value
raises (a shape, an entry, a sum, a replica count, an index) also
derive from ValueError, so a caller that catches ValueError still
catches them.
"""


class UrnboundError(Exception):
    """Base class for all errors raised by this package."""


# -- replacement-matrix validation ------------------------------------------

class NonFiniteEntry(UrnboundError):
    """A replacement-matrix entry is NaN or infinite."""


class NegativeEntry(UrnboundError, ValueError):
    """A replacement-matrix entry or a count is negative."""


class RowSumNotOne(UrnboundError, ValueError):
    """A replacement-matrix row does not sum to 1, or the counts at time n
    to n + 1, within tolerance."""


class NotIrreducible(UrnboundError):
    """The directed graph of positive entries is not strongly connected."""


# -- spectral structure ------------------------------------------------------
# A config can reach ComplexSpectrum, and BasisSingular through a
# near-defective matrix whose basis misses the indicators; the others
# guard numerical failures of decompose's solves (BasisSingular also a
# hand-built basis).

class ComplexSpectrum(UrnboundError):
    """The matrix has a nonreal eigenvalue beyond tolerance."""


class NotAnEigenvalue(UrnboundError):
    """A computed root has no eigenvector within tolerance."""


class NotDefective(UrnboundError):
    """A defective eigenvalue's chain equation has no solution within
    tolerance."""


class BasisSingular(UrnboundError):
    """The right-vector basis is dependent beyond tolerance."""


# -- decompositions and bounds ----------------------------------------------

class LambdaOutOfRange(UrnboundError):
    """Eigenvalue argument outside the admissible interval."""


class IndexOrder(UrnboundError, ValueError):
    """Index arguments violate the required ordering (e.g. j > n, or a
    color outside 0 .. d-1)."""


class NotEigenpair(UrnboundError):
    """The supplied (vector, eigenvalue) pair fails the residual check."""


class NotJordanPair(UrnboundError):
    """The supplied pair of vectors does not satisfy the chain relations."""


class DimensionMismatch(UrnboundError, ValueError):
    """A shape does not fit the colors: a vector length that does not
    match their number, or a matrix that is not square or has fewer than
    two colors."""


# -- verification -------------------------------------------------------------

class TooLarge(UrnboundError):
    """The exact law would exceed the state budget."""


class TooFewReplicas(UrnboundError, ValueError):
    """Fewer replicas than a routine needs: one for simulate_replicas and
    wilson_upper, verification.MIN_REPLICAS for an estimate."""


class GridMismatch(UrnboundError):
    """Bound grid and probability grid are not aligned."""
