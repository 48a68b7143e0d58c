"""Error taxonomy shared by every module.

All domain violations derive from :class:`DomainError`, so the CLI can map
them uniformly to exit status 1 while argparse keeps status 2 for usage
errors.  The class name *is* the diagnostic: the CLI prints
``type(err).__name__`` on stderr.
"""


class DomainError(Exception):
    """Base class for all mathematical/domain input violations."""


class NotWeaklyDecreasing(DomainError):
    """Partition parts must be weakly decreasing."""


class NegativePart(DomainError):
    """Partition parts must be non-negative."""


class EmptyPartition(DomainError):
    """Operation requires a non-empty partition."""


class CellOutOfDiagram(DomainError):
    """Referenced cell lies outside the Young diagram."""


class PadTooShort(DomainError):
    """Requested beta-set length is smaller than the number of parts."""


class RowOutOfRange(DomainError):
    """Row index outside 1..n for the given partition."""


class LengthMismatch(DomainError):
    """Multipartition length does not match the requested number of columns."""


class NonSquare(DomainError):
    """Determinant of a non-square matrix."""


class ZeroPolynomial(DomainError):
    """The zero polynomial has no degree."""


class InexactDivision(DomainError):
    """A division step that must be exact left a remainder."""


class NegativeDegreeGenerator(DomainError):
    """Graded dimension counting, and packed relations (``Radix.by_degree``),
    need strictly positive generator degrees."""


class InhomogeneousRelation(DomainError):
    """A polynomial whose monomials differ in weighted degree, raised by
    ``weighted_degree`` with that polynomial: a ``GradedPresentation`` built
    from polynomials checks each of them so."""


class MalformedPresentation(DomainError):
    """The rank oracle reads a presentation as a quotient of the polynomial
    ring in its generators: a relation with ``u`` or with a symbol that is
    not a generator, or a generator listed with a degree other than its
    symbol's, does not fit that reading."""


class OracleTruncated(DomainError):
    """A graded dimension above the complete-intersection bound is non-zero;
    the payload is the tuple of dimensions the oracle computed to its cutoff."""


class NonIntegral(DomainError):
    """A quantity that must be an integer is not."""


class UnparsableLabel(DomainError):
    """A label, as text or as parts, is not a list of integers."""


class EllOutOfRange(DomainError):
    """The number of abacus columns must be a positive integer."""


class NegativeWeight(DomainError):
    """The weight being partitioned must be non-negative."""


class TooLarge(DomainError):
    """A label too large to compute with: a beta-set padded, or an ell-quotient
    of ell components, past what a tuple can index (``sys.maxsize``)."""
