"""Hilbert series and dimensions of the graded blocks.

Two independent routes:

* closed formulas on the block label, the production route for both kinds
  of group.  For an ``ell``-multipartition of ``n`` (a partition is the
  one-component label of ``ell = 1``) the series is
  ``prod_{i=1..n} (1 - q^{ell i}) / prod_{components, cells} (1 - q^{ell h})``
  and the dimension is its value at q = 1, ``n! / prod hooks`` over the
  cells of every component.  The series is computed in one coefficient
  list: multiplying by ``1 - q^k`` appends ``k`` zeros and runs
  ``c[d] -= c[d - k]`` for descending ``d``; dividing by it runs
  ``c[d] += c[d - k]`` for ascending ``d`` and drops the top ``k``
  coefficients, which must be 0.  Every division is exact: the whole
  denominator ``D`` divides the numerator ``N``, so each factor ``f`` of
  ``D`` divides ``N``, and ``D / f`` divides ``N / f``;

* a linear-algebra oracle on a presentation, kept as the checker — in each
  degree ``d`` count the monomials in the generators and subtract the exact
  rational rank of the span of
  ``{m * r : r relation of degree s, m monomial of degree d - s}``.

Why the closed form holds: a block presentation has one generator of
degree ``ell h`` per cell of the components (``h`` its hook) and ``n``
non-zero relations, of degrees ``ell, 2 ell, ..., n ell``.  When its
quotient is finite the relations form a regular sequence, and the series is
the complete-intersection product above (Stanley 1978, *Hilbert functions of
graded algebras*).  For generic parameter the block is the fibre of smooth
Calogero–Moser space (Gordon 2003), which the paper's theorem presents from
the label alone.  The oracle verifies the formula coefficient by coefficient
on every partition of ``n <= 8`` and on every wreath label with
``2 <= ell`` and ``n * ell <= 10`` in the tests, and up to ``n <= 9`` and
``n * ell <= 12`` through ``checks`` in CI.

The oracle makes no use of the formulas, so agreement between the two is a
real check.  Rank computation is exact and fraction-free: each relation's
packed int coefficients, over their gcd (``primitive_part``), span the same
rows.  Its codes are decoded and encoded again on the oracle's codec (see
:mod:`~cherednik_centre.polyring`), the generators' digits in their listed
order, so a Macaulay row ``m * r`` is ``r`` shifted by ``m``: a
``{column: int}`` dict.  Each row is reduced against the stored pivot rows
(one per lowest column, each divided by its content) by integer
cross-multiplication until it vanishes or opens a new pivot; the rank is
the number of pivots.  There is no floating point, no modular arithmetic
and no tolerance anywhere.

Within each degree the rows are built relation by relation, and each new
pivot column records the index of the relation whose row opened it.  The
row ``m * r_j`` is not built when ``m`` is a pivot column of degree
``d - deg r_j`` opened by a relation before ``j``: the syzygy criterion of
F5 (Faugère 2002, *A new efficient algorithm for computing Gröbner bases
without reduction to zero*).  Skipping it leaves the span unchanged, for
any relation order and any regularity.  The pivot row ``g`` of ``m`` is a
combination of rows of relations ``r_i``, ``i < j``, whose lowest
(minimum-code) monomial is ``m``; so ``g * r_j`` is a combination of rows
``m'' * r_i`` of degree ``d``, and
``c_m * m * r_j = g * r_j - sum c_m' * m' * r_j`` over the other monomials
``m'`` of ``g``, each of larger code.  By induction over the relations and,
within ``r_j``, down the codes, every skipped row is in the span of the rows
kept, so every rank is the one all rows give.  The argument is about spans
alone, so it also covers any order of the shifts: the monomial table lists
each degree unsorted (``table[d] += table[d - deg x]`` shifted by ``x``, per
generator ``x``: unbounded knapsack).  ``_reduce`` pivots at ``min(row)``, so
the pivot columns of a span are its lowest codes in any row order, and
``opened``, the rows skipped, every rank, series and ``OracleTruncated``
payload are those of ascending shifts.  A constant relation's skip set is
the degree being built, whose pivots from earlier relations are final by
then.  The block relations form a regular sequence, so every row that
would reduce to zero is a Koszul syzygy and is skipped: no row the oracle
reduces on the blocks the tests sweep ends at zero.

The oracle's one degree cutoff is the complete-intersection bound
``sum(relation degrees) - sum(generator degrees)`` plus two slack degrees;
it raises :class:`~cherednik_centre.errors.OracleTruncated`, with the
dimensions it computed, unless both slack degrees vanish.  That check is a
heuristic, not a proof of finiteness: when a generator has degree above 2,
two vanishing degrees do not show that every higher degree vanishes.
Generators ``x`` (degree 1) and ``y`` (degree 5) with relations ``x`` and
``x^5`` present C[y], which is infinite, yet the oracle returns the series
``1`` and raises nothing.  A sound check needs degrees up to the bound plus
the largest generator degree to vanish.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .abacus import _make_multipartition
from .errors import (
    InexactDivision,
    MalformedPresentation,
    NegativeDegreeGenerator,
    NonIntegral,
    OracleTruncated,
    TooLarge,
)
from .partitions import Partition, _row_hooks, make_partition
from .polyring import Radix, monomial_degree, primitive_part
from .presentation import GradedPresentation, Label


@dataclass(frozen=True)
class HilbertSeries:
    """Coefficient list ``c_0, c_1, ..., c_D`` with trailing zeros stripped."""

    coefficients: tuple[int, ...]

    def dimension(self) -> int:
        """Total dimension — the series evaluated at q = 1."""
        return sum(self.coefficients)


def make_series(coefficients) -> HilbertSeries:
    coeffs = list(coefficients)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        coeffs = [0]
    return HilbertSeries(tuple(coeffs))


def format_series(series: HilbertSeries) -> str:
    """Render as ``1 + q + q^2`` (zero coefficients skipped)."""
    pieces = []
    for d, c in enumerate(series.coefficients):
        if c == 0:
            continue
        if d == 0:
            pieces.append(str(c))
        else:
            q = "q" if d == 1 else f"q^{d}"
            pieces.append(q if c == 1 else f"{c}*{q}")
    return " + ".join(pieces) if pieces else "0"


def _times_one_minus_q_to(c: list[int], k: int) -> None:
    """``c := c * (1 - q^k)`` in place, for ``k >= 1``."""
    c.extend([0] * k)
    for d in range(len(c) - 1, k - 1, -1):
        c[d] -= c[d - k]


def _divide_by_one_minus_q_to(c: list[int], k: int) -> None:
    """``c := c / (1 - q^k)`` in place, for ``k >= 1``; raises
    :class:`~cherednik_centre.errors.InexactDivision` unless the quotient is
    a polynomial with fewer coefficients than ``c``."""
    top = len(c) - k
    if top <= 0:
        raise InexactDivision("series quotient is not a polynomial")
    for d in range(k, len(c)):
        c[d] += c[d - k]
    if any(c[top:]):
        raise InexactDivision("series quotient is not a polynomial")
    del c[top:]


def _components(label: Label, ell: int) -> tuple[Partition, ...]:
    """A block label as its components, each through ``make_partition``: a
    partition is the one component of an ``ell = 1`` label; ``TooLarge`` if
    ``ell`` times its weight exceeds ``sys.maxsize``."""
    components = (make_partition(label),) if ell == 1 else _make_multipartition(label, ell)
    n = ell * sum(map(sum, components))
    if n > sys.maxsize:
        raise TooLarge(n)
    return components


def _hooks(components: tuple[Partition, ...]) -> list[int]:
    """The hook of every cell of every (validated) component, row-major."""
    return [h for lam in components for row in _row_hooks(lam) for h in row]


def hilbert_series_formula(label: Label, ell: int = 1) -> HilbertSeries:
    """``prod_{i=1..n} (1 - q^{ell i}) / prod_{components, cells} (1 - q^{ell h})``,
    multiplied out and divided in one coefficient list; each division is
    exact."""
    components = _components(label, ell)
    series = [1]
    for i in range(1, sum(map(sum, components)) + 1):
        _times_one_minus_q_to(series, ell * i)
    for h in _hooks(components):
        _divide_by_one_minus_q_to(series, ell * h)
    return make_series(series)


def dimension_hook_formula(label: Label, ell: int = 1) -> int:
    """``n! / prod hooks`` over the cells of every component, with
    integrality enforced: the series formula at q = 1."""
    return _hook_dimension(_components(label, ell))


def _hook_dimension(components: tuple[Partition, ...]) -> int:
    """:func:`dimension_hook_formula` of validated components, empty ones skipped."""
    n, product = 0, 1
    for lam in components:
        if lam:
            n += sum(lam)
            for row in _row_hooks(lam):
                product *= math.prod(row)
    factorial = math.factorial(n)
    if factorial % product:
        raise NonIntegral((components, factorial, product))
    return factorial // product


# ---------------------------------------------------------------------------
# the presentation oracle


def _reduce(
    row: dict[int, int], pivots: dict[int, tuple[int, list[tuple[int, int]]]]
) -> int | None:
    """Reduce the sparse integer row ``{column: coefficient}`` in place
    against ``pivots`` and return the column of the pivot it opens, or
    ``None`` if it reduces to zero.

    Fraction-free: the row is reduced against the stored pivot row of its
    lowest column, by cross-multiplication with the two leading coefficients
    over their gcd, until it is empty or its lowest column has no pivot yet;
    it then becomes that column's pivot, divided by its content.  A pivot is
    stored as its leading coefficient and its tail; every reduction cancels
    the leading entry exactly.
    """
    while row:
        col = min(row)
        pivot = pivots.get(col)
        if pivot is None:
            content = math.gcd(*row.values())
            lead = row.pop(col) // content
            pivots[col] = (lead, [(c, v // content) for c, v in row.items()])
            return col
        lead, tail = pivot
        factor = row.pop(col)
        g = math.gcd(lead, factor)
        # row := (lead * row - factor * pivot) / g, leading entry dropped
        lead, factor = lead // g, factor // g
        if lead != 1:
            for c in row:
                row[c] *= lead
        for c, v in tail:
            if c in row:
                value = row[c] - factor * v
                if value:
                    row[c] = value
                else:
                    del row[c]
            else:
                row[c] = -factor * v
    return None


def _monomial_codes(radix: Radix, max_degree: int) -> list[list[int]]:
    """Per ``d <= max_degree``, each degree-``d`` monomial code on ``radix`` once (unbounded
    knapsack), unsorted: ``_reduce`` pivots at ``min(row)``, so row order moves no pivot column.
    >>> from cherednik_centre.polyring import GenSym
    >>> [len(c) for c in _monomial_codes(Radix.by_degree([GenSym(1, 1), GenSym(1, 2)], 4), 4)]
    [1, 1, 2, 2, 3]"""
    table = [[0]] + [[] for _ in range(max_degree)]
    for s, place in radix.place_of.items():
        for d in range(s.degree, max_degree + 1):
            table[d] += [code + place for code in table[d - s.degree]]
    return table


def graded_dimensions_from_presentation(presentation: GradedPresentation) -> HilbertSeries:
    """Dimension of each graded piece of the quotient ring up to the cutoff,
    ranking the Macaulay rows the syzygy criterion keeps;
    :class:`~cherednik_centre.errors.OracleTruncated` unless both slack
    degrees vanish, a check that can miss an infinite quotient (see module
    docstring).  Positive generator degrees, each its symbol's degree, and
    homogeneous relations in the generators alone are required (apply to
    positive-orientation presentations only); anything else raises a
    :class:`~cherednik_centre.errors.DomainError`."""
    generators = presentation.generators
    if any(d <= 0 for _, d in generators):
        raise NegativeDegreeGenerator(tuple(generators))
    misdegreed = tuple((g, d) for g, d in generators if d != g.degree)
    if misdegreed:
        raise MalformedPresentation(misdegreed)
    symbols = [g for g, _ in generators]
    known = set(symbols)
    decode = presentation.relations.radix.decode
    relations = [
        {decode(code): c for code, c in p.items()} for p in presentation.relations.polys if p
    ]
    for r in relations:
        if any(ue for ue, _ in r) or not {s for _, gens in r for s, _ in gens} <= known:
            raise MalformedPresentation(r)
    relation_degrees = [monomial_degree(next(iter(r))) for r in relations]
    max_degree = max(0, sum(relation_degrees) - sum(s.degree for s in symbols)) + 2
    radix = Radix.by_degree(symbols, max_degree)
    monomials = _monomial_codes(radix, max_degree)
    packed = [
        (primitive_part(radix.encode_poly(r)).items(), s)
        for r, s in zip(relations, relation_degrees) if s <= max_degree
    ]
    # every pivot column so far, each a monomial of its own degree, and the
    # index of the relation whose row opened it (the syzygy criterion)
    opened: dict[int, int] = {}
    dims = []
    for d in range(max_degree + 1):
        pivots: dict[int, tuple[int, list[tuple[int, int]]]] = {}
        for j, (terms, s) in enumerate(packed):
            if s > d:
                continue
            for shift in monomials[d - s]:
                if opened.get(shift, j) < j:
                    continue
                col = _reduce({shift + code: c for code, c in terms}, pivots)
                if col is not None:
                    opened[col] = j
        dims.append(len(monomials[d]) - len(pivots))
    if any(dims[-2:]):
        raise OracleTruncated(tuple(dims))
    return make_series(dims)


def presentation_dimension(presentation: GradedPresentation) -> int:
    """Total dimension computed by the oracle."""
    return graded_dimensions_from_presentation(presentation).dimension()
