"""Hilbert series and dimensions of the graded blocks.

Two independent routes:

* closed formulas on the block label, the production route for both kinds
  of group.  For an ``ell``-multipartition of ``n`` (a partition is the
  one-component label of ``ell = 1``) the series is
  ``prod_{i=1..n} (1 - q^{ell i}) / prod_{components, cells} (1 - q^{ell h})``
  (an exact polynomial quotient) and the dimension is its value at q = 1,
  ``n! / prod hooks`` over the cells of every component;

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
on every partition of ``n <= 7`` and on every wreath label with
``2 <= ell`` and ``n * ell <= 10`` (the tests and ``checks``).

The oracle makes no use of the formulas, so agreement between the two is a
real check.  Rank computation is exact and fraction-free: each relation is
scaled once to a primitive integer multiple (lcm of its denominators by
``Radix.pack``, then divided by the gcd of the numerators by
``primitive_part``), which spans the same rows.  A
monomial is one packed int (the layout is described in
:mod:`~cherednik_centre.polyring`), with the generators' digits in their
listed order, so a Macaulay row ``m * r`` is ``r`` shifted by ``m``: a
``{column: int}`` dict.  Each row is reduced against the stored pivot rows
(one per lowest column, each divided by its content) by integer
cross-multiplication until it vanishes or opens a new pivot; the rank is
the number of pivots.  There is no floating point, no modular arithmetic
and no tolerance anywhere.

The default degree cutoff is the complete-intersection bound
``sum(relation degrees) - sum(generator degrees)`` plus two slack degrees;
the oracle raises :class:`~cherednik_centre.errors.OracleTruncated` unless
both slack degrees vanish.  That check is a heuristic, not a proof of
finiteness: when a generator has degree above 2, two vanishing degrees do
not show that every higher degree vanishes.  Generators ``x`` (degree 1)
and ``y`` (degree 5) with relations ``x`` and ``x^5`` present C[y], which is
infinite, yet the oracle returns the series ``1`` and raises nothing.  A
sound check needs degrees up to the bound plus the largest generator degree
to vanish.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .abacus import _make_multipartition
from .errors import (
    InexactDivision,
    InhomogeneousRelation,
    MalformedPresentation,
    NegativeDegreeCutoff,
    NegativeDegreeGenerator,
    NonIntegral,
    OracleTruncated,
)
from .partitions import Partition, cells, hook_length, make_partition, weight
from .polyring import INHOMOGENEOUS, Radix, primitive_part, weighted_degree
from .presentation import GradedPresentation, Label


@dataclass(frozen=True)
class HilbertSeries:
    """Coefficient list ``c_0, c_1, ..., c_D`` with trailing zeros stripped."""

    coefficients: tuple[int, ...]

    def dimension(self) -> int:
        """Total dimension — the series evaluated at q = 1."""
        return sum(self.coefficients)

    def degree(self) -> int:
        return len(self.coefficients) - 1


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


def _poly_mul_dense(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of dense integer polynomials with den[0] = 1."""
    if len(num) < len(den):
        num = num + [0] * (len(den) - len(num))
    out = [0] * (len(num) - len(den) + 1)
    rem = list(num)
    for k in range(len(out)):
        c = rem[k]
        out[k] = c
        if c:
            for t, dv in enumerate(den):
                rem[k + t] -= c * dv
    if any(rem):
        raise InexactDivision("series quotient is not a polynomial")
    return out


def _components(label: Label, ell: int) -> tuple[Partition, ...]:
    """A block label as its components, each through ``make_partition``: a
    partition is the one component of an ``ell = 1`` label."""
    if ell == 1:
        return (make_partition(label),)
    return _make_multipartition(label, ell)


def _one_minus_q_to(k: int) -> list[int]:
    return [1] + [0] * (k - 1) + [-1]


def hilbert_series_formula(label: Label, ell: int = 1) -> HilbertSeries:
    """``prod_{i=1..n} (1 - q^{ell i}) / prod_{components, cells} (1 - q^{ell h})``;
    the division is exact."""
    components = _components(label, ell)
    num = [1]
    for i in range(1, sum(map(weight, components)) + 1):
        num = _poly_mul_dense(num, _one_minus_q_to(ell * i))
    den = [1]
    for component in components:
        for cell in cells(component):
            den = _poly_mul_dense(den, _one_minus_q_to(ell * hook_length(component, cell)))
    return make_series(_poly_div_exact(num, den))


def dimension_hook_formula(label: Label, ell: int = 1) -> int:
    """``n! / prod hooks`` over the cells of every component, with
    integrality enforced: the series formula at q = 1."""
    components = _components(label, ell)
    product = 1
    for component in components:
        for cell in cells(component):
            product *= hook_length(component, cell)
    factorial = math.factorial(sum(map(weight, components)))
    if factorial % product:
        raise NonIntegral((label, factorial, product))
    return factorial // product


# ---------------------------------------------------------------------------
# the presentation oracle


def _sparse_rank(rows: Iterable[dict[int, int]]) -> int:
    """Exact rank of sparse integer rows ``{column: coefficient}``.

    Fraction-free incremental echelon form: each row is reduced against the
    stored pivot row of its lowest column, by cross-multiplication with the
    two leading coefficients over their gcd, until it is empty or its lowest
    column has no pivot yet; it then becomes that column's pivot, divided by
    its content.  A pivot is stored as its leading coefficient and its tail;
    every reduction cancels the leading entry exactly.  Input rows are not
    modified.
    """
    pivots: dict[int, tuple[int, list[tuple[int, int]]]] = {}
    for source in rows:
        row = dict(source)
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                content = math.gcd(*row.values())
                lead = row.pop(col) // content
                pivots[col] = (lead, [(c, v // content) for c, v in row.items()])
                break
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
    return len(pivots)


def _monomial_codes(radix: Radix, max_degree: int) -> list[list[int]]:
    """For each ``d <= max_degree``, the ascending codes of the monomials of
    degree ``d`` in the symbols of ``radix``, a :meth:`Radix.by_degree
    <cherednik_centre.polyring.Radix.by_degree>` codec up to ``max_degree``,
    so multiplying two monomials whose degrees sum to at most ``max_degree``
    is adding their codes."""
    steps = [(s.degree, place) for s, place in zip(radix.symbols, radix.places[1:])]
    table: list[list[int]] = [[] for _ in range(max_degree + 1)]

    def grow(k: int, degree: int, code: int) -> None:
        if k == len(steps):
            table[degree].append(code)
            return
        step, place = steps[k]
        while degree <= max_degree:
            grow(k + 1, degree, code)
            degree += step
            code += place

    grow(0, 0, 0)
    return table


def graded_dimensions_from_presentation(
    presentation: GradedPresentation, max_degree: int | None = None
) -> HilbertSeries:
    """Dimension of each graded piece of the quotient ring, degrees 0..max.

    ``max_degree`` defaults to the complete-intersection bound plus two
    slack degrees, which must vanish; that check can miss an infinite
    quotient, so a truncated series may be returned as a complete one (see
    module docstring); an explicit ``max_degree`` below 0 raises
    :class:`~cherednik_centre.errors.NegativeDegreeCutoff`.  Positive
    generator degrees, each its symbol's degree, and homogeneous relations in
    the generators alone are required (apply to positive-orientation
    presentations only); anything else raises
    a :class:`~cherednik_centre.errors.DomainError`.
    """
    if max_degree is not None and max_degree < 0:
        raise NegativeDegreeCutoff(max_degree)
    generators = presentation.generators
    if any(d <= 0 for _, d in generators):
        raise NegativeDegreeGenerator(tuple(generators))
    misdegreed = tuple((g, d) for g, d in generators if d != g.degree)
    if misdegreed:
        raise MalformedPresentation(misdegreed)
    symbols = [g for g, _ in generators]
    relations = [r for r in presentation.relations if r]
    relation_degrees = [weighted_degree(r) for r in relations]
    if INHOMOGENEOUS in relation_degrees:
        raise InhomogeneousRelation(relations[relation_degrees.index(INHOMOGENEOUS)])
    known = set(symbols)
    for r in relations:
        if any(ue for ue, _ in r) or not {s for _, gens in r for s, _ in gens} <= known:
            raise MalformedPresentation(r)
    default_cutoff = max_degree is None
    if default_cutoff:
        max_degree = max(0, sum(relation_degrees) - sum(s.degree for s in symbols)) + 2
    radix = Radix.by_degree(symbols, max_degree)
    monomials = _monomial_codes(radix, max_degree)
    kept = [(r, s) for r, s in zip(relations, relation_degrees) if s <= max_degree]
    codes, _scales = radix.pack(r for r, _ in kept)
    packed = [(primitive_part(p).items(), s) for p, (_, s) in zip(codes, kept)]
    dims = []
    for d in range(max_degree + 1):
        rows = (
            {shift + code: c for code, c in terms}
            for terms, s in packed
            if s <= d
            for shift in monomials[d - s]
        )
        dims.append(len(monomials[d]) - _sparse_rank(rows))
    if default_cutoff and any(dims[-2:]):
        raise OracleTruncated(tuple(dims))
    return make_series(dims)


def presentation_dimension(presentation: GradedPresentation) -> int:
    """Total dimension computed by the oracle with the default cutoff."""
    return graded_dimensions_from_presentation(presentation).dimension()
