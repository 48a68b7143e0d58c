"""Hilbert series and dimensions of the graded blocks.

Two independent routes:

* closed formulas on the partition — the series
  ``prod_{i=1..n} (1 - q^i) / prod_cells (1 - q^{h(i,j)})`` (an exact
  polynomial quotient) and the dimension ``n! / prod hooks``;

* a linear-algebra oracle on a presentation — in each degree ``d`` count the
  monomials in the generators and subtract the exact rational rank of the
  span of ``{m * r : r relation of degree s, m monomial of degree d - s}``.

The oracle makes no use of the formulas, so agreement between the two is a
real check.  Rank computation is exact sparse row reduction over the
rationals: each Macaulay row is a ``{column: Fraction}`` dict, reduced
against the stored pivot rows (one per leading column, scaled to leading
coefficient 1) until it vanishes or opens a new pivot; the rank is the number
of pivots.  There is no floating point, no modular arithmetic and no
tolerance anywhere.

There is no closed wreath-case formula here; wreath series are defined
operationally by the oracle.  The default degree cutoff is the
complete-intersection bound ``sum(relation degrees) - sum(generator
degrees)`` plus two slack degrees; the oracle raises
:class:`~cherednik_centre.errors.OracleTruncated` unless both slack degrees
vanish, so a truncated series is never returned as a complete one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InexactDivision,
    InhomogeneousRelation,
    NegativeDegreeGenerator,
    NonIntegral,
    OracleTruncated,
)
from .partitions import Partition, cells, hook_length, weight
from .polyring import INHOMOGENEOUS, GenSym, mul, weighted_degree
from .presentation import GradedPresentation


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


def hilbert_series_formula(lam: Partition) -> HilbertSeries:
    """``prod (1 - q^i) / prod_cells (1 - q^h)``; the division is exact."""
    n = weight(lam)
    num = [1]
    for i in range(1, n + 1):
        num = _poly_mul_dense(num, [1] + [0] * (i - 1) + [-1])
    den = [1]
    for cell in cells(lam):
        h = hook_length(lam, cell)
        den = _poly_mul_dense(den, [1] + [0] * (h - 1) + [-1])
    return make_series(_poly_div_exact(num, den))


def dimension_hook_formula(lam: Partition) -> int:
    """``n! / prod hooks`` with integrality enforced."""
    n = weight(lam)
    product = 1
    for cell in cells(lam):
        product *= hook_length(lam, cell)
    factorial = math.factorial(n)
    if factorial % product:
        raise NonIntegral((lam, factorial, product))
    return factorial // product


# ---------------------------------------------------------------------------
# the presentation oracle


def _sparse_rank(rows: Iterable[dict[int, Fraction]]) -> int:
    """Exact rank of sparse rational rows ``{column: coefficient}``.

    Incremental echelon form: each row is reduced against the stored pivot
    row of its lowest column until it is empty or its lowest column has no
    pivot yet; it then becomes that column's pivot, scaled to leading
    coefficient 1.  A pivot is stored without its leading 1, which every
    reduction cancels exactly.  Input rows are not modified.
    """
    pivots: dict[int, list[tuple[int, Fraction]]] = {}
    for source in rows:
        row = dict(source)
        while row:
            col = min(row)
            factor = row.pop(col)
            tail = pivots.get(col)
            if tail is None:
                pivots[col] = [(c, v / factor) for c, v in row.items()]
                break
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


def _monomials_by_degree(
    symbols: list[GenSym], degrees: list[int], max_degree: int
) -> list[list[tuple]]:
    """For each d <= max_degree, the list of generator-monomial keys of degree d.

    Keys are polyring gen-vectors: sorted ``((GenSym, exp), ...)`` tuples.
    """
    table: list[list[tuple]] = [[] for _ in range(max_degree + 1)]

    def grow(idx: int, degree: int, chosen: list[tuple[GenSym, int]]) -> None:
        if idx == len(symbols):
            table[degree].append(tuple(sorted(chosen)))
            return
        step = degrees[idx]
        exponent = 0
        while degree + exponent * step <= max_degree:
            grow(
                idx + 1,
                degree + exponent * step,
                chosen + ([(symbols[idx], exponent)] if exponent else []),
            )
            exponent += 1

    grow(0, 0, [])
    return table


def graded_dimensions_from_presentation(
    presentation: GradedPresentation, max_degree: int | None = None
) -> HilbertSeries:
    """Dimension of each graded piece of the quotient ring, degrees 0..max.

    ``max_degree`` defaults to the complete-intersection bound plus two
    slack degrees, which must vanish (see module docstring).  Positive
    generator degrees and homogeneous relations are required (apply to
    positive-orientation presentations only).
    """
    symbols = [g for g, _ in presentation.generators]
    degrees = [d for _, d in presentation.generators]
    if any(d <= 0 for d in degrees):
        raise NegativeDegreeGenerator(tuple(presentation.generators))
    relations = [r for r in presentation.relations if r]
    relation_degrees = [weighted_degree(r) for r in relations]
    if INHOMOGENEOUS in relation_degrees:
        raise InhomogeneousRelation(relations[relation_degrees.index(INHOMOGENEOUS)])
    default_cutoff = max_degree is None
    if default_cutoff:
        max_degree = max(0, sum(relation_degrees) - sum(degrees)) + 2
    monomials = _monomials_by_degree(symbols, degrees, max_degree)
    dims = []
    for d in range(max_degree + 1):
        basis = monomials[d]
        index = {key: pos for pos, key in enumerate(basis)}
        rows = (
            {
                index[gens]: c
                for (_ue, gens), c in mul({(0, mono_key): Fraction(1)}, rel).items()
            }
            for rel, s in zip(relations, relation_degrees)
            if s <= d
            for mono_key in monomials[d - s]
        )
        dims.append(len(basis) - _sparse_rank(rows))
    if default_cutoff and any(dims[-2:]):
        raise OracleTruncated(tuple(dims))
    return make_series(dims)


def presentation_dimension(presentation: GradedPresentation) -> int:
    """Total dimension computed by the oracle with the default cutoff."""
    return graded_dimensions_from_presentation(presentation).dimension()
