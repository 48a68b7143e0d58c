"""Schubert-cell bases and their symbolic Wronskians.

For a partition ``lam`` of ``n`` with beta-set ``d_1 > ... > d_n`` (padded to
``n`` parts), the basis consists of the ``n`` polynomials

    f_i(u) = u^{d_i} + sum_{j in row_hook_set(lam, i)} f_{i,j} u^{d_i - j}

— monic of degree ``d_i``, homogeneous of weighted degree ``d_i``, with free
coefficients exactly at the exponents missing from the beta-set.  Their
Wronskian

    Wr(f_1, ..., f_n) = det( d^k/du^k f_i )_{k=0..n-1, i=1..n}

is homogeneous of weighted degree ``n``; writing it as
``c*u^n + r_1 u^{n-1} + ... + r_n`` gives the graded relations ``r_s`` (the
coefficients are kept exactly as the determinant produces them — nothing is
rescaled).  This module is the oracle route; the combinatorial construction
in :mod:`cherednik_centre.presentation` must reproduce it coefficient by
coefficient.

``wronskian_recursive`` is a second, independent evaluation route for bases
of single-term polynomials, via the identity

    Wr(f_1, ..., f_n) = f_1^n * Wr((f_2/f_1)', ..., (f_n/f_1)')

valid with the inputs ordered by increasing degree.  Against the determinant
(columns ordered by decreasing degree) it differs by the column-reversal sign
``(-1)^{n(n-1)/2}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import EmptyPartition
from .partitions import Partition, beta_set, row_hook_set, weight
from .polyring import (
    GenSym,
    MPoly,
    const,
    constant_value,
    d_du,
    determinant,
    divide_exact,
    mul,
)


@dataclass(frozen=True)
class SchubertBasis:
    """``source`` is the partition padded with zeros to ``n`` entries."""

    source: tuple[int, ...]
    polys: tuple[MPoly, ...]


@dataclass(frozen=True)
class WronskiRelations:
    """Leading ``u^n`` coefficient plus the relations ``r_1 ... r_n``."""

    leading: Fraction
    relations: tuple[MPoly, ...]


def schubert_basis(lam: Partition) -> SchubertBasis:
    """The basis of the module docstring, every coefficient the int 1, so
    that the derivative rows of :func:`wronskian` hold ints."""
    n = weight(lam)
    if n == 0:
        return SchubertBasis((), ())
    beta = beta_set(lam, n)
    polys = []
    for i in range(1, n + 1):
        d_i = beta[i - 1]
        poly: MPoly = {(d_i, ()): 1}
        for j in row_hook_set(lam, i):
            poly[(d_i - j, ((GenSym(i, j), 1),))] = 1
        polys.append(poly)
    return SchubertBasis(lam + (0,) * (n - len(lam)), tuple(polys))


def wronskian(basis: SchubertBasis) -> MPoly:
    if not basis.polys:
        raise EmptyPartition("the Wronskian needs at least one polynomial")
    rows = [list(basis.polys)]
    for _ in range(len(basis.polys) - 1):
        rows.append([d_du(entry) for entry in rows[-1]])
    return determinant(rows)


def wronski_relations(lam: Partition) -> WronskiRelations:
    """Extract the leading coefficient and ``r_1 ... r_n`` for ``lam``, in
    one pass over the Wronskian's terms, split by ``u``-exponent.

    The empty partition yields leading 1 and no relations (base field).
    """
    n = weight(lam)
    if n == 0:
        return WronskiRelations(Fraction(1), ())
    by_u_exponent: dict[int, MPoly] = {}
    for (ue, gens), c in wronskian(schubert_basis(lam)).items():
        by_u_exponent.setdefault(ue, {})[(0, gens)] = c
    leading = constant_value(by_u_exponent.get(n, {}))
    relations = tuple(by_u_exponent.get(n - s, {}) for s in range(1, n + 1))
    return WronskiRelations(leading, relations)


def wronskian_recursive(polys: Sequence[MPoly]) -> MPoly:
    """Oracle-only recursive Wronskian for single-term bases.

    Inputs must have pairwise-distinct ``u``-degrees in increasing order;
    each ``f_j / f_1`` must divide exactly (:class:`InexactDivision`
    otherwise — multi-term inputs are deliberately unsupported).
    """
    if not polys:
        return const(1)
    if len(polys) == 1:
        return dict(polys[0])
    head = polys[0]
    reduced = [d_du(divide_exact(p, head)) for p in polys[1:]]
    inner = wronskian_recursive(reduced)
    power = const(1)
    for _ in range(len(polys)):
        power = mul(power, head)
    return mul(power, inner)
