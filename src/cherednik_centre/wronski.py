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

The basis is packed once (:class:`~.polyring.Radix`), each column scaled by
:meth:`~.polyring.Radix.pack` to int coefficients, and each digit's base is
one more than the sum over the columns of its largest exponent there: a
determinant term takes one entry per column and differentiating never raises
an exponent, so no digit carries (a Schubert basis gives every symbol digit
base 2).  Row ``k + 1`` differentiates row ``k`` on the codes, the rows go
through the Laplace sweep :func:`~.polyring._laplace`, the product of the
column scales is divided out, and the relations are split off the result by
its ``u`` digit, with int coefficients.

``wronskian_recursive`` is a second, independent evaluation route for bases
of single-term polynomials, via the identity

    Wr(f_1, ..., f_n) = f_1^n * Wr((f_2/f_1)', ..., (f_n/f_1)')

valid with the inputs ordered by increasing degree.  The Wronskian is linear
in each entry, so the route takes every coefficient out first and recurses
on monic terms, each a ``u`` exponent and generator exponents: dividing by
the head subtracts its exponents, ``f_1^n`` adds ``n`` times them, and
differentiating lowers the ``u`` exponent by one and takes the old exponent
out as one more factor of the coefficient.  Nothing is divided, so the
coefficient is an int for int inputs and a ``Fraction`` otherwise.  Against
the determinant (columns ordered by decreasing degree) it differs by the
column-reversal sign ``(-1)^{n(n-1)/2}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import EmptyPartition, InexactDivision
from .partitions import Partition, beta_set, make_partition
from .polyring import GenSym, MPoly, Radix, _laplace


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
    """The basis of the module docstring, every coefficient the int 1;
    :class:`NegativePart` or :class:`NotWeaklyDecreasing` on a non-partition."""
    lam = make_partition(lam)
    n = sum(lam)
    if n == 0:
        return SchubertBasis((), ())
    beta = beta_set(lam, n)
    # every row's hook set off the one beta-set, as row_hook_set reads it
    occupied = set(beta)
    polys = []
    for i, d_i in enumerate(beta, start=1):
        poly: MPoly = {(d_i, ()): 1}
        for j in range(1, d_i + 1):
            if d_i - j not in occupied:
                poly[(d_i - j, ((GenSym(i, j), 1),))] = 1
        polys.append(poly)
    return SchubertBasis(lam + (0,) * (n - len(lam)), tuple(polys))


def _packed_wronskian(polys: Sequence[MPoly]) -> tuple[Radix, dict[int, int], int]:
    """The codec, the packed Wronskian times ``denominator``, and that."""
    radix = Radix.summed([p] for p in polys)
    u_place = radix.places[0]
    columns, scales = radix.pack(polys)
    # Each row differentiates the one above; a column, once zero, is dropped.
    rows = [[(1 << col, p.items()) for col, p in enumerate(columns) if p]]
    for _ in polys[1:]:
        rows.append([
            (bit, derived) for bit, terms in rows[-1]
            if (derived := [(code - u_place, c * (code // u_place))
                            for code, c in terms if code >= u_place])
        ])
    return radix, _laplace(rows, len(polys)), math.prod(scales)


def wronskian(basis: SchubertBasis) -> MPoly:
    """The Wronskian of ``basis.polys``, with int coefficients if theirs are integral."""
    if not basis.polys:
        raise EmptyPartition("the Wronskian needs at least one polynomial")
    radix, det, denominator = _packed_wronskian(basis.polys)
    if denominator > 1:
        det = {code: Fraction(c, denominator) for code, c in det.items()}
    return {radix.decode(code): c for code, c in det.items()}


def wronski_relations(lam: Partition) -> WronskiRelations:
    """The leading coefficient and ``r_1 ... r_n`` for ``lam``, split off the
    packed Wronskian by ``u`` digit; leading 1 and no relations for ``()``,
    and the errors of :func:`schubert_basis` on a non-partition."""
    lam = make_partition(lam)
    n = sum(lam)
    if n == 0:
        return WronskiRelations(Fraction(1), ())
    # The basis has int coefficients, so the denominator is 1.
    radix, det, _ = _packed_wronskian(schubert_basis(lam).polys)
    u_place, decode = radix.places[0], radix.decode
    relations: list[MPoly] = [{} for _ in range(n)]
    leading = Fraction(det.pop(n * u_place, 0))
    for code, c in det.items():
        ue, rest = divmod(code, u_place)
        relations[n - 1 - ue][decode(rest)] = c
    return WronskiRelations(leading, tuple(relations))


def wronskian_recursive(polys: Sequence[MPoly]) -> MPoly:
    """Oracle-only recursive Wronskian for single-term bases, by the identity
    of the module docstring on monic terms, (``u`` exponent, generator
    exponents) pairs; the coefficient is the product of the inputs' and of
    every derivative's exponent.

    Inputs must have increasing ``u``-degrees, and each ``f_j / f_1`` must
    divide exactly at every step; :class:`InexactDivision` otherwise, and for
    any entry that is not one term.  A repeated degree gives a zero
    derivative, so the Wronskian ``{}``.
    """
    coeff, terms = 1, []
    for p in polys:
        if len(p) != 1:
            raise InexactDivision("the recursive route takes one term per entry")
        ((ue, gens), c), = p.items()
        coeff *= c
        terms.append((ue, dict(gens)))
    u_exp, exps = 0, {}
    while terms:
        n = len(terms)
        (head_u, head_exps), rest = terms[0], terms[1:]
        u_exp += n * head_u
        for s, e in head_exps.items():
            exps[s] = exps.get(s, 0) + n * e
        terms = []
        for ue, x in rest:
            if ue < head_u or any(x.get(s, 0) < e for s, e in head_exps.items()):
                raise InexactDivision("the head does not divide a later entry")
            coeff *= ue - head_u
            terms.append((ue - head_u - 1, {s: e - head_exps.get(s, 0) for s, e in x.items()}))
        if not coeff:
            return {}
    return {(u_exp, tuple(sorted((s, e) for s, e in exps.items() if e))): coeff}
