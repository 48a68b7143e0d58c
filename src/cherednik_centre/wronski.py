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
in :mod:`cherednik_centre.presentation` must reproduce it code for code, the
two routes' relations being packed on one codec.

The determinant is taken along the columns, since ``det M = det M^T``: each
column of the matrix is one basis polynomial followed by its derivatives, so
:func:`_column_sweep` builds that chain on packed codes, the ``k``-th
derivative carrying the row bit ``1 << k``, until the ``(n-1)``-th or the
first zero one, and hands the columns to the Laplace sweep
:func:`~.polyring._laplace` as the rows of ``M^T``.  The sweep starts from
the last, the lowest-degree polynomial, which has the fewest terms and
non-zero derivatives, so the minors it carries stay small: over the
partitions of 9 to 11 it makes about 0.6 times the term products of the
sweep over the derivative rows.  Each digit's base is one more than
the sum over the columns of its largest exponent there: a determinant term
takes one entry per column and differentiating never raises an exponent, so
no digit carries.  :func:`_packed_columns` packs the Schubert basis on the
cells and codec of the direct route's :func:`~.presentation._hook_rows`,
where no product carries either; :func:`schubert_basis` decodes it and
:func:`_packed_wronskian` sweeps it.  The cells are all the two routes
share: the relations come from the determinant, never the transversals.
:func:`wronski_relations` splits
the relations off that determinant by its ``u`` digit, each the
determinant's int coefficients on the direct route's codes, as a
:class:`~.polyring.PackedPolys` with lead 1; the ``wronskian`` command
renders it whole.  :func:`wronskian` packs an arbitrary basis by
:meth:`~.polyring.Radix.summed` and :meth:`~.polyring.Radix.pack`, each
column scaled to int coefficients, and divides the product of the scales
out; it is the checkers' route.

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
from typing import Collection, Sequence

from .errors import EmptyPartition, InexactDivision
from .partitions import Partition, _beta_set, make_partition
from .polyring import MPoly, PackedPoly, PackedPolys, Radix, _laplace
from .presentation import _hook_rows


@dataclass(frozen=True)
class SchubertBasis:
    """``source`` is the partition padded with zeros to ``n`` entries."""

    source: tuple[int, ...]
    polys: tuple[MPoly, ...]


@dataclass(frozen=True)
class WronskiRelations:
    """Leading ``u^n`` coefficient plus the relations ``r_1 ... r_n``, packed
    on the codec of :func:`~.presentation.direct_presentation` with lead 1
    each, so the two routes' relations compare code for code."""

    leading: int
    relations: PackedPolys


def schubert_basis(lam: Partition) -> SchubertBasis:
    """The basis of the module docstring, every coefficient the int 1;
    :class:`NegativePart` or :class:`NotWeaklyDecreasing` on a non-partition."""
    lam = make_partition(lam)
    codec, columns = _packed_columns(lam)
    polys = tuple({codec.decode(code): c for code, c in column} for column in columns)
    return SchubertBasis(lam + (0,) * (len(columns) - len(lam)), polys)


def _packed_columns(lam: Partition) -> tuple[Radix, list[list[tuple[int, int]]]]:
    """The codec of :func:`~.presentation.direct_presentation` for a
    validated ``lam`` and on it, per entry ``d_i`` of the beta-set padded to
    ``n``, the column ``u^{d_i}`` plus ``u^g f_{i,h}`` for each cell ``(g,
    h, f_{i,h})`` of row ``i``, each term ``(code, 1)``: the codec's symbols
    are the rows' cells, each row reversed, so their places come in turn.

    A column holds only its own row's symbols, each term at most one, and
    gives one term to each product, so every symbol digit of a determinant
    term is 0 or 1, below its base of at least 2.  The ``u`` exponents reach
    ``sum(d_i)``, past the codec's ``u`` base ``n + 1``, but ``u`` is the
    most significant digit, whose base sets no place value: the places are
    those of a ``u`` digit of base ``1 + sum(d_i)`` above the same symbol
    digits.  The determinant, homogeneous of weight ``n``, has ``u``
    exponents up to ``n`` only, so its codes are the codec's own."""
    beta = _beta_set(lam, sum(lam))
    rows, codec = _hook_rows(beta, 1)
    u_place = codec.places[0]
    places = iter(codec.places[1:])
    columns = [[(d * u_place, 1)] for d in beta]
    for column, row in zip(columns, rows):
        column += [(g * u_place + next(places), 1) for g, _h, _sym in reversed(row)]
    return codec, columns


def _column_sweep(columns: Sequence[Collection[tuple[int, int]]], u_place: int) -> PackedPoly:
    """The Wronskian of packed ``columns``, each its ``(code, int
    coefficient)`` terms with ``u`` at place ``u_place``, no sum of one code
    per column carrying: each column's derivative chain, row bit ``1 << k``
    on the ``k``-th derivative, is one row of ``M^T`` for :func:`_laplace`."""
    n = len(columns)
    rows = []
    for terms in columns:
        chain = []
        for k in range(n):
            if k:
                terms = [(code - u_place, c * (code // u_place))
                         for code, c in terms if code >= u_place]
            if not terms:
                break
            chain.append((1 << k, terms))
        rows.append(chain)
    return _laplace(rows, n)


def wronskian(basis: SchubertBasis) -> MPoly:
    """The Wronskian of ``basis.polys``, with int coefficients if theirs are integral."""
    if not basis.polys:
        raise EmptyPartition("the Wronskian needs at least one polynomial")
    radix = Radix.summed([p] for p in basis.polys)
    columns, scales = radix.pack(basis.polys)
    det = _column_sweep([p.items() for p in columns], radix.places[0])
    denominator = math.prod(scales)
    if denominator > 1:
        det = {code: Fraction(c, denominator) for code, c in det.items()}
    return {radix.decode(code): c for code, c in det.items()}


def _packed_wronskian(lam: Partition) -> tuple[Radix, PackedPoly]:
    """The codec and the Wronskian of ``lam``'s basis, swept off
    :func:`_packed_columns` with no ``MPoly`` built: ``{0: 1}`` for ``()``,
    and the errors of :func:`schubert_basis` on a non-partition."""
    codec, columns = _packed_columns(make_partition(lam))
    return codec, _column_sweep(columns, codec.places[0])


def wronski_relations(lam: Partition) -> WronskiRelations:
    """The leading coefficient and ``r_1 ... r_n`` for ``lam``, split off
    :func:`_packed_wronskian` by ``u`` digit: each relation is kept on the
    code below ``u``, the direct route's code, with lead 1.  Leading 1 (the
    empty determinant) and an empty :class:`PackedPolys` for ``()``."""
    codec, det = _packed_wronskian(lam)
    n = codec.bases[0] - 1
    u_place = codec.places[0]
    relations: list[PackedPoly] = [{} for _ in range(n)]
    leading = det.pop(n * u_place, 0)
    for code, c in det.items():
        ue, rest = divmod(code, u_place)
        relations[n - 1 - ue][rest] = c
    return WronskiRelations(leading, PackedPolys(codec, relations, (1,) * n))


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
