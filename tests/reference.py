"""Reference routes the tests check the package against.

Each is the plain form of something the package computes another way: ring
operations on ``MPoly`` dicts (constructors, sums, products, scaling and the
``u`` derivative, which the package takes on packed codes or on single
terms), determinants by permutations and by memoized Laplace expansion on
those operations (the package packs its rows into integer codes), the value
of a constant polynomial, the canonical term order as a
tuple key, one Vandermonde coefficient taken pair by pair over the whole
padded beta-set, and the JSON terms of a packed relation as one dict per
term.  The package itself uses none of them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from cherednik_centre import CellOutOfDiagram, beta_set, hook_length, weight
from cherednik_centre.polyring import GenSym, Monomial, MPoly, PackedPolys, generator_name

ONE_MONO: Monomial = (0, ())


def const(value) -> MPoly:
    value = Fraction(value)
    return {ONE_MONO: value} if value else {}


def u_power(k: int = 1) -> MPoly:
    return {(k, ()): Fraction(1)}


def gen(symbol: GenSym, exponent: int = 1) -> MPoly:
    if exponent == 0:
        return const(1)
    return {(0, ((symbol, exponent),)): Fraction(1)}


def monomial(u_exp: int, factors: dict[GenSym, int], coeff=1) -> MPoly:
    coeff = Fraction(coeff)
    if not coeff:
        return {}
    vec = tuple(sorted((s, e) for s, e in factors.items() if e))
    return {(u_exp, vec): coeff}


def scale(p: MPoly, value) -> MPoly:
    value = Fraction(value)
    if not value:
        return {}
    return {mono: c * value for mono, c in p.items()}


def monomial_product(a: Monomial, b: Monomial) -> Monomial:
    """The product of two monomials, generator factors sorted."""
    exps: dict[GenSym, int] = dict(a[1])
    for s, e in b[1]:
        exps[s] = exps.get(s, 0) + e
    return (a[0] + b[0], tuple(sorted(exps.items())))


def mul(p: MPoly, q: MPoly) -> MPoly:
    out: MPoly = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            mono = monomial_product(ma, mb)
            s = out.get(mono, Fraction(0)) + ca * cb
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def d_du(p: MPoly) -> MPoly:
    """Formal derivative in ``u``; generator symbols are constants."""
    return {(ue - 1, gens): c * ue for (ue, gens), c in p.items() if ue}


def add(p: MPoly, q: MPoly) -> MPoly:
    out = dict(p)
    for mono, c in q.items():
        s = out.get(mono, Fraction(0)) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def neg(p: MPoly) -> MPoly:
    return {mono: -c for mono, c in p.items()}


def sub(p: MPoly, q: MPoly) -> MPoly:
    return add(p, neg(q))


def det_by_permutations(matrix) -> MPoly:
    """The determinant as the signed sum over all permutations."""
    n = len(matrix)
    acc = {}
    for perm in itertools.permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        term = const(sign)
        for row in range(n):
            term = mul(term, matrix[row][perm[row]])
        acc = add(acc, term)
    return acc


def det_by_laplace_memo(matrix) -> MPoly:
    """The determinant by Laplace expansion along rows from the top,
    memoized over the tuple of unused columns (``2^n * n`` polynomial
    multiplications on ``Fraction`` coefficients)."""
    n = len(matrix)
    memo = {}

    def expand(cols_left):
        if not cols_left:
            return const(1)
        cached = memo.get(cols_left)
        if cached is not None:
            return cached
        row = n - len(cols_left)
        acc = {}
        for idx, col in enumerate(cols_left):
            entry = matrix[row][col]
            if not entry:
                continue
            term = mul(entry, expand(cols_left[:idx] + cols_left[idx + 1 :]))
            acc = add(acc, term if idx % 2 == 0 else neg(term))
        memo[cols_left] = acc
        return acc

    return expand(tuple(range(n)))


def constant_value(p: MPoly) -> Fraction:
    """The value of a constant polynomial (raises on non-constant input)."""
    if not p:
        return Fraction(0)
    if set(p) != {ONE_MONO}:
        raise ValueError("polynomial is not constant")
    return p[ONE_MONO]


def coefficient_of_u(p: MPoly, k: int) -> MPoly:
    """The coefficient of ``u^k`` as a polynomial in the generators alone."""
    return {(0, gens): c for (ue, gens), c in p.items() if ue == k}


def term_sort_key(mono: Monomial):
    """Graded lex, ``u`` greatest, generators by ``(row, degree)``: the
    canonical term order, which ``PackedPolys`` reproduces on packed codes."""
    ue, gens = mono
    degree = ue
    for s, e in gens:
        degree += s.degree * e
    return (-degree, -ue, gens)


def vandermonde_coefficient(lam, m) -> Fraction:
    """The exact coefficient of the transversal monomial ``m`` (see the
    ``presentation`` module docstring)."""
    n = weight(lam)
    exponents = list(beta_set(lam, n))
    for i, j in m.cells:
        if not (1 <= i <= len(lam) and 1 <= j <= lam[i - 1]):
            raise CellOutOfDiagram((lam, (i, j)))
        exponents[i - 1] -= hook_length(lam, (i, j))
    product = 1
    for a in range(n):
        for b in range(a + 1, n):
            product *= exponents[a] - exponents[b]
    return Fraction(product)


def json_terms(packed: PackedPolys, index: int, prefix: str = "f") -> list[dict]:
    """Polynomial ``index`` as ``{"coefficient": "-3/5", "monomial": [names
    repeated by exponent]}`` per term (``u`` is not named)."""
    terms = []
    for code, num, den, _ue, _names in packed._terms(index, prefix, False):
        _ue, gens = packed.radix.decode(code)
        terms.append({
            "coefficient": str(num) if den == 1 else f"{num}/{den}",
            "monomial": [generator_name(s, prefix) for s, e in gens for _ in range(e)],
        })
    return terms
