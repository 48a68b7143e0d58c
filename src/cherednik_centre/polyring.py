"""Exact sparse polynomials in ``u`` and graded generator symbols ``f_{i,j}``.

Coefficients are exact: Python ints where the values are integral (the
direct and Wronskian relations, the Schubert basis) and ``Fraction`` where
they need not be (``determinant``, the monic view of simplified relations);
there is no floating point anywhere in the package.  A polynomial is a dict
mapping monomials to non-zero coefficients, where a monomial is

    (u_exponent, ((GenSym(row, degree), exponent), ...))

with the generator factors sorted by symbol and all exponents positive.  The
zero polynomial is the empty dict.  Callers build polynomials as dict
literals; this module does no ``MPoly`` arithmetic: products and
derivatives run on packed codes (below), and the recursive Wronskian of
:mod:`.wronski` on single terms.

The hot loops (the Laplace sweep under ``determinant`` and the Wronskian,
``simplify`` and the rank oracle) pack each monomial into one int in mixed
radix, through one codec, :class:`Radix`, and keep each coefficient as an
int.  :meth:`Radix.pack` is the one place where a ``Fraction`` becomes an
int: it scales each polynomial by the lcm of its denominators and reports
that scale, which the determinant and the Wronskian divide out and the
renderers keep as the lead; ``simplify`` and the rank oracle then take the
``primitive_part`` (coefficients with gcd 1) of each packed relation.  The
``u`` digit is the most significant, then one digit per symbol in
the caller's order, so codes ascend in lexicographic order of the exponent
vectors; each digit's base exceeds every exponent it will hold, so
multiplying monomials is adding codes.  ``simplify`` and the oracle size the
digits by weighted degree (:meth:`Radix.by_degree`), ``determinant`` and the
Wronskian by exponents summed over rows or columns (:meth:`Radix.summed`).

Grading: ``deg u = 1`` and ``deg f_{i,j} = j``; a polynomial all of whose
monomials share the same weighted degree is homogeneous.
:func:`weighted_degree` returns that degree and raises
:class:`~cherednik_centre.errors.InhomogeneousRelation` on any other
non-zero polynomial.

The canonical term order (used for printing and for picking leading terms)
sorts monomials by ``(-degree, -u exponent, factors)``.  :class:`PackedPolys`
renders in that order, as text or canonical JSON: it reads each term's sort
key and generator names in one pass over its non-zero digits
(:meth:`Radix.ordered`), sorts the terms by that int key, and writes each
coefficient ``c / lead`` reduced by one ``math.gcd``.  :func:`format_poly`
and :func:`named_terms` pack an ``MPoly`` first.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from .errors import InhomogeneousRelation, NonSquare, ZeroPolynomial


class GenSym(NamedTuple):
    """The symbol ``f_{row, degree}``; its weighted degree is ``degree``."""

    row: int
    degree: int


GenVec = tuple[tuple[GenSym, int], ...]
Monomial = tuple[int, GenVec]
MPoly = dict[Monomial, Fraction]
IntPoly = dict[Monomial, int]


def primitive_part(p: IntPoly | PackedPoly) -> IntPoly | PackedPoly:
    """The primitive multiple of a non-zero ``p`` with int coefficients,
    keyed by monomials or by packed codes: its coefficients over their gcd.
    Same keys in the same order, same signs; ``p`` itself if it is already
    primitive.  :meth:`Radix.pack` makes ``Fraction`` input integral first."""
    content = math.gcd(*p.values())
    if content == 1:
        return p
    return {mono: c // content for mono, c in p.items()}


# A polynomial in packed codes: monomial code -> int coefficient.
PackedPoly = dict[int, int]


class Radix:
    """The packed-monomial codec of the module docstring.

    ``bases[0]`` is the base of the ``u`` digit and ``bases[k]`` that of
    ``symbols[k - 1]``; ``places`` holds the place values in the same order.
    Adding two codes multiplies their monomials as long as no digit reaches
    its base; keeping to the bases is the caller's sizing rule, its own
    bases, :meth:`by_degree` or :meth:`summed`.  :meth:`ordered` reads codes
    back for the renderers.
    """

    def __init__(self, symbols: Sequence[GenSym], bases: Sequence[int]):
        self.symbols = tuple(symbols)
        self.bases = tuple(bases)
        places = [1] * len(self.bases)
        for k in range(len(places) - 2, -1, -1):
            places[k] = places[k + 1] * self.bases[k + 1]
        self.places = tuple(places)
        self._symbol_places = tuple(zip(self.symbols, self.places[1:]))
        self._place_of = dict(self._symbol_places)
        self._tables: dict[tuple[str, bool], tuple] = {}

    @classmethod
    def by_degree(cls, symbols: Sequence[GenSym], max_degree: int) -> Radix:
        """Digits for the monomials of weighted degree at most ``max_degree``:
        ``u`` weighs 1 and a symbol its degree (at least 1), and a digit of
        weight ``w`` has base ``max_degree // w + 1``.  No such monomial, and
        no product of two whose degrees sum to at most ``max_degree``, fills
        a digit to its base."""
        return cls(symbols, [max_degree + 1] + [max_degree // s.degree + 1 for s in symbols])

    @classmethod
    def summed(cls, groups: Iterable[Sequence[MPoly]]) -> Radix:
        """Digits over the sorted symbols of ``groups``, each base one more
        than the sum over the groups of the group's largest exponent in the
        digit: no product of one term per group, or of smaller ones, carries."""
        u_base, bases = 1, {}
        for group in groups:
            # sorted factors: the last exponent kept per symbol is its largest
            top = dict(sorted({factor for entry in group for _, gens in entry for factor in gens}))
            u_base += max((ue for entry in group for ue, _ in entry), default=0)
            for s, e in top.items():
                bases[s] = bases.get(s, 1) + e
        symbols = sorted(bases)
        return cls(symbols, [u_base] + [bases[s] for s in symbols])

    def encode_poly(self, p: IntPoly) -> PackedPoly:
        """``p`` with each monomial replaced by its code, in one pass with
        the places summed inline: a comprehension per term would cost a call
        per term, which doubles the time."""
        u_place, place_of = self.places[0], self._place_of
        out: PackedPoly = {}
        for (ue, gens), c in p.items():
            code = ue * u_place
            for s, e in gens:
                code += place_of[s] * e
            out[code] = c
        return out

    def pack(self, polys: Iterable[MPoly]) -> tuple[list[PackedPoly], list[int]]:
        """Each of ``polys`` encoded with int coefficients, times the lcm of
        its coefficients' denominators, and those scales: 1 for int input,
        which is taken as it is, with no ``Fraction`` attribute read per term."""
        packed, scales = [], []
        for p in polys:
            codes = self.encode_poly(p)
            scale = 1
            if not all(type(c) is int for c in codes.values()):
                scale = math.lcm(*(c.denominator for c in codes.values()))
                codes = {code: c.numerator * (scale // c.denominator) for code, c in codes.items()}
            packed.append(codes)
            scales.append(scale)
        return packed, scales

    def decode(self, code: int) -> Monomial:
        """The monomial of ``code``, its factors in the order of the symbols
        (canonical when they are sorted); stops at the last non-zero digit."""
        ue, code = divmod(code, self.places[0])
        gens = []
        for s, place in self._symbol_places:
            if code >= place:
                e, code = divmod(code, place)
                gens.append((s, e))
                if not code:
                    break
        return ue, tuple(gens)

    def table(self, prefix: str, text: bool) -> tuple:
        """What :meth:`ordered` reads, for names under ``prefix`` in text
        (``f1,2^3``) or JSON (``"f1,2"`` three times) form; built once."""
        found = self._tables.get((prefix, text))
        if found is None:
            bases = self.bases[:0:-1]
            span = math.prod(b + 1 for b in bases)
            key_place, tail, thresholds, cells = 1, 0, [], []
            for s, base, place in zip(self.symbols[::-1], bases, self.places[:0:-1]):
                name = generator_name(s, prefix)
                if not text:
                    name = _quote(name)
                step = key_place - s.degree * self.bases[0] * span
                for e in range(1, base):
                    pieces = [f"{name}^{e}" if e > 1 else name] if text else [name] * e
                    thresholds.append(e * place)
                    cells.append((e * step - base * key_place, pieces, tail))
                tail -= base * key_place
                key_place *= base + 1
            u_step = -(self.bases[0] + 1) * span
            found = self._tables[prefix, text] = (thresholds, cells, tail, u_step)
        return found

    def ordered(self, codes, table: tuple) -> list[tuple[int, int, int, list[str]]]:
        """``(key, code, u exponent, name pieces)`` per code, ascending in
        the canonical order of the monomials.

        The key is ``-(degree * bases[0] + ue) * K + T`` with ``T`` in
        ``(-K, 0]``, a number in the radix ``b + 1`` per symbol digit of base
        ``b`` (``K`` its range) whose digit is ``e - b`` for an exponent
        ``e > 0``, ``0`` for a zero before the last factor and ``-b`` for one
        after it: where two monomials first differ, the smaller exponent
        comes first, an absent factor last and an ended factor tuple first.
        The factors come most significant first: ``e * place`` for every
        digit and exponent ``e > 0`` ascend together, so one bisection finds
        the digit and its exponent, and each cell holds the factor's part of
        the key, its names and the part of the zeros after it.
        """
        thresholds, cells, empty_tail, u_step = table
        u_place = self.places[0]
        rows = []
        for code in codes:
            ue, rest = divmod(code, u_place)
            key = ue * u_step
            factors: list[str] = []
            if rest:
                while rest:
                    i = bisect_right(thresholds, rest) - 1
                    rest -= thresholds[i]
                    gain, pieces, tail = cells[i]
                    key += gain
                    factors += pieces
                key += tail
            else:
                key += empty_tail
            rows.append((key, code, ue, factors))
        rows.sort()
        return rows


def monomial_degree(mono: Monomial) -> int:
    ue, gens = mono
    return ue + sum(s.degree * e for s, e in gens)


def weighted_degree(p: MPoly) -> int:
    """The weighted degree shared by every monomial of ``p``.

    Raises :class:`ZeroPolynomial` on the zero polynomial (no degree) and
    :class:`InhomogeneousRelation`, carrying ``p``, when the monomials of
    ``p`` differ in degree.
    """
    if not p:
        raise ZeroPolynomial("the zero polynomial has no weighted degree")
    degrees = {monomial_degree(mono) for mono in p}
    if len(degrees) == 1:
        return degrees.pop()
    raise InhomogeneousRelation(p)


# ---------------------------------------------------------------------------
# determinants


def determinant(matrix: Sequence[Sequence[MPoly]]) -> MPoly:
    """Exact determinant of a square matrix of polynomials, by
    :func:`_laplace` on its rows packed by :meth:`Radix.summed` and
    :meth:`Radix.pack`.  Each row is scaled once, by the lcm of its entries'
    scales, and the product of those is divided out at the end.  The empty
    matrix has determinant 1.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise NonSquare(tuple(len(row) for row in matrix))
    radix = Radix.summed(matrix)
    denominator = 1
    packed_rows = []
    for row in matrix:
        entries, scales = radix.pack(row)
        row_scale = math.lcm(*scales)
        denominator *= row_scale
        packed_rows.append([
            (1 << col, [(code, c * (row_scale // scale)) for code, c in entry.items()])
            for col, (entry, scale) in enumerate(zip(entries, scales)) if entry
        ])
    full = _laplace(packed_rows, n)
    return {radix.decode(code): Fraction(c, denominator) for code, c in full.items()}


def _laplace(rows, n: int) -> PackedPoly:
    """The determinant of an ``n x n`` matrix given as packed rows, each the
    list of ``(1 << column, [(code, int coefficient), ...])`` of its
    non-zero entries; no sum of codes may carry (:meth:`Radix.summed`).

    Laplace expansion from the bottom row up.  Level ``k`` maps the column
    bitmask of each non-zero minor on the last ``k`` rows to that minor, and
    level ``k + 1`` is built from it by expanding along the new top row; zero
    minors are never stored.  The work is one term product per pair of terms
    in a stored minor and a non-zero entry of the new row outside its
    columns: a dense matrix still needs ``2^(n-1) * n`` polynomial products,
    but a sparse one such as a Schubert-cell Wronskian needs far fewer,
    because most of its minors vanish.
    """
    level: dict[int, dict[int, int]] = {0: {0: 1}}
    for packed in reversed(rows):
        expanded: dict[int, dict[int, int]] = {}
        for used, minor in level.items():
            for bit, terms in packed:
                if used & bit:
                    continue
                target = expanded.setdefault(used | bit, {})
                odd = (used & (bit - 1)).bit_count() & 1
                for code, coeff in terms:
                    if odd:
                        coeff = -coeff
                    for m, c in minor.items():
                        key = code + m
                        target[key] = target.get(key, 0) + coeff * c
        level = {}
        for used, minor in expanded.items():
            minor = {code: c for code, c in minor.items() if c}
            if minor:
                level[used] = minor
    return level.get((1 << n) - 1, {})


# ---------------------------------------------------------------------------
# rendering


def generator_name(symbol: GenSym, prefix: str = "f") -> str:
    """The printed name of a generator, e.g. ``f2,1`` for ``GenSym(2, 1)``."""
    return f"{prefix}{symbol.row},{symbol.degree}"


# The pieces of one term of :meth:`PackedPolys.json_text`.
_JSON_TERM = '{\n    "coefficient": "'
_JSON_NAMES = '",\n    "monomial": [\n      '
_JSON_NAME_SEP = ",\n      "
_JSON_TERM_END = "\n    ]\n  }"
_JSON_NO_NAMES = '",\n    "monomial": []\n  }'


class PackedPolys:
    """Polynomials ``polys[k] / leads[k]``: int coefficients on the codes of
    one :class:`Radix` over sorted symbols, and a non-zero int lead each;
    with no ``leads``, each polynomial's lead is the coefficient of its
    first term in canonical order (a monic view).

    It reads as the tuple of those polynomials with ``Fraction``
    coefficients, decoded on first read.  :meth:`text` and
    :meth:`json_text` render from the codes: each coefficient is the
    reduced ``c / lead``, by one ``math.gcd``.
    """

    def __init__(
        self, radix: Radix, polys: Sequence[PackedPoly], leads: Sequence[int] | None = None
    ):
        self.radix = radix
        self.polys = tuple(polys)
        self.leads = leads
        self._decoded: tuple[MPoly, ...] | None = None

    @classmethod
    def from_polys(cls, polys: Sequence[MPoly]) -> PackedPolys:
        """``polys`` packed by :meth:`Radix.summed` as one group, each
        digit's base one more than the largest exponent it holds, and by
        :meth:`Radix.pack`, each lead the scale it reports."""
        radix = Radix.summed([polys])
        return cls(radix, *radix.pack(polys))

    def _terms(self, index: int, prefix: str, text: bool):
        """``(code, numerator, denominator, u exponent, name pieces)`` per
        term, in canonical order."""
        p = self.polys[index]
        rows = self.radix.ordered(p, self.radix.table(prefix, text))
        lead = self.leads[index] if self.leads else p[rows[0][1]] if rows else 1
        for _key, code, ue, factors in rows:
            c = p[code]
            g = math.gcd(c, lead)
            num, den = c // g, lead // g
            if den < 0:
                num, den = -num, -den
            yield code, num, den, ue, factors

    def text(self, index: int, prefix: str = "f") -> str:
        """Polynomial ``index`` as text, e.g. ``u^2 - 2*f2,1*u + 3/5*f1,2``."""
        pieces: list[str] = []
        for _code, num, den, ue, factors in self._terms(index, prefix, True):
            sign = "-" if num < 0 else "+"
            num = abs(num)
            if ue:
                factors.append("u" if ue == 1 else f"u^{ue}")
            named = "*".join(factors)
            if den != 1:
                body = f"{num}/{den}*{named}" if named else f"{num}/{den}"
            elif num == 1 and named:
                body = named
            else:
                body = f"{num}*{named}" if named else str(num)
            pieces.append(f"{sign} {body}")
        if not pieces:
            return "0"
        first = pieces[0]
        pieces[0] = first[2:] if first[0] == "+" else "-" + first[2:]
        return " ".join(pieces)

    def json_text(self, index: int, prefix: str = "f") -> str:
        """Polynomial ``index`` as ``json.dumps(..., indent=2,
        sort_keys=True)`` writes, at the top level, its list of
        ``{"coefficient": "-3/5", "monomial": [names repeated by
        exponent]}`` per term (``u`` is not named)."""
        terms = []
        for _code, num, den, _ue, names in self._terms(index, prefix, False):
            coefficient = str(num) if den == 1 else f"{num}/{den}"
            if names:
                tail = _JSON_NAMES + _JSON_NAME_SEP.join(names) + _JSON_TERM_END
            else:
                tail = _JSON_NO_NAMES
            terms.append(_JSON_TERM + coefficient + tail)
        return "[\n  " + ",\n  ".join(terms) + "\n]" if terms else "[]"

    def _values(self) -> tuple[MPoly, ...]:
        if self._decoded is None:
            decode = self.radix.decode
            self._decoded = tuple(
                {decode(code): Fraction(n, d) for code, n, d, *_ in self._terms(k, "f", False)}
                for k in range(len(self.polys))
            )
        return self._decoded

    def __getitem__(self, index):
        return self._values()[index]

    def __len__(self) -> int:
        return len(self.polys)

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, PackedPolys)):
            return self._values() == tuple(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PackedPolys({self._values()!r})"


def named_terms(p: MPoly, prefix: str = "f") -> Iterator[tuple[Monomial, list[str]]]:
    """The monomials of ``p`` in canonical order, each with the names of its
    generators repeated by exponent."""
    packed = PackedPolys.from_polys((p,))
    monomial_of = dict(zip(packed.polys[0], p))
    for _key, code, *_ in packed.radix.ordered(monomial_of, packed.radix.table(prefix, True)):
        mono = monomial_of[code]
        yield mono, [generator_name(s, prefix) for s, e in mono[1] for _ in range(e)]


def format_poly(p: MPoly, prefix: str = "f") -> str:
    """Canonical text rendering, e.g. ``u^2 - 2*f2,1*u + 3/5*f1,2``."""
    return PackedPolys.from_polys((p,)).text(0, prefix)
