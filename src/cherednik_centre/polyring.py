"""Exact sparse polynomials in ``u`` and graded generator symbols ``f_{i,j}``.

Coefficients are exact, ints or ``Fraction`` values; there is no floating
point anywhere in the package.  A polynomial is a dict mapping monomials to
non-zero coefficients, where a monomial is

    (u_exponent, ((GenSym(row, degree), exponent), ...))

with the generator factors sorted by symbol and all exponents positive.  The
zero polynomial is the empty dict.  Callers build polynomials as dict
literals; this module does no ``MPoly`` arithmetic: products and
derivatives run on packed codes (below), and the recursive Wronskian of
:mod:`.wronski` on single terms.

Relations and the hot loops pack each monomial into one int in mixed radix,
through one codec, :class:`Radix`, and keep each coefficient as an int.
:meth:`Radix.pack` is the one place where a ``Fraction`` becomes an int: it
scales each polynomial by the lcm of its denominators and reports that
scale, which the determinant and the Wronskian divide out and
:class:`PackedPolys` keeps as the lead.  The ``u`` digit is the most
significant, then one digit per symbol in the caller's order, so codes
ascend in lexicographic order of the exponent vectors; each digit's base
exceeds every exponent it will hold, so multiplying monomials is adding
codes.  :class:`PackedPolys` sizes the digits by weighted degree
(:meth:`Radix.by_degree`), ``determinant`` and
:func:`~.wronski.wronskian` by exponents summed over rows or columns
(:meth:`Radix.summed`); :func:`~.wronski.wronski_relations` sweeps on the
direct route's ``by_degree`` codec, whose most significant digit, ``u``,
takes the sweep's larger exponents with no carry, so its relations, and
the terms the ``wronskian`` command prints, land on that codec's codes.
Two :class:`PackedPolys` on equal codecs with equal explicit leads compare
code for code.  :func:`format_poly` packs an ``MPoly`` first.

Grading: ``deg u = 1`` and ``deg f_{i,j} = j``; a polynomial all of whose
monomials share the same weighted degree is homogeneous.
:func:`weighted_degree` returns that degree and raises
:class:`~cherednik_centre.errors.InhomogeneousRelation` on any other
non-zero polynomial.

The canonical term order (used for printing and for picking leading terms)
sorts monomials by ``(-degree, -u exponent, factors)``.  :class:`PackedPolys`
renders in that order, as text or canonical JSON: it reads each term's sort
key and names in one pass over its non-zero digits (:meth:`Radix.ordered`),
each factor's names joined once per codec, sorts the terms by that int key,
and writes each coefficient ``c / lead`` reduced by one ``math.gcd``.  The
key reads each symbol digit of the code as present or absent, which orders
the factors because every symbol weighs at least 1.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from .errors import InhomogeneousRelation, NegativeDegreeGenerator, NonSquare, ZeroPolynomial


class GenSym(NamedTuple):
    """The symbol ``f_{row, degree}``; its weighted degree is ``degree``."""

    row: int
    degree: int


GenVec = tuple[tuple[GenSym, int], ...]
Monomial = tuple[int, GenVec]
MPoly = dict[Monomial, Fraction]


# A polynomial in packed codes: monomial code -> int coefficient.
PackedPoly = dict[int, int]


def primitive_part(p: PackedPoly) -> PackedPoly:
    """The primitive multiple of a non-zero ``p`` with int coefficients: its
    coefficients over their gcd, same codes in the same order, same signs;
    ``p`` itself if it is already primitive."""
    content = math.gcd(*p.values())
    if content == 1:
        return p
    return {mono: c // content for mono, c in p.items()}


class Radix:
    """The packed-monomial codec of the module docstring.

    ``bases[0]`` is the base of the ``u`` digit and ``bases[k]`` that of
    ``symbols[k - 1]``; ``places`` holds the place values in that order.
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
        self.place_of = dict(self._symbol_places)
        self._tables: dict[tuple[str, bool, str], tuple] = {}

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

    def encode_poly(self, p: MPoly) -> PackedPoly:
        """``p`` with each monomial replaced by its code, in one pass with
        the places summed inline: a comprehension per term would cost a call
        per term, which doubles the time."""
        u_place, place_of = self.places[0], self.place_of
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

    def degree(self, code: int) -> int:
        """The weighted degree of the monomial of ``code``."""
        return monomial_degree(self.decode(code))

    def table(self, prefix: str, text: bool, pad: str = "\n") -> tuple:
        """What :meth:`ordered` reads, for names under ``prefix`` in text
        (``f1,2^3``) or JSON (``"f1,2"`` e times) form, pre-joined; built once
        per ``(prefix, text, pad)``.  JSON names are joined by ``","``, ``pad``
        and six spaces, for a relation closing after ``pad`` (:meth:`PackedPolys.json_text`).
        ``e * place`` for every symbol digit and ``e > 0`` ascend together, so
        one bisection finds a code's leading factor, whose cell holds its gain
        in the key, its names bare and its names behind a separator."""
        found = self._tables.get((prefix, text, pad))
        if found is None:
            sep = "*" if text else "," + pad + "      "
            per_degree = -self.bases[0] * self.places[0]
            thresholds, cells = [], []
            for s, base, place in zip(self.symbols[::-1], self.bases[:0:-1], self.places[:0:-1]):
                name = generator_name(s, prefix)
                if not text:
                    name = _quote(name)
                step = s.degree * per_degree
                # exponent e's cell: gain e * step - base * place, names e times
                gain, names, joined = step - base * place, name, sep + name
                for e in range(1, base):
                    thresholds.append(e * place)
                    cells.append((gain, names, sep + names))
                    gain += step
                    names = f"{name}^{e + 1}" if text else names + joined
            u_step = per_degree - self.places[0]
            found = self._tables[prefix, text, pad] = (thresholds, cells, u_step)
        return found

    def ordered(self, codes, table: tuple) -> list[tuple[int, int, int, str]]:
        """``(key, code, u exponent, joined names)`` per code, ascending in
        the canonical order of the monomials; the codec's symbols are sorted
        and weigh at least 1 (:meth:`by_degree`).

        The key is ``-(degree * bases[0] + ue) * places[0] + T``: ``T`` reads
        the code's own symbol digits, ``e - b`` for an exponent ``e > 0`` in a
        digit of base ``b`` and ``0`` for an absent factor, so it lies in
        ``(-places[0], 0]``.  Two states suffice: at equal degree and ``u``
        exponent neither factor tuple is a proper prefix of the other, as the
        longer would carry an extra factor of positive weight; where two first
        differ, the smaller exponent comes first and an absent factor last.
        Summed per factor, it is ``ue * u_step + rest`` (``rest`` the code below
        ``u``) plus each factor's gain ``-e * degree * bases[0] * places[0] - b * place``.
        """
        thresholds, cells, u_step = table
        u_place = self.places[0]
        rows = []
        for code in codes:
            ue, rest = divmod(code, u_place)
            key, names = ue * u_step + rest, ""
            while rest:
                i = bisect_right(thresholds, rest) - 1
                rest -= thresholds[i]
                gain, bare, joined = cells[i]
                key += gain
                names = names + joined if names else bare
            rows.append((key, code, ue, names))
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

    Laplace expansion along the rows it is given, last first; the Wronskian
    passes ``M^T``, its lowest-degree column last.  Level ``k`` maps the
    column bitmask of each non-zero minor on the last ``k`` rows to that
    minor, and level ``k + 1`` is built from it by expanding along the new
    top row; a minor is filtered only where one of its sums cancelled to
    zero, and zero minors are never stored.  The work is one term product per pair of terms
    in a stored minor and a non-zero entry of the new row outside its
    columns: a dense matrix still needs ``2^(n-1) * n`` polynomial products,
    but a sparse one such as a Schubert-cell Wronskian needs far fewer,
    because most of its minors vanish.
    """
    level: dict[int, dict[int, int]] = {0: {0: 1}}
    for packed in reversed(rows):
        expanded: dict[int, dict[int, int]] = {}
        for used, minor in level.items():
            minor_terms = minor.items()
            for bit, terms in packed:
                if used & bit:
                    continue
                target = expanded.setdefault(used | bit, {})
                get = target.get
                odd = (used & (bit - 1)).bit_count() & 1
                for code, coeff in terms:
                    if odd:
                        coeff = -coeff
                    for m, c in minor_terms:
                        key = code + m
                        target[key] = get(key, 0) + coeff * c
        level = {}
        for used, minor in expanded.items():
            # only a sum that cancelled leaves a zero
            if 0 in minor.values():
                minor = {code: c for code, c in minor.items() if c}
                if not minor:
                    continue
            level[used] = minor
    return level.get((1 << n) - 1, {})


# ---------------------------------------------------------------------------
# rendering


def generator_name(symbol: GenSym, prefix: str = "f") -> str:
    """The printed name of a generator, e.g. ``f2,1`` for ``GenSym(2, 1)``."""
    return f"{prefix}{symbol.row},{symbol.degree}"


class PackedPolys:
    """Polynomials ``polys[k] / leads[k]``: int coefficients on the codes of
    one :class:`Radix` over sorted symbols, and a non-zero int lead each;
    with no ``leads``, each polynomial's lead is the coefficient of its
    first term in canonical order (a monic view).

    It reads as the tuple of those polynomials with ``Fraction``
    coefficients, decoded on first read.  :meth:`text` and :meth:`json_text`
    render from the codes, each coefficient the reduced ``c / lead``.
    """

    def __init__(
        self, radix: Radix, polys: Sequence[PackedPoly], leads: Sequence[int] | None = None
    ):
        self.radix = radix
        self.polys = tuple(polys)
        self.leads = None if leads is None else tuple(leads)
        self._decoded: tuple[MPoly, ...] | None = None

    @classmethod
    def from_polys(cls, polys: Sequence[MPoly]) -> PackedPolys:
        """``polys`` packed by :meth:`Radix.pack`, each lead the scale it
        reports, on :meth:`Radix.by_degree` over their sorted symbols up to
        their largest monomial degree; a symbol of weight below 1 raises
        :class:`~cherednik_centre.errors.NegativeDegreeGenerator`."""
        symbols = sorted({s for p in polys for _ue, gens in p for s, _e in gens})
        weightless = tuple(s for s in symbols if s.degree < 1)
        if weightless:
            raise NegativeDegreeGenerator(weightless)
        top = max((monomial_degree(mono) for p in polys for mono in p), default=0)
        radix = Radix.by_degree(symbols, top)
        return cls(radix, *radix.pack(polys))

    def _terms(self, index: int, prefix: str = "f", text: bool = False, pad: str = "\n") -> tuple:
        """``p``, its :meth:`Radix.ordered` rows, its lead and the lead's sign:
        ``c / lead`` in lowest terms, the denominator positive, is ``c // g``
        over ``lead // g`` for ``g = gcd(c, lead) * sign``."""
        p = self.polys[index]
        rows = self.radix.ordered(p, self.radix.table(prefix, text, pad))
        lead = self.leads[index] if self.leads else p[rows[0][1]] if rows else 1
        return p, rows, lead, -1 if lead < 0 else 1

    def text(self, index: int, prefix: str = "f") -> str:
        """Polynomial ``index`` as text, e.g. ``u^2 - 2*f2,1*u + 3/5*f1,2``."""
        p, rows, lead, sign = self._terms(index, prefix, True)
        gcd, pieces = math.gcd, []
        for _key, code, ue, named in rows:
            c = p[code]
            g = gcd(c, lead) * sign
            num, den = c // g, lead // g
            sign_text = "-" if num < 0 else "+"
            num = abs(num)
            if ue:
                u = "u" if ue == 1 else f"u^{ue}"
                named = f"{named}*{u}" if named else u
            if den != 1:
                body = f"{num}/{den}*{named}" if named else f"{num}/{den}"
            elif num == 1 and named:
                body = named
            else:
                body = f"{num}*{named}" if named else str(num)
            pieces.append(f"{sign_text} {body}")
        if not pieces:
            return "0"
        first = pieces[0]
        pieces[0] = first[2:] if first[0] == "+" else "-" + first[2:]
        return " ".join(pieces)

    def json_text(self, index: int, prefix: str = "f", pad: str = "\n") -> str:
        """Polynomial ``index`` as ``json.dumps(..., indent=2, sort_keys=True)``
        writes it, its list of ``{"coefficient": "-3/5", "monomial": [names
        repeated by exponent, then "u" per power of u, as text has f1,1*u]}``
        per term, on a line whose newline and indent are ``pad``: the closing
        bracket follows ``pad``, the default being the top level."""
        p, rows, lead, sign = self._terms(index, prefix, False, pad)
        term = "{" + pad + '    "coefficient": "'
        sep = "," + pad + "      "
        names_head = '",' + pad + '    "monomial": [' + pad + "      "
        names_end = pad + "    ]" + pad + "  }"
        no_names = '",' + pad + '    "monomial": []' + pad + "  }"
        gcd, terms = math.gcd, []
        for _key, code, ue, names in rows:
            c = p[code]
            g = gcd(c, lead) * sign
            den = lead // g
            coefficient = str(c // g) if den == 1 else f"{c // g}/{den}"
            if ue:
                names = (names + ue * (sep + '"u"')).removeprefix(sep)
            tail = names_head + names + names_end if names else no_names
            terms.append(term + coefficient + tail)
        inner = pad + "  "
        return "[" + inner + ("," + inner).join(terms) + pad + "]" if terms else "[]"

    def _values(self) -> tuple[MPoly, ...]:
        if self._decoded is None:
            decode = self.radix.decode
            leads = self.leads or [self._terms(k)[2] for k in range(len(self.polys))]
            self._decoded = tuple(
                {decode(code): Fraction(c, lead) for code, c in p.items()}
                for p, lead in zip(self.polys, leads)
            )
        return self._decoded

    def __getitem__(self, index):
        return self._values()[index]

    def __len__(self) -> int:
        return len(self.polys)

    def __eq__(self, other) -> bool:
        """Code for code on equal codecs (``symbols`` and ``bases``) and equal
        explicit ``leads``; otherwise, and against a tuple, decoded."""
        if (
            isinstance(other, PackedPolys)
            and self.leads is not None
            and self.leads == other.leads
            and self.radix.symbols == other.radix.symbols
            and self.radix.bases == other.radix.bases
        ):
            return self.polys == other.polys
        if isinstance(other, (tuple, PackedPolys)):
            return self._values() == tuple(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PackedPolys({self._values()!r})"


def format_poly(p: MPoly, prefix: str = "f") -> str:
    """Canonical text rendering, e.g. ``u^2 - 2*f2,1*u + 3/5*f1,2``.

    Terms come by falling degree, then falling ``u`` exponent, then factor
    tuple, a smaller exponent first and an absent factor last:

    >>> a, b = GenSym(1, 1), GenSym(2, 1)
    >>> format_poly({(0, ((a, 2),)): 1, (0, ((b, 2),)): 1, (0, ((a, 1), (b, 1))): 1,
    ...              (1, ((b, 1),)): 1, (1, ((a, 1),)): 1, (2, ()): 1, (0, ((a, 1),)): 3})
    'u^2 + f1,1*u + f2,1*u + f1,1*f2,1 + f1,1^2 + f2,1^2 + 3*f1,1'
    """
    return PackedPolys.from_polys((p,)).text(0, prefix)
