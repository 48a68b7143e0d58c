"""Reference routes the tests check the package against.

Each is the plain form of something the package computes another way: ring
operations on ``MPoly`` dicts (constructors, sums, products, scaling and the
``u`` derivative, which the package takes on packed codes or on single
terms), determinants by permutations and by memoized Laplace expansion on
those operations (the package packs its rows into integer codes), the value
of a constant polynomial, the hook of a cell by counting the cells right of
it and below it (the package reads a table built off the conjugate), a
presentation's generators filtered from that hook table (the package
reads its cells off the beta-set's gaps), the
canonical term order as a tuple key, one Vandermonde coefficient taken pair
by pair over the whole padded beta-set, the JSON terms of a packed relation
as one dict per term and a presentation's JSON document as dicts around them
(the package writes the text at its depth), and the closed Hilbert series
as one dense product of every factor followed by one long division (the
package multiplies and divides by each two-term factor in place), the rank
oracle that builds and ranks every Macaulay row on exponent vectors (the
package skips the rows the syzygy criterion shows to be redundant, on
packed codes), and the integer ``simplify`` that scans the relations from
the first one again after every elimination and substitutes into every
relation at once (the package makes one pass, substituting into each
relation when it reaches it), and a centre's JSON and text written part by
part, each block's plus and minus parts in full (the CLI writes each
label's part once and renames ``f`` to ``g`` for the minus side).  The
package itself uses none of them.

Also here: the wreath labels the tests sweep, and each one's presentation
and oracle series, built once per label for every test that reads them; and
``json.dumps`` of a value cut at a nesting depth.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Iterable
from dataclasses import replace
from fractions import Fraction

from cherednik_centre import (
    CellOutOfDiagram,
    GradedPresentation,
    HilbertSeries,
    InexactDivision,
    NegativeDegreeGenerator,
    OracleTruncated,
    beta_set,
    cells,
    direct_presentation,
    graded_dimensions_from_presentation,
    make_series,
    multipartitions_of,
    partitions_of,
    simplify,
    weight,
    weighted_degree,
    wreath_presentation,
)
from cherednik_centre.centre import CentrePresentation
from cherednik_centre.cli import ASSUMPTION, _json_value
from cherednik_centre.hilbert import _reduce
from cherednik_centre.partitions import _row_hooks
from cherednik_centre.polyring import (
    GenSym,
    Monomial,
    MPoly,
    PackedPoly,
    PackedPolys,
    Radix,
    generator_name,
    primitive_part,
)
from cherednik_centre.presentation import (
    _json_list,
    _label_json,
    _presentation_json,
    format_label,
    label_document,
    quotient_ring_text,
)

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


def hook_by_counting(lam, i: int, j: int) -> int:
    """The hook of cell ``(i, j)`` of the partition ``lam``, counted: the
    cells right of it in its row, the cells below it in its column, and
    itself.  No conjugate is formed."""
    return (lam[i - 1] - j) + sum(1 for p in lam[i:] if p >= j) + 1


def hook_table_generators(lam, ell: int = 1) -> tuple[tuple[GenSym, int], ...]:
    """The generators of the presentation of the partition ``lam`` at
    ``ell``, filtered from the hook table: the cells whose hook ``ell``
    divides, row-major and left to right, each ``f_{row, hook}`` of degree
    its hook."""
    return tuple(
        (GenSym(i, h), h)
        for i, row in enumerate(_row_hooks(lam), start=1)
        for h in row
        if h % ell == 0
    )


def vandermonde_coefficient(lam, m) -> Fraction:
    """The exact coefficient of the transversal monomial ``m`` (see the
    ``presentation`` module docstring)."""
    n = weight(lam)
    exponents = list(beta_set(lam, n))
    for i, j in m.cells:
        if not (1 <= i <= len(lam) and 1 <= j <= lam[i - 1]):
            raise CellOutOfDiagram((lam, (i, j)))
        exponents[i - 1] -= hook_by_counting(lam, i, j)
    product = 1
    for a in range(n):
        for b in range(a + 1, n):
            product *= exponents[a] - exponents[b]
    return Fraction(product)


def json_terms(packed: PackedPolys, index: int, prefix: str = "f") -> list[dict]:
    """Polynomial ``index`` as ``{"coefficient": "-3/5", "monomial": [names
    repeated by exponent]}`` per term, ``"u"`` repeated by its exponent after
    the generator names, in the order of the package's sorted rows, each
    coefficient a ``Fraction`` over the lead and each monomial decoded from
    its code."""
    p, rows, lead, _sign = packed._terms(index, prefix, False)
    terms = []
    for _key, code, *_ in rows:
        ue, gens = packed.radix.decode(code)
        terms.append({
            "coefficient": str(Fraction(p[code], lead)),
            "monomial": [generator_name(s, prefix) for s, e in gens for _ in range(e)]
            + ["u"] * ue,
        })
    return terms


def reference_document(presentation: GradedPresentation) -> dict:
    """The presentation's JSON document built as dicts, one per generator
    and per term (:func:`json_terms`), with no JSON text written or parsed."""
    prefix = presentation.meta.prefix
    packed = presentation.relations
    return {
        "generators": [
            {"name": f"{prefix}{g.row},{g.degree}", "row": g.row, "hook": g.degree, "degree": d}
            for g, d in presentation.generators
        ],
        "relations": [json_terms(packed, k, prefix) for k in range(len(packed.polys))],
        "metadata": {
            "partition": label_document(presentation.meta.source),
            "ell": presentation.meta.ell,
            "orientation": presentation.meta.orientation,
            "simplified": presentation.meta.simplified,
        },
    }


def dumps_at_depth(value, depth: int) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` as it reads ``depth``
    lists deep, cut out of the dump of the nested lists."""
    for _ in range(depth):
        value = [value]
    text = json.dumps(value, indent=2, sort_keys=True)
    for level in range(1, depth + 1):
        head, tail = "[\n" + "  " * level, "\n" + "  " * (level - 1) + "]"
        assert text.startswith(head) and text.endswith(tail)
        text = text[len(head):-len(tail)]
    return text


def poly_mul_dense(a: list[int], b: list[int]) -> list[int]:
    """The product of two dense integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of dense integer polynomials with ``den[0] = 1``, by
    long division; :class:`InexactDivision` on a remainder."""
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


def one_minus_q_to(k: int) -> list[int]:
    return [1] + [0] * (k - 1) + [-1]


def series_by_long_division(label, ell: int = 1) -> HilbertSeries:
    """``prod_{i=1..n} (1 - q^{ell i}) / prod_{components, cells} (1 - q^{ell h})``
    with numerator and denominator each multiplied out in full, then one
    long division; ``label`` a partition for ``ell = 1``, else its
    components."""
    components = (label,) if ell == 1 else label
    num = [1]
    for i in range(1, sum(map(weight, components)) + 1):
        num = poly_mul_dense(num, one_minus_q_to(ell * i))
    den = [1]
    for lam in components:
        for i, j in cells(lam):
            den = poly_mul_dense(den, one_minus_q_to(ell * hook_by_counting(lam, i, j)))
    return make_series(poly_div_exact(num, den))


def exponent_vectors(degrees: list[int], total: int):
    """Every exponent vector over generators of the given degrees whose
    weighted degree is ``total``."""
    if not degrees:
        if total == 0:
            yield ()
        return
    head, rest = degrees[0], degrees[1:]
    for e in range(total // head + 1):
        for tail in exponent_vectors(rest, total - e * head):
            yield (e, *tail)


def sparse_rank(rows: Iterable[dict[int, int]]) -> int:
    """Exact rank of sparse integer rows ``{column: coefficient}``: each row,
    copied, is reduced by the package's ``_reduce`` against the pivots of
    the rows before it; the rank is the number of pivots.  Input rows are
    not modified."""
    pivots: dict[int, tuple[int, list[tuple[int, int]]]] = {}
    for row in rows:
        _reduce(dict(row), pivots)
    return len(pivots)


def series_by_every_macaulay_row(presentation: GradedPresentation) -> HilbertSeries:
    """The rank oracle with no syzygy criterion: in each degree ``d`` up to
    the oracle's cutoff, every row ``m * r`` (``r`` a non-zero relation of
    degree ``s <= d``, ``m`` a monomial of degree ``d - s``) is built on
    exponent vectors, its coefficients scaled by the lcm of their
    denominators, and all are ranked by ``sparse_rank``.  Raises
    :class:`OracleTruncated` with the dimensions unless both slack degrees
    vanish.  Expects positive generator degrees and relations in the
    generators alone."""
    symbols = [g for g, _ in presentation.generators]
    degrees = [g.degree for g in symbols]
    relations = []
    for r in filter(None, presentation.relations):
        lcm = math.lcm(*(c.denominator for c in r.values()))
        terms = [
            (tuple(dict(gens).get(g, 0) for g in symbols), int(c * lcm))
            for (_, gens), c in r.items()
        ]
        relations.append((terms, weighted_degree(r)))
    cutoff = max(0, sum(s for _, s in relations) - sum(degrees)) + 2
    dims = []
    for d in range(cutoff + 1):
        columns = {m: i for i, m in enumerate(exponent_vectors(degrees, d))}
        rows = [
            {columns[tuple(a + b for a, b in zip(m, vector))]: c for vector, c in terms}
            for terms, s in relations
            if s <= d
            for m in exponent_vectors(degrees, d - s)
        ]
        dims.append(len(columns) - sparse_rank(rows))
    if any(dims[-2:]):
        raise OracleTruncated(tuple(dims))
    return make_series(dims)


def wreath_cases(total_max: int):
    """Every ``(q, ell)`` with ``2 <= ell``, ``q`` an ``ell``-multipartition
    of ``n >= 1`` and ``n * ell <= total_max``."""
    for ell in range(2, total_max + 1):
        for n in range(1, total_max // ell + 1):
            for q in multipartitions_of(n, ell):
                yield q, ell


@functools.lru_cache(maxsize=None)
def wreath_block(q, ell: int) -> tuple[GradedPresentation, HilbertSeries]:
    """The wreath presentation of ``q`` and its oracle series with the
    default cutoff, built once per label however many tests read them."""
    built = wreath_presentation(q, ell)
    return built, graded_dimensions_from_presentation(built)


def _occurs_only_linearly(p: PackedPoly, place: int, base: int) -> bool:
    """Whether ``p`` has the scalar linear term of the generator at ``place``
    (digit base ``base``) and no other monomial containing that generator."""
    return place in p and sum(1 for code in p if code // place % base) == 1


def eliminate_scaled(
    p: PackedPoly, place: int, base: int, lead: int, powers: list[PackedPoly]
) -> PackedPoly:
    """``lead^E * p(g = -rest / lead)``, where ``g`` is the generator at
    ``place``, ``E`` is its largest exponent in ``p`` and ``powers[e]`` is
    ``(-rest)^e`` (extended here as needed); ``p`` itself if ``g`` does not
    occur in it.  No content is divided out."""
    exponents = [code // place % base for code in p]
    top = max(exponents)
    if not top:
        return p
    while len(powers) <= top:
        power: PackedPoly = {}
        for ma, ca in powers[-1].items():
            for mb, cb in powers[1].items():
                power[ma + mb] = power.get(ma + mb, 0) + ca * cb
        powers.append({code: c for code, c in power.items() if c})
    scales = [lead ** (top - e) for e in range(top + 1)]
    out: PackedPoly = {}
    get = out.get
    for (code, c), e in zip(p.items(), exponents):
        if not e:
            out[code] = get(code, 0) + c * scales[0]
            continue
        rest = code - e * place
        factor = c * scales[e]
        for mono, v in powers[e].items():
            key = rest + mono
            out[key] = get(key, 0) + factor * v
    if 0 in out.values():
        out = {code: c for code, c in out.items() if c}
    return out


def simplify_by_restart(presentation: GradedPresentation) -> GradedPresentation:
    """The integer ``simplify`` by restarts: scan the relations in increasing
    degree for the first one that offers a generator (the largest that occurs
    linearly and in no other of its monomials), spend it, substitute into
    every other relation with :func:`eliminate_scaled`, and scan again from
    the first relation.  Contents are divided out of the input relations,
    each spent relation and the kept ones at the end."""
    generators = list(presentation.generators)
    relations = [r for r in presentation.relations if r]
    degrees = [weighted_degree(r) for r in relations]
    symbols = sorted({s for r in relations for _ue, gens in r for s, _e in gens})
    weightless = tuple(s for s in symbols if s.degree < 1)
    if weightless:
        raise NegativeDegreeGenerator(weightless)
    radix = Radix.by_degree(symbols, max(degrees, default=0))
    digits = dict(zip(symbols, zip(radix.places[1:], radix.bases[1:])))
    by_degree = sorted(zip(degrees, relations), key=lambda dr: dr[0])
    packed, _scales = radix.pack(r for _, r in by_degree)
    relations = [primitive_part(p) for p in packed]
    alive = symbols
    while True:
        victim = next(
            (
                (idx, g)
                for idx, rel in enumerate(relations)
                for g in reversed(alive)
                if _occurs_only_linearly(rel, *digits[g])
            ),
            None,
        )
        if victim is None:
            break
        idx, g = victim
        place, base = digits[g]
        rel = primitive_part(relations.pop(idx))
        negated_rest = {code: -c for code, c in rel.items() if code != place}
        powers = [{0: 1}, negated_rest]
        generators = [gd for gd in generators if gd[0] != g]
        alive = [s for s in alive if s != g]
        relations = [
            q for q in (eliminate_scaled(p, place, base, rel[place], powers) for p in relations)
            if q
        ]
    relations = [primitive_part(p) for p in relations]
    meta = replace(presentation.meta, simplified=True)
    return GradedPresentation(tuple(generators), PackedPolys(radix, relations), meta)


def blocks(total_max: int):
    """``(label, ell, raw presentation)`` for every partition of
    ``n <= total_max`` (``ell = 1``) and every wreath label of
    :func:`wreath_cases`."""
    for n in range(total_max + 1):
        for lam in partitions_of(n):
            yield lam, 1, direct_presentation(lam)
    for q, ell in wreath_cases(total_max):
        yield q, ell, wreath_presentation(q, ell)


def simplify_equals_restart(total_max: int) -> str | None:
    """``None`` if ``simplify`` and :func:`simplify_by_restart` give the same
    generators and the same packed relations, int for int, on every block of
    :func:`blocks`; otherwise the first label where they differ."""
    for label, ell, built in blocks(total_max):
        ours, reference = simplify(built), simplify_by_restart(built)
        if ours.generators != reference.generators:
            return f"generators differ at {label}, ell={ell}"
        if ours.relations.polys != reference.relations.polys:
            return f"relations differ at {label}, ell={ell}"
    return None


def centre_json_per_part(result: CentrePresentation) -> str:
    """The centre's canonical JSON with every block's plus and minus parts
    written in full by ``_presentation_json``: each label's relations list
    and metadata ``partition`` are written twice, under ``f`` and ``g``."""
    field = "\n      "
    labels = {blk.label: _label_json(blk.label, field) for blk in result.blocks}
    blocks = []
    for blk in result.blocks:
        fields = [
            f'"dimension": {blk.dimension}',
            '"label": ' + labels[blk.label],
            '"minus": ' + _presentation_json(blk.minus_part, field),
            '"plus": ' + _presentation_json(blk.plus_part, field),
        ]
        if blk.star_label is not None:
            fields.append('"star_label": ' + labels[blk.star_label])
        blocks.append("{" + field + ("," + field).join(fields) + "\n    }")
    return (
        '{\n  "assumption": ' + _json_value(ASSUMPTION, "")
        + ',\n  "blocks": ' + _json_list(blocks, "\n  ")
        + ',\n  "group": ' + _json_value({"ell": result.ell, "n": result.n}, "\n  ")
        + f',\n  "total_dimension": {result.total_dimension}\n}}\n'
    )


def centre_text_per_part(result: CentrePresentation, simplified: bool) -> str:
    """The centre's text, read off the built blocks, with every part's
    quotient ring written in full under its own prefix if ``simplified``."""
    lines = [f"centre for n={result.n}, ell={result.ell} (assumption: {ASSUMPTION})"]
    for blk in result.blocks:
        lines.append(f"block {format_label(blk.label)}: dimension {blk.dimension}")
        if simplified:
            lines.append(f"  plus:  {quotient_ring_text(blk.plus_part)}")
            lines.append(f"  minus: {quotient_ring_text(blk.minus_part)}")
    lines.append(f"total dimension: {result.total_dimension}")
    return "\n".join(lines)
