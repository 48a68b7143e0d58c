"""Graded presentations of the blocks A(lam)+ built from the Young diagram.

Generators: one symbol ``f_{i, h}`` per cell ``(i, j)`` of the diagram,
where ``h = hook_length(lam, (i, j))`` — hooks within a row are distinct, so
the cell is recoverable from ``(row, hook)``.  The grading degree of
``f_{i,h}`` is ``h``.

Relations: for ``s = 1..n`` the relation ``r_s`` is the sum over all
*transversal* monomials of degree ``s`` — products of cells with pairwise
distinct rows and pairwise distinct columns, degree = sum of hook lengths —
of an exact integer coefficient, the Vandermonde-type product

    coeff(m) = prod_{1 <= i < j <= n} (e_i - e_j),

where ``e_i = d_i - h`` if the monomial uses the cell of row ``i`` with hook
``h``, and ``e_i = d_i`` otherwise (``d`` the beta-set padded to ``n``).
A global orientation factor ``(-1)^{n(n-1)/2}`` on every relation aligns the
coefficients with the Wronskian determinant's row/column convention, so the
oracle comparison in the test-suite is exact equality, term by term.

The wreath variant for an ``ell``-multipartition ``q`` works on
``lam = from_quotient(q, ell)``: its generators are the cells whose hook is
divisible by ``ell``, and its relations, of degree ``ell, 2*ell, ...``, sum
over the transversals made of those cells only.  The enumeration walks just
those cells; it never builds the full presentation of ``lam``.  Both
variants share one enumerator, which yields each transversal as its
generator factors, its degree and its coefficient, the one payload every
caller reads; :func:`transversal_monomials` reads the cells back off the
generators, ``f_{i, h}`` naming the cell of hook ``h`` in row ``i``.  The
walk starts from the empty transversal's product
``V(d) = prod_{a < b} (d_a - d_b)`` and, for each cell it chooses,
multiplies in the ratio of the factors that hold the cell's row, after and
before, against only the rows chosen earlier on the path: a row left out
keeps ``e_i = d_i`` and changes nothing, so the rows without an eligible
cell drop out of the walk.  Each step is one exact integer division, whose
quotient is a Vandermonde product of integers; each relation stores it as
the int coefficient of its term.

``simplify`` performs the standard elimination of generators that occur
linearly, giving a reduced presentation with monic relations.  It is
fraction-free from input to output: the eliminations run on integer
multiples of the relations, made primitive where they are read (the
input, each spent relation, and the result), a monomial is one packed int
(the layout is described in :mod:`~cherednik_centre.polyring`) and a
coefficient one int, and the result keeps them so, as a
:class:`~cherednik_centre.polyring.PackedPolys` whose leads are found when
it is rendered.  A ``Fraction`` appears only when its ``relations`` are
read as polynomials: they are decoded then, once, to monic ``Fraction``
relations (the raw relations, like the Wronskian's, have int coefficients).

The renderers (:func:`quotient_ring_text`, :func:`presentation_text`,
:func:`presentation_document`) write a simplified presentation straight
from its codes: per term one pass over its non-zero digits for the sort key
and the names, one sort of int keys per relation, and one ``math.gcd`` for
the coefficient.  The CLI writes each relation's JSON text as it is, and
:func:`presentation_document` parses it back.  A raw presentation is packed
first, which costs one more pass over its terms.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Union

from .abacus import MultiPartition, format_multipartition, from_quotient
from .errors import NegativeDegreeGenerator
from .partitions import (
    Cell,
    Partition,
    beta_set,
    format_partition,
    make_partition,
    transpose,
    weight,
)
from .polyring import (
    GenSym,
    GenVec,
    MPoly,
    PackedPoly,
    PackedPolys,
    Radix,
    generator_name,
    primitive_part,
    weighted_degree,
)

Label = Union[Partition, MultiPartition]


def _is_multipartition(label: Label) -> bool:
    return bool(label) and isinstance(label[0], tuple)


def label_document(label: Label) -> list:
    """JSON form of a label: the parts, or one list of parts per component."""
    if _is_multipartition(label):
        return [list(component) for component in label]
    return list(label)


def format_label(label: Label) -> str:
    """Text form of a label: ``3,2``, or components joined by ``|``."""
    if _is_multipartition(label):
        return format_multipartition(label)
    return format_partition(label)


@dataclass(frozen=True)
class PresentationMeta:
    source: Label
    ell: int
    orientation: int
    simplified: bool = False
    prefix: str = "f"


@dataclass(frozen=True)
class GradedPresentation:
    """Generators with signed degrees, homogeneous relations, provenance.

    ``relations`` is a tuple of polynomials, or for a simplified presentation
    a :class:`~cherednik_centre.polyring.PackedPolys` that reads as one."""

    generators: tuple[tuple[GenSym, int], ...]
    relations: tuple[MPoly, ...] | PackedPolys
    meta: PresentationMeta


@dataclass(frozen=True)
class TransversalMonomial:
    """Cells with pairwise-distinct rows and columns; degree = sum of hooks."""

    cells: tuple[Cell, ...]
    degree: int


def _hook_rows(lam: Partition, ell: int) -> list[list[tuple[int, int, GenSym]]]:
    """Per row, the ``(column, hook, generator)`` of each cell whose hook
    ``ell`` divides, left to right."""
    conjugate = transpose(lam)
    rows = []
    for i, part in enumerate(lam, start=1):
        row = []
        for j in range(1, part + 1):
            h = part - j + conjugate[j - 1] - i + 1
            if h % ell == 0:
                row.append((j, h, GenSym(i, h)))
        rows.append(row)
    return rows


def _transversals(lam: Partition, ell: int = 1) -> Iterator[tuple[GenVec, int, int]]:
    """Every transversal of ``lam`` of degree <= weight(lam) whose hooks ``ell``
    divides, the empty one included, in depth-first order over the rows (row
    skipped first, then its cells left to right).

    Yields ``(gen-vector, degree, product)``: one ``(f_{row, hook}, 1)``
    factor per chosen cell, in row order, and ``product`` the Vandermonde
    product of the module docstring as a Python int.  One walk
    over a stack, through the rows that hold an eligible cell only: a
    skipped row keeps ``e_r = d_r`` and leaves the product as it is.  The
    walk starts from ``V(d)``, the empty transversal's product, and choosing
    the cell of hook ``h`` in row ``r`` sets ``e = d_r - h`` and multiplies
    the product by ``num / den``, with ``M`` the rows chosen before it:

        num = A_r(e) * prod_{j in M} (e - e_j) (d_r - d_j)
        den = B_r    * prod_{j in M} (e - d_j) (d_r - e_j)

    where ``A_r(e) = prod_{j != r} (e - d_j)`` (once per cell) and
    ``B_r = prod_{j != r} (d_r - d_j)`` (once per row): the factors of
    ``V`` that hold row ``r``, after and before, with the rows of ``M`` at
    their chosen exponents.  So a node costs O(|M|), not O(rows).  No factor
    of ``den`` is zero, since a rim hook ends on a gap of the beta-set, so
    ``e`` and every ``e_j`` are gaps and ``d_r``, ``d_j`` are beads; and
    ``product * num // den`` is exact, the quotient being a Vandermonde
    product of integers.
    """
    n = weight(lam)
    heads = beta_set(lam, n)[: len(lam)]
    # the padding exponents are 0 .. padding - 1, below every gap and every
    # row's exponent: a product against all of them is a falling factorial
    padding = n - len(lam)
    product = (
        math.prod(a - b for a, b in itertools.combinations(heads, 2))
        * math.prod(math.perm(d, padding) for d in heads)
        * math.prod(math.factorial(k) for k in range(padding))
    )
    # per row holding an eligible cell: its exponent, B_r, and per cell
    # (column bit, hook, gen factor, e, A_r(e))
    rows = []
    for i, row in enumerate(_hook_rows(lam, ell), start=1):
        if not row:
            continue
        d = heads[i - 1]
        others = heads[: i - 1] + heads[i:]
        options = [
            (1 << j, h, ((sym, 1),), d - h,
             math.perm(d - h, padding) * math.prod(d - h - b for b in others))
            for j, h, sym in row
        ]
        rows.append((d, math.perm(d, padding) * math.prod(d - b for b in others), options))
    last = len(rows) - 1
    if last < 0:
        yield (), 0, product
        return
    # (row, used columns, degree, product, gen-vector, (d_j, e_j) of M)
    stack = [(0, 0, 0, product, (), ())]
    while stack:
        k, used, degree, product, gens, picked = stack.pop()
        d, before, options = rows[k]
        if k == last:
            yield gens, degree, product
        else:
            choices = [(k + 1, used, degree, product, gens, picked)]
        for bit, h, gen, e, after in options:
            if used & bit or degree + h > n:
                continue
            num, den = after, before
            for d_j, e_j in picked:
                num *= (e - e_j) * (d - d_j)
                den *= (e - d_j) * (d - e_j)
            if k == last:
                yield gens + gen, degree + h, product * num // den
            else:
                choices.append((
                    k + 1, used | bit, degree + h, product * num // den,
                    gens + gen, picked + ((d, e),),
                ))
        if k != last:
            stack += reversed(choices)


def transversal_monomials(lam: Partition) -> Iterator[TransversalMonomial]:
    """All transversal monomials of degree <= weight(lam), empty one included;
    ``lam`` goes through ``make_partition``.  Each generator ``f_{row, hook}``
    names one cell, since hooks within a row are distinct."""
    lam = make_partition(lam)
    cell_of = {sym: (sym.row, j) for row in _hook_rows(lam, 1) for j, _h, sym in row}
    for gens, degree, _product in _transversals(lam):
        yield TransversalMonomial(tuple(cell_of[sym] for sym, _ in gens), degree)


def _presentation(lam: Partition, ell: int, source: Label) -> GradedPresentation:
    """Generators: the cells whose hook ``ell`` divides; relations: degrees
    ``ell, 2*ell, ..., weight(lam)``, each term stored once as it is found."""
    n = weight(lam)
    orientation_sign = -1 if (n * (n - 1) // 2) % 2 else 1
    by_degree: dict[int, MPoly] = {s: {} for s in range(ell, n + 1, ell)}
    for gens, degree, product in _transversals(lam, ell):
        if degree and product:
            by_degree[degree][(0, gens)] = orientation_sign * product
    generators = tuple((sym, h) for row in _hook_rows(lam, ell) for _j, h, sym in row)
    meta = PresentationMeta(source=source, ell=ell, orientation=1)
    return GradedPresentation(generators, tuple(by_degree.values()), meta)


def direct_presentation(lam: Partition) -> GradedPresentation:
    """The combinatorial presentation of A(lam)+ (relations r_1 ... r_n);
    ``lam`` goes through ``make_partition``."""
    lam = make_partition(lam)
    return _presentation(lam, 1, lam)


def wreath_presentation(q: MultiPartition, ell: int) -> GradedPresentation:
    """Presentation of A(q)+ for the wreath product, via the quotient label."""
    return _presentation(from_quotient(q, ell), ell, q)


# ---------------------------------------------------------------------------
# simplification


def _occurs_only_linearly(p: PackedPoly, place: int, base: int) -> bool:
    """Whether ``p`` has the scalar linear term of the generator at ``place``
    (digit base ``base``) and no other monomial containing that generator."""
    return place in p and sum(1 for code in p if code // place % base) == 1


def _eliminate(
    p: PackedPoly, place: int, base: int, lead: int, powers: list[PackedPoly]
) -> PackedPoly:
    """``lead^E * p(g = -rest / lead)``, where ``g`` is the generator at
    ``place``, ``E`` is its largest exponent in ``p`` and ``powers[e]`` is
    ``(-rest)^e`` (extended here as needed); ``p`` itself if ``g`` does not
    occur in it.  The content is left in: :func:`simplify` divides it out
    where it reads a relation."""
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


def simplify(presentation: GradedPresentation) -> GradedPresentation:
    """Eliminate generators that occur linearly; loop to a fixed point.

    Scan relations in increasing degree; in the first relation offering a
    generator that appears with a scalar coefficient and in no other monomial
    of that relation, eliminate the lexicographically largest such
    ``(row, hook)``, substitute everywhere, drop the generator and the spent
    relation, restart.  Output relations are monic (each divided by the
    coefficient of its first term in canonical order); identically zero
    relations are dropped.

    The elimination is fraction-free and exact: each relation is kept as an
    integer multiple, and eliminating ``g`` from ``lead*g + rest`` replaces
    each relation ``p`` by ``lead^E * p(g = -rest/lead)``, ``E`` the largest
    exponent of ``g`` in ``p``.  Each relation is a non-zero rational
    multiple of the one that substituting with rational coefficients gives,
    with the same monomials, so the choice of generators and the monic
    result are the same.  The content is divided out only where a relation
    is read: the input relations, the spent relation before its ``lead``
    and ``rest`` are taken, and each surviving relation once, at the end.
    A spent relation is a positive multiple of the one that dividing after
    every substitution gives, so its primitive part, and with it every
    ``lead`` and ``rest``, is the same.  The input is not modified.

    Inside the loop a monomial is one code of
    :meth:`Radix.by_degree <cherednik_centre.polyring.Radix.by_degree>` for
    the symbols of the relations, in sorted order, up to the largest relation
    degree ``D``.  Substitution keeps every relation homogeneous of its
    degree, at most ``D``, and each ``(-rest)^e`` it uses has degree
    ``e * w`` (``w`` the weight of the eliminated symbol) at most that of the
    relation, so no exponent outgrows its digit and multiplying monomials is
    adding codes.  That needs every weight to be at least 1: a symbol of
    degree below 1 raises
    :class:`~cherednik_centre.errors.NegativeDegreeGenerator`.  The result's
    ``relations`` is a :class:`~cherednik_centre.polyring.PackedPolys` of
    the primitive relations on those codes, with no leads given: nothing is
    decoded or divided until it is rendered or read.
    """
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
            q for q in (_eliminate(p, place, base, rel[place], powers) for p in relations) if q
        ]
    relations = [primitive_part(p) for p in relations]
    meta = replace(presentation.meta, simplified=True)
    return GradedPresentation(tuple(generators), PackedPolys(radix, relations), meta)


def _block_part(label: Label, ell: int, simplified: bool) -> GradedPresentation:
    """The plus part of the block of ``label``: the direct presentation for
    ``ell = 1``, the wreath one otherwise, then simplified if asked."""
    built = direct_presentation(label) if ell == 1 else wreath_presentation(label, ell)
    return simplify(built) if simplified else built


def negate_grading(presentation: GradedPresentation) -> GradedPresentation:
    """Flip every generator degree and the orientation flag."""
    flipped = tuple((g, -d) for g, d in presentation.generators)
    meta = replace(presentation.meta, orientation=-presentation.meta.orientation)
    return GradedPresentation(flipped, presentation.relations, meta)


# ---------------------------------------------------------------------------
# serialization shared with the CLI


def _packed(relations: tuple[MPoly, ...] | PackedPolys) -> PackedPolys:
    if isinstance(relations, PackedPolys):
        return relations
    return PackedPolys.from_polys(relations)


def quotient_ring_text(presentation: GradedPresentation) -> str:
    """One-line quotient-ring form, e.g. ``C[f1,1] / (f1,1^5)``."""
    prefix = presentation.meta.prefix
    names = ", ".join(generator_name(g, prefix) for g, _ in presentation.generators)
    packed = _packed(presentation.relations)
    rels = ", ".join(packed.text(k, prefix) for k, p in enumerate(packed.polys) if p)
    if not names:
        return "C"
    if not rels:
        return f"C[{names}]"
    return f"C[{names}] / ({rels})"


def presentation_text(presentation: GradedPresentation) -> str:
    """The quotient-ring form if simplified; otherwise the generators with
    their degrees, then one ``r_<degree> = ...`` line per non-zero relation."""
    if presentation.meta.simplified:
        return quotient_ring_text(presentation)
    prefix = presentation.meta.prefix
    gens = ", ".join(
        f"{generator_name(g, prefix)} (degree {d})" for g, d in presentation.generators
    )
    lines = [f"generators: {gens or '-'}"]
    packed = _packed(presentation.relations)
    for k, rel in enumerate(presentation.relations):
        if rel:
            lines.append(f"r_{weighted_degree(rel)} = {packed.text(k, prefix)}")
    return "\n".join(lines)


def presentation_document(presentation: GradedPresentation) -> dict:
    """JSON-ready document: generators, relations, metadata."""
    return _document(presentation, json.loads)


def _document(presentation: GradedPresentation, relation: Callable[[str], object]) -> dict:
    """That document with ``relation(json text)`` for each relation."""
    prefix = presentation.meta.prefix
    generators = [
        {"name": generator_name(g, prefix), "row": g.row, "hook": g.degree, "degree": d}
        for g, d in presentation.generators
    ]
    packed = _packed(presentation.relations)
    relations = [relation(packed.json_text(k, prefix)) for k in range(len(packed.polys))]
    return {
        "generators": generators,
        "relations": relations,
        "metadata": {
            "partition": label_document(presentation.meta.source),
            "ell": presentation.meta.ell,
            "orientation": presentation.meta.orientation,
            "simplified": presentation.meta.simplified,
        },
    }
