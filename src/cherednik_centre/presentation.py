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

Both variants read their cells off the beta-set, with no hook table: the
cells of row ``i`` whose hook ``ell`` divides are the gaps ``g < d_i`` on
``d_i``'s runner of the ``ell``-abacus (``ell | d_i - g``), the cell of
hook ``d_i - g`` in the column of ``g``, one column per gap.  The wreath
variant for an ``ell``-multipartition ``q`` reads the beta-set of ``lam =
from_quotient(q, ell)`` straight off the beads of ``q``'s staircase and
never builds ``lam``: its generators are the cells whose hook is divisible
by ``ell``, and its relations, of degree ``ell, 2*ell, ...``, sum over the
transversals made of those cells only.  Both variants share one
enumerator, which gives each transversal as its monomial's code (the sum
of its cells' places on the relations' codec), its degree and its signed
coefficient, the one payload every caller reads.  It walks the rows in
level order from the empty transversal's product ``V(d) = prod_{a < b}
(d_a - d_b)``, and for each cell it chooses multiplies in the ratio of the
factors that hold the cell's row, after and before, against only the rows
chosen before it: a row left out keeps ``e_i = d_i`` and changes nothing,
so the rows without an eligible cell drop out of the walk.  Each step is
one exact integer division, whose quotient is a Vandermonde product of
integers.

Relations have one form, a :class:`~cherednik_centre.polyring.PackedPolys`:
a monomial is one packed int (see :mod:`~cherednik_centre.polyring`) and a
coefficient one int.  The raw ones are built so, with lead 1; relations
given as polynomials are checked and packed once, when their
:class:`GradedPresentation` is built.  ``simplify`` eliminates the
generators that occur linearly, fraction-free on the same codes, and keeps
monic relations with no leads.  A ``Fraction`` appears only when
``relations`` are read as polynomials.  The renderers write from the codes.
One writer, :func:`_presentation_json`, writes a presentation's JSON
document as text at the depth it is nested to; the CLI prints it, and
:func:`presentation_document` parses it.

The public builders check their labels once; ``_block_part`` and
``_quotient_beta_set`` take validated ones and check only the weight
(``TooLarge``).
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterator, Union

from .abacus import MultiPartition, _make_multipartition, _staircase_beads, format_multipartition
from .errors import TooLarge
from .partitions import (
    BetaSet,
    Cell,
    Partition,
    _beta_set,
    format_partition,
    make_partition,
)
from .polyring import (
    GenSym,
    PackedPoly,
    PackedPolys,
    Radix,
    generator_name,
    primitive_part,
    weighted_degree,
)

Label = Union[Partition, MultiPartition]
HookRows = list[list[tuple[int, int, GenSym]]]


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
    """Provenance: ``source`` label, ``ell``, ``orientation`` and ``simplified``
    flag.  Names follow the orientation: ``prefix`` is ``f`` at +1, ``g`` at -1.

    >>> PresentationMeta((2,), 1, -1).prefix
    'g'
    """

    source: Label
    ell: int
    orientation: int
    simplified: bool = False

    @property
    def prefix(self) -> str:
        return "f" if self.orientation > 0 else "g"


@dataclass(frozen=True)
class GradedPresentation:
    """Generators with signed degrees, homogeneous relations, provenance.

    ``relations`` is a :class:`~cherednik_centre.polyring.PackedPolys` on a
    ``Radix.by_degree`` codec that covers every relation's degree, read as
    the tuple of its polynomials.  Polynomials given instead are checked and
    packed here, once: each non-zero one through ``weighted_degree``
    (:class:`~cherednik_centre.errors.InhomogeneousRelation`), then all by
    ``PackedPolys.from_polys``."""

    generators: tuple[tuple[GenSym, int], ...]
    relations: PackedPolys
    meta: PresentationMeta

    def __post_init__(self) -> None:
        if not isinstance(self.relations, PackedPolys):
            relations = tuple(self.relations)
            for r in filter(None, relations):
                weighted_degree(r)
            object.__setattr__(self, "relations", PackedPolys.from_polys(relations))


@dataclass(frozen=True)
class TransversalMonomial:
    """Cells with pairwise-distinct rows and columns; degree = sum of hooks."""

    cells: tuple[Cell, ...]
    degree: int


def _hook_rows(beta: BetaSet, ell: int) -> tuple[HookRows, Radix]:
    """Per row of a non-zero part of the padded beta-set ``beta``, the
    ``(gap, hook, generator)`` of each cell whose hook ``ell`` divides, left
    to right; and the relations' codec, :meth:`Radix.by_degree` over the
    sorted generators up to the weight ``len(beta)``.

    Row ``i``'s cells are the gaps ``g < d_i`` with ``ell | d_i - g``: each
    is the cell of hook ``d_i - g`` in the column of ``g``, the ``j``-th gap
    from 0 lying in column ``j``, so gaps ascending give the cells left to
    right.  The zero parts' beads are ``0 .. padding - 1``, below every gap:
    those rows hold no cell and are left out.  No hook table is built."""
    n = rows = len(beta)
    while rows and beta[rows - 1] == n - rows:
        rows -= 1
    padding = n - rows
    beads = set(beta[:rows])
    cells = [
        [(g, d - g, GenSym(i, d - g))
         for g in range(padding + (d - padding) % ell, d, ell) if g not in beads]
        for i, d in enumerate(beta[:rows], start=1)
    ]
    # hooks fall left to right, so each row reversed is in symbol order
    return cells, Radix.by_degree([c[2] for row in cells for c in reversed(row)], n)


def _quotient_beta_set(q: MultiPartition, ell: int) -> BetaSet:
    """The beta-set of ``from_quotient(q, ell)`` padded to its weight ``n``,
    read off the staircase of ``q`` with no partition built: its ``k``
    beads shift by ``n - k``.  Below them ``n - k`` padding beads are added,
    or, if ``k > n``, the lowest ``k - n`` beads, which are ``0 .. k - n -
    1`` since the partition has at most ``n`` parts, shift below 0 and drop.
    ``q`` is validated; :class:`~cherednik_centre.errors.TooLarge` if ``n``
    exceeds what a tuple can index."""
    n = ell * sum(map(sum, q))
    if n > sys.maxsize:
        raise TooLarge(n)
    beads = _staircase_beads(q, ell)
    shift = n - len(beads)
    return tuple(p + shift for p in beads[:n]) + tuple(range(shift - 1, -1, -1))


def _transversals(beta: BetaSet, hook_rows: HookRows, radix: Radix) -> list[tuple]:
    """Every transversal of the cells in ``hook_rows``, read off the padded
    beta-set ``beta``, the empty one first, in level order: the walk keeps
    one list and, row by row, appends to it each transversal extended by
    each cell of the row whose column it leaves free.

    A cell is a bead ``d_r`` moved to the gap ``e = d_r - h`` and each gap
    is one column, so the used columns are a mask over gaps and a
    transversal moves distinct beads to distinct gaps.  Its exponents are
    then the beta-set of a partition of weight ``n - degree``, ``n =
    len(beta)``, so its degree is at most ``n`` and its product is not 0.

    Returns ``(code, degree, product, used, picked)`` per transversal: the
    sum of the chosen cells' places on ``radix``, the Vandermonde product
    of the module docstring times the orientation sign ``(-1)^{n(n-1)/2}``,
    and the walk's state, the gap mask and the ``(d_j, e_j)`` of the rows
    chosen.  A transversal that skips a row keeps ``e_r = d_r`` and its
    product.  The empty transversal's product is the signed ``V(d)``, and
    choosing the cell of hook ``h`` in row ``r`` multiplies a product by
    ``num / den``, ``M`` the rows chosen before it:

        num = A_r(e) * prod_{j in M} (e - e_j) (d_r - d_j)
        den = B_r    * prod_{j in M} (e - d_j) (d_r - e_j)

    where ``A_r(e) = prod_{j != r} (e - d_j)`` (once per cell) and
    ``B_r = prod_{j != r} (d_r - d_j)`` (once per row): the factors of
    ``V`` that hold row ``r``, after and before, with the rows of ``M`` at
    their chosen exponents.  So a step costs O(|M|), not O(rows).  No factor
    of ``den`` is zero, since ``e`` and every ``e_j`` are gaps and ``d_r``,
    ``d_j`` are beads; and ``product * num // den`` is exact, the quotient
    being a Vandermonde product of integers.
    """
    n = len(beta)
    heads = beta[: len(hook_rows)]
    # the padding exponents are 0 .. padding - 1, below every gap and every
    # row's exponent: a product against all of them is a falling factorial
    padding = n - len(heads)
    product = (
        (-1 if (n * (n - 1) // 2) % 2 else 1)
        * math.prod(a - b for a, b in itertools.combinations(heads, 2))
        * math.prod(math.perm(d, padding) for d in heads)
        * math.prod(math.factorial(k) for k in range(padding))
    )
    place_of = radix.place_of
    level = [(0, 0, product, 0, ())]
    for r, row in enumerate(hook_rows):
        if not row:
            continue
        d = heads[r]
        others = heads[:r] + heads[r + 1:]
        before = math.perm(d, padding) * math.prod(d - b for b in others)
        # per cell: (gap bit, hook, generator place, e, A_r(e), (d_r, e) as a 1-tuple)
        options = [
            (1 << e, h, place_of[sym], e,
             math.perm(e, padding) * math.prod(e - b for b in others), ((d, e),))
            for e, h, sym in row
        ]
        grown = []
        extend = grown.append
        for code, degree, product, used, picked in level:
            for bit, h, place, e, after, pick in options:
                if used & bit:
                    continue
                num, den = after, before
                for d_j, e_j in picked:
                    num *= (e - e_j) * (d - d_j)
                    den *= (e - d_j) * (d - e_j)
                extend((code + place, degree + h, product * num // den, used | bit, picked + pick))
        level += grown
    return level


def transversal_monomials(lam: Partition) -> Iterator[TransversalMonomial]:
    """Every transversal monomial, the empty one included; ``lam`` goes
    through ``make_partition``.  Each generator ``f_{row, hook}`` names one
    cell, since hooks within a row are distinct.  Each has degree at most
    ``weight(lam)``, as its cells move distinct beads to distinct gaps."""
    lam = make_partition(lam)
    beta = _beta_set(lam, sum(lam))
    hook_rows, radix = _hook_rows(beta, 1)
    # at ell = 1 a row holds every cell, so its j-th from the left is in column j
    cell_of = {
        sym: (sym.row, j) for row in hook_rows for j, (_g, _h, sym) in enumerate(row, start=1)
    }
    for code, degree, _product, _used, _picked in _transversals(beta, hook_rows, radix):
        yield TransversalMonomial(tuple(cell_of[s] for s, _ in radix.decode(code)[1]), degree)


def _presentation(beta: BetaSet, ell: int, source: Label) -> GradedPresentation:
    """Generators: the cells whose hook ``ell`` divides, off the padded
    beta-set ``beta``; relations: degrees ``ell, 2*ell, ..., len(beta)``,
    each term stored once as it is found, with lead 1."""
    by_degree: dict[int, PackedPoly] = {s: {} for s in range(ell, len(beta) + 1, ell)}
    hook_rows, radix = _hook_rows(beta, ell)
    for code, degree, product, _used, _picked in _transversals(beta, hook_rows, radix):
        if degree:
            by_degree[degree][code] = product
    generators = tuple((sym, h) for row in hook_rows for _g, h, sym in row)
    relations = PackedPolys(radix, by_degree.values(), (1,) * len(by_degree))
    return GradedPresentation(generators, relations, PresentationMeta(source, ell, 1))


def direct_presentation(lam: Partition) -> GradedPresentation:
    """The combinatorial presentation of A(lam)+ (relations r_1 ... r_n);
    ``lam`` goes through ``make_partition``."""
    lam = make_partition(lam)
    return _presentation(_beta_set(lam, sum(lam)), 1, lam)


def wreath_presentation(q: MultiPartition, ell: int) -> GradedPresentation:
    """Presentation of A(q)+ for the wreath product, off the beads of the
    quotient label's staircase; ``q`` goes through ``_make_multipartition``."""
    q = _make_multipartition(q, ell)
    return _presentation(_quotient_beta_set(q, ell), ell, q)


# ---------------------------------------------------------------------------
# simplification


def _eliminate(p: PackedPoly, place: int, base: int, lead: int, rest: PackedPoly) -> PackedPoly:
    """A positive multiple of ``lead^E * p(g = -rest / lead)``, ``g`` the
    generator at ``place`` that ``lead*g + rest`` spends and ``E`` its largest
    exponent in ``p``; ``p`` itself if ``g`` does not occur in it.

    Each of ``E`` passes splits the relation into its free terms and its
    held ones, ``(code without one g, c)``, and replaces one ``g`` of each
    held term by ``-rest``: the relation times ``lead``, over the gcd ``G >
    0`` of ``lead`` and the held coefficients, so the free terms are kept as
    they are when ``G = lead``.  The rest of the content is left in, for
    :func:`simplify` to divide out.  On a block ``E`` is 1 (see
    :func:`simplify`): one pass, over exactly ``G``."""
    substitute = rest.items()
    out, passes = p, 1
    while passes:
        free: PackedPoly = {}
        held = []
        for code, c in out.items():
            e = code // place % base
            if e:
                held.append((code - place, c))
                if e > passes:
                    passes = e
            else:
                free[code] = c
        # a later pass that holds nothing still scales by the sign of lead
        if not held and out is p:
            return p
        common = math.gcd(lead, *(c for _rest, c in held))
        scale = lead // common
        out = free if scale == 1 else {code: c * scale for code, c in free.items()}
        get = out.get
        for without, c in held:
            factor = c // common
            for mono, v in substitute:
                key = without + mono
                out[key] = get(key, 0) - factor * v
        if 0 in out.values():
            out = {code: c for code, c in out.items() if c}
        passes -= 1
    return out


def simplify(presentation: GradedPresentation) -> GradedPresentation:
    """Eliminate generators that occur linearly, in one pass over the
    relations in increasing degree.

    Each relation, when reached, takes every earlier substitution in order.
    If it then offers a generator (one of its monomials, with a scalar
    coefficient, that occurs in no other), the largest such ``(row, hook)``
    is eliminated and the relation spent; otherwise it is kept.  Output
    relations are monic (divided by the coefficient of their first term in
    canonical order); zero relations are dropped.  On the blocks of the
    paper this removes ``f_{i, h}`` for each hook length ``h`` of the
    presentation, ``i`` the largest row holding a cell of hook ``h``.

    The pass is exact, not a heuristic: it spends the relations that a scan
    restarted after each elimination would.  A generator eliminated from a
    relation of degree ``s`` has degree ``s``, and every weight is at least
    1, so a relation of degree at most ``s`` holds it only linearly and
    would have offered a generator itself: a relation passed over never
    changes, and a later substitution never touches a kept one.

    The elimination is fraction-free: eliminating ``g`` from ``lead*g +
    rest`` replaces ``p`` by ``lead^E * p(g = -rest/lead)`` over a positive
    integer (:func:`_eliminate`), ``E`` the largest exponent of ``g`` in ``p``,
    with the monomials of rational substitution, so the same generators go
    and the monic result is the same.  A relation's content is divided out
    on input and after its substitutions.  The input is not modified.

    On the blocks, ``E`` is always 1.  Raw relations are multilinear, since a
    transversal uses each cell once, and each substitution's ``rest`` holds
    no eliminated generator, so no substitution can square one and the
    kernel makes one pass.  Only a presentation given by hand, with a
    generator squared, makes it take more.

    It runs on the input's codes, whose ``Radix.by_degree`` covers every
    relation's degree: substitution keeps each relation homogeneous, so no
    exponent outgrows its digit.  The result keeps the primitive relations
    on those codes, with no leads: nothing is decoded or divided until it
    is read.
    """
    radix = presentation.relations.radix
    digits = dict(zip(radix.symbols, zip(radix.places[1:], radix.bases[1:])))
    relations = [p for p in presentation.relations.polys if p]
    relations.sort(key=lambda p: radix.degree(next(iter(p))))
    substitutions, eliminated, kept = [], set(), []
    for p in relations:
        p = primitive_part(p)
        for substitution in substitutions:
            p = _eliminate(p, *substitution)
        if not p:
            continue
        p = primitive_part(p)
        # the largest generator whose only term in ``p`` is itself (none eliminated is left)
        g = next((
            g for g, (place, base) in reversed(digits.items())
            if place in p and sum(1 for code in p if code // place % base) == 1
        ), None)
        if g is None:
            kept.append(p)
            continue
        place, base = digits[g]
        eliminated.add(g)
        rest = {code: c for code, c in p.items() if code != place}
        substitutions.append((place, base, p[place], rest))
    generators = tuple(gd for gd in presentation.generators if gd[0] not in eliminated)
    meta = presentation.meta
    meta = PresentationMeta(meta.source, meta.ell, meta.orientation, True)
    return GradedPresentation(generators, PackedPolys(radix, kept), meta)


def _block_part(label: Label, ell: int, simplified: bool) -> GradedPresentation:
    """The plus part of the block of a validated ``label`` (a partition for
    ``ell = 1``), simplified if asked."""
    beta = _beta_set(label, sum(label)) if ell == 1 else _quotient_beta_set(label, ell)
    built = _presentation(beta, ell, label)
    return simplify(built) if simplified else built


def negate_grading(presentation: GradedPresentation) -> GradedPresentation:
    """Flip every degree and the orientation, so a plus part's ``f`` names become ``g``."""
    flipped = tuple((g, -d) for g, d in presentation.generators)
    meta = presentation.meta
    meta = PresentationMeta(meta.source, meta.ell, -meta.orientation, meta.simplified)
    return GradedPresentation(flipped, presentation.relations, meta)


# ---------------------------------------------------------------------------
# serialization shared with the CLI


def quotient_ring_text(presentation: GradedPresentation) -> str:
    """One-line quotient-ring form, e.g. ``C[f1,1] / (f1,1^5)``; with no
    generators the ring is ``C``, so the zero ring reads ``C / (1)``."""
    prefix = presentation.meta.prefix
    names = ", ".join(generator_name(g, prefix) for g, _ in presentation.generators)
    packed = presentation.relations
    rels = ", ".join(packed.text(k, prefix) for k, p in enumerate(packed.polys) if p)
    ring = f"C[{names}]" if names else "C"
    return f"{ring} / ({rels})" if rels else ring


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
    packed = presentation.relations
    for k, p in enumerate(packed.polys):
        if p:
            lines.append(f"r_{packed.radix.degree(next(iter(p)))} = {packed.text(k, prefix)}")
    return "\n".join(lines)


def presentation_document(presentation: GradedPresentation) -> dict:
    """JSON-ready document: generators, relations, metadata; the text of
    :func:`_presentation_json`, the one writer, parsed."""
    return json.loads(_presentation_json(presentation))


def _presentation_json(
    presentation: GradedPresentation,
    pad: str = "\n",
    partition: str | None = None,
    relations: str | None = None,
) -> str:
    """The document as ``json.dumps(..., indent=2, sort_keys=True)`` writes it
    on a line whose newline and indent are ``pad``: generators, metadata with
    the label, and relations, each by :meth:`PackedPolys.json_text` at its depth.

    A caller that already holds the metadata's ``partition`` (``_label_json``
    of the source at ``pad`` plus four spaces) or the ``relations`` list
    (:func:`_relations_json` at ``pad`` plus two, under the names' prefix)
    passes it in, and it is not written again."""
    meta = presentation.meta
    inner = pad + "  "
    entry, field = inner + "  ", inner + "    "
    generators = [
        f'{{{field}"degree": {d},{field}"hook": {g.degree},{field}"name": '
        f'{_quote(generator_name(g, meta.prefix))},{field}"row": {g.row}{entry}}}'
        for g, d in presentation.generators
    ]
    if partition is None:
        partition = _label_json(meta.source, entry)
    if relations is None:
        relations = _relations_json(presentation.relations, meta.prefix, inner)
    return (
        f'{{{inner}"generators": {_json_list(generators, inner)},{inner}"metadata": '
        f'{{{entry}"ell": {meta.ell},{entry}"orientation": {meta.orientation},'
        f'{entry}"partition": {partition},'
        f'{entry}"simplified": {"true" if meta.simplified else "false"}{inner}}},'
        f'{inner}"relations": {relations}{pad}}}'
    )


def _relations_json(packed: PackedPolys, prefix: str, pad: str) -> str:
    """The list of every relation's :meth:`PackedPolys.json_text`, closing
    after ``pad``.  Its only strings that start with ``f`` (or ``g``) are
    the names: the rest are coefficients, ``"u"`` and the keys
    ``coefficient`` and ``monomial``."""
    entry = pad + "  "
    return _json_list([packed.json_text(k, prefix, entry) for k in range(len(packed.polys))], pad)


def _label_json(label: Label, pad: str) -> str:
    """:func:`label_document` of ``label`` as JSON closing after ``pad``."""
    if not _is_multipartition(label):
        return _json_list(list(map(str, label)), pad)
    inner, part = pad + "  ", pad + "    "
    return _json_list([
        "[" + part + ("," + part).join(map(str, c)) + inner + "]" if c else "[]" for c in label
    ], pad)


def _json_list(items: list[str], pad: str) -> str:
    """A JSON list, closing after ``pad``, of values written one level in."""
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
