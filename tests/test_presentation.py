"""Direct combinatorial presentations, wreath filtering, and simplification."""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from cherednik_centre import (
    CellOutOfDiagram,
    EllOutOfRange,
    GenSym,
    InhomogeneousRelation,
    LengthMismatch,
    NegativeDegreeGenerator,
    cells,
    direct_presentation,
    from_quotient,
    graded_dimensions_from_presentation,
    hook_length,
    multipartitions_of,
    negate_grading,
    partitions_of,
    presentation_document,
    quotient_ring_text,
    simplify,
    transversal_monomials,
    weight,
    weighted_degree,
    wreath_presentation,
    wronski_relations,
)
from cherednik_centre.presentation import (
    GradedPresentation,
    PresentationMeta,
    _packed,
    label_document,
    presentation_text,
)

from conftest import NON_PARTITIONS, partitions_up_to
from reference import (
    add,
    json_terms,
    mul,
    scale,
    term_sort_key,
    vandermonde_coefficient,
    wreath_block,
    wreath_cases,
)


# --- transversal monomials ----------------------------------------------------


def _transversal_by_brute_force(lam):
    """Independent enumeration: all subsets of cells with distinct rows and
    columns and total hook degree at most the weight."""
    n = weight(lam)
    all_cells = list(cells(lam))
    found = set()
    for k in range(0, len(lam) + 1):
        for combo in itertools.combinations(all_cells, k):
            rows = [i for i, _ in combo]
            cols = [j for _, j in combo]
            if len(set(rows)) < k or len(set(cols)) < k:
                continue
            degree = sum(hook_length(lam, c) for c in combo)
            if degree <= n:
                found.add((frozenset(combo), degree))
    return found


@given(partitions_up_to(6))
def test_transversal_enumeration_matches_brute_force(lam):
    ours = {(frozenset(m.cells), m.degree) for m in transversal_monomials(lam)}
    assert ours == _transversal_by_brute_force(lam)
    assert len(ours) == len(list(transversal_monomials(lam)))


def test_transversal_includes_the_empty_monomial():
    monos = list(transversal_monomials((2, 1)))
    assert any(m.cells == () and m.degree == 0 for m in monos)


@pytest.mark.parametrize(("lam", "error"), NON_PARTITIONS)
def test_transversal_monomials_rejects_non_partitions(lam, error):
    with pytest.raises(error):
        list(transversal_monomials(lam))


# --- scalar coefficients ------------------------------------------------------


def _tm(lam, cell_list):
    from cherednik_centre.presentation import TransversalMonomial

    degree = sum(hook_length(lam, c) for c in cell_list)
    return TransversalMonomial(tuple(cell_list), degree)


def test_vandermonde_coefficient_pins():
    lam = (3, 2)
    # the empty monomial gives the Vandermonde of the beta-set itself
    assert vandermonde_coefficient(lam, _tm(lam, [])) == 50400
    # degree-1 monomials: hooks 1 sit at cells (1,3) and (2,2)
    assert vandermonde_coefficient(lam, _tm(lam, [(1, 3)])) == 14400
    assert vandermonde_coefficient(lam, _tm(lam, [(2, 2)])) == 30240
    assert vandermonde_coefficient(lam, _tm(lam, [(1, 3), (2, 2)])) == 11520
    assert vandermonde_coefficient(lam, _tm(lam, [(2, 1)])) == 10080
    assert vandermonde_coefficient(lam, _tm(lam, [(1, 2)])) == -2880
    assert vandermonde_coefficient(lam, _tm(lam, [(1, 1)])) == -1440
    assert vandermonde_coefficient(lam, _tm(lam, [(1, 1), (2, 2)])) == -288
    assert vandermonde_coefficient(lam, _tm(lam, [(1, 2), (2, 1)])) == 288


def test_vandermonde_coefficient_rejects_foreign_cells():
    with pytest.raises(CellOutOfDiagram):
        vandermonde_coefficient((3, 2), _tm((2, 2, 1), [(3, 1)]))


# --- the direct construction --------------------------------------------------


def test_generators_follow_the_diagram():
    p = direct_presentation((3, 2))
    assert p.generators == (
        (GenSym(1, 4), 4),
        (GenSym(1, 3), 3),
        (GenSym(1, 1), 1),
        (GenSym(2, 2), 2),
        (GenSym(2, 1), 1),
    )
    assert p.meta.ell == 1
    assert p.meta.orientation == 1
    assert not p.meta.simplified


@pytest.mark.parametrize(("lam", "error"), NON_PARTITIONS)
def test_direct_presentation_rejects_non_partitions(lam, error):
    with pytest.raises(error):
        direct_presentation(lam)


@pytest.mark.parametrize("n", range(0, 10))
def test_direct_equals_wronskian_route(n):
    for lam in partitions_of(n):
        direct = direct_presentation(lam)
        oracle = wronski_relations(lam)
        assert len(direct.relations) == len(oracle.relations) == n
        for ours, theirs in zip(direct.relations, oracle.relations):
            assert ours == theirs, lam


@pytest.mark.parametrize("n", range(1, 7))
def test_relation_monomials_are_exactly_the_transversal_ones(n):
    for lam in partitions_of(n):
        p = direct_presentation(lam)
        seen = {
            s: {mono[1] for mono in rel}
            for s, rel in enumerate(p.relations, start=1)
        }
        expected: dict[int, set] = {s: set() for s in range(1, n + 1)}
        for m in transversal_monomials(lam):
            if m.degree == 0:
                continue
            key = tuple(
                sorted((GenSym(i, hook_length(lam, (i, j))), 1) for i, j in m.cells)
            )
            expected[m.degree].add(key)
        assert seen == expected, lam


@pytest.mark.parametrize("n", range(1, 10))
def test_every_term_is_the_vandermonde_coefficient(n):
    """Each relation term is ``orientation * vandermonde_coefficient`` of its
    transversal, computed pair by pair over the whole padded beta-set."""
    orientation = -1 if (n * (n - 1) // 2) % 2 else 1
    for lam in partitions_of(n):
        p = direct_presentation(lam)
        for m in transversal_monomials(lam):
            if m.degree == 0:
                continue
            key = (
                0,
                tuple((GenSym(i, hook_length(lam, (i, j))), 1) for i, j in m.cells),
            )
            expected = orientation * vandermonde_coefficient(lam, m)
            assert p.relations[m.degree - 1].get(key, 0) == expected, (lam, m)


@pytest.mark.parametrize("n", range(1, 7))
def test_every_generator_has_a_linear_term_in_its_degree(n):
    for lam in partitions_of(n):
        p = direct_presentation(lam)
        for g, d in p.generators:
            rel = p.relations[d - 1]
            assert rel.get((0, ((g, 1),)), 0) != 0, (lam, g)


def test_single_row_and_single_column_of_weight_2():
    """(2): r_1 = −2f_{1,1}, r_2 = −f_{1,2}; (1,1): r_1 = −2f_{2,1},
    r_2 = +f_{1,2} — hand-computed 2×2 Wronskians, orientation −1 at n=2."""
    p = direct_presentation((2,))
    assert p.relations[0] == {(0, ((GenSym(1, 1), 1),)): Fraction(-2)}
    assert p.relations[1] == {(0, ((GenSym(1, 2), 1),)): Fraction(-1)}
    q = direct_presentation((1, 1))
    assert q.relations[0] == {(0, ((GenSym(2, 1), 1),)): Fraction(-2)}
    assert q.relations[1] == {(0, ((GenSym(1, 2), 1),)): Fraction(1)}


def test_empty_partition_presents_the_base_field():
    p = direct_presentation(())
    assert p.generators == ()
    assert p.relations == ()
    assert quotient_ring_text(p) == "C"


# --- wreath filtering ---------------------------------------------------------


@pytest.mark.parametrize(("lam", "error"), NON_PARTITIONS)
def test_wreath_presentation_rejects_non_partition_components(lam, error):
    with pytest.raises(error):
        wreath_presentation(((1,), lam), 2)


def test_wreath_requires_matching_length():
    with pytest.raises(LengthMismatch):
        wreath_presentation(((1,), (1,)), 3)
    with pytest.raises(EllOutOfRange):
        wreath_presentation((), 0)


def test_wreath_of_2_2_pins():
    p = wreath_presentation(((1,), (1,)), 2)
    assert p.meta.source == ((1,), (1,))
    assert [g for g, _ in p.generators] == [GenSym(1, 2), GenSym(2, 2)]
    r2, r4 = p.relations
    assert r2 == {
        (0, ((GenSym(1, 2), 1),)): Fraction(-72),
        (0, ((GenSym(2, 2), 1),)): Fraction(120),
    }
    assert r4 == {(0, ((GenSym(1, 2), 1), (GenSym(2, 2), 1))): Fraction(12)}


def test_wreath_of_weight_9_example():
    p = wreath_presentation(((1, 1), (), (1,)), 3)
    assert [g for g, _ in p.generators] == [
        GenSym(1, 6),
        GenSym(2, 3),
        GenSym(4, 3),
    ]
    assert len(p.relations) == 3  # degrees 3, 6, 9


def _wreath_by_stripping(q, ell) -> GradedPresentation:
    """Reference route: the full direct presentation of ``from_quotient(q,
    ell)``, then drop the generators whose hook ``ell`` does not divide, the
    terms that use them, and the relations of degree not divisible by ell."""
    lam = from_quotient(q, ell)
    base = direct_presentation(lam)
    kept = tuple(gd for gd in base.generators if gd[0].degree % ell == 0)
    kept_symbols = {g for g, _ in kept}
    relations = tuple(
        {
            mono: c
            for mono, c in base.relations[s - 1].items()
            if all(g in kept_symbols for g, _ in mono[1])
        }
        for s in range(ell, weight(lam) + 1, ell)
    )
    return GradedPresentation(kept, relations, PresentationMeta(q, ell, 1))


def test_wreath_equals_the_stripped_direct_presentation():
    """Every label with n*ell <= 16, ell >= 2: at the larger ell most rows of
    ``from_quotient(q, ell)`` hold no eligible cell, and the walk skips them."""
    cases = list(wreath_cases(16))
    assert len(cases) == 1106
    for q, ell in cases:
        ours, reference = wreath_presentation(q, ell), _wreath_by_stripping(q, ell)
        assert ours.generators == reference.generators, (q, ell)
        assert ours.relations == reference.relations, (q, ell)
        assert ours.meta == reference.meta


@pytest.mark.parametrize("q,ell", list(wreath_cases(8)))
def test_wreath_degrees_and_support(q, ell):
    """Kept generators have hook degree divisible by ℓ; relations live in
    degrees ℓ, 2ℓ, …, and only involve kept generators."""
    p, _series = wreath_block(q, ell)
    lam = from_quotient(q, ell)
    kept = {g for g, _ in p.generators}
    assert all(g.degree % ell == 0 for g in kept)
    assert len(p.relations) == weight(lam) // ell
    for k, rel in enumerate(p.relations, start=1):
        if rel:
            assert weighted_degree(rel) == k * ell
        for _ue, gens in rel:
            assert all(s in kept for s, _ in gens)


# --- simplification -----------------------------------------------------------


def test_simplify_the_running_example():
    s = simplify(direct_presentation((3, 2)))
    assert quotient_ring_text(s) == "C[f1,1] / (f1,1^5)"
    assert s.meta.simplified
    assert [g for g, _ in s.generators] == [GenSym(1, 1)]


def test_simplify_wreath_examples():
    s = simplify(wreath_presentation(((1,), (1,)), 2))
    assert quotient_ring_text(s) == "C[f1,2] / (f1,2^2)"
    t = simplify(wreath_presentation(((1, 1), (), (1,)), 3))
    assert quotient_ring_text(t) == "C[f2,3] / (f2,3^3)"


def _has_eliminable_generator(p: GradedPresentation) -> bool:
    """Independent of ``simplify``: the linear-term test of the reference."""
    return any(_reference_eliminable(rel) for rel in p.relations)


@given(partitions_up_to(5))
def test_simplify_reaches_a_fixed_point_and_preserves_dimensions(lam):
    p = direct_presentation(lam)
    s = simplify(p)
    assert not _has_eliminable_generator(s)
    assert all(rel for rel in s.relations)
    before = graded_dimensions_from_presentation(p)
    after = graded_dimensions_from_presentation(s)
    assert before == after, lam


@pytest.mark.parametrize("q,ell", list(wreath_cases(8)))
def test_simplify_preserves_wreath_dimensions(q, ell):
    p, series = wreath_block(q, ell)
    assert graded_dimensions_from_presentation(simplify(p)) == series


def test_simplify_rejects_an_inhomogeneous_relation():
    """``f1,1 + f1,1^2`` next to ``f2,1^2``: a DomainError, not a TypeError
    from sorting by degree."""
    x, y = GenSym(1, 1), GenSym(2, 1)
    inhomogeneous = {(0, ((x, 1),)): Fraction(1), (0, ((x, 2),)): Fraction(1)}
    square = {(0, ((y, 2),)): Fraction(1)}
    p = GradedPresentation(
        ((x, 1), (y, 1)), (inhomogeneous, square), PresentationMeta((), 1, 1)
    )
    with pytest.raises(InhomogeneousRelation) as raised:
        simplify(p)
    assert raised.value.args == (inhomogeneous,)
    with pytest.raises(InhomogeneousRelation) as raised:
        simplify(GradedPresentation(p.generators, (square, inhomogeneous), p.meta))
    assert raised.value.args == (inhomogeneous,)


def test_presentation_text_rejects_an_inhomogeneous_relation():
    """The raw text form labels each relation ``r_<degree>``: ``f1,1 +
    f2,2`` has no degree, so it raises with that relation instead of
    printing a marker in place of the degree."""
    x, y = GenSym(1, 1), GenSym(2, 2)
    relation = {(0, ((x, 1),)): 1, (0, ((y, 1),)): 1}
    p = GradedPresentation(((x, 1), (y, 2)), (relation,), PresentationMeta((), 1, 1))
    with pytest.raises(InhomogeneousRelation) as raised:
        presentation_text(p)
    assert raised.value.args == (relation,)


@pytest.mark.parametrize("weight_of_x", [0, -1])
def test_simplify_rejects_a_symbol_of_weight_below_one(weight_of_x):
    """The packed codes bound each exponent by the relation degree over the
    symbol's weight, which needs every weight to be at least 1:
    ``f1,w * f2,1^(1-w) + 2*f2,1`` is homogeneous of degree 1 but rejected."""
    x, y = GenSym(1, weight_of_x), GenSym(2, 1)
    relation = {(0, ((x, 1), (y, 1 - weight_of_x))): Fraction(1), (0, ((y, 1),)): Fraction(2)}
    assert weighted_degree(relation) == 1
    p = GradedPresentation(((x, weight_of_x), (y, 1)), (relation,), PresentationMeta((), 1, 1))
    with pytest.raises(NegativeDegreeGenerator):
        simplify(p)


# --- the Fraction simplifier, kept as the reference -----------------------------


def _reference_eliminable(relation) -> list:
    """The generators whose scalar linear term is a monomial of ``relation``
    and that occur in no other monomial of it, each checked term by term."""
    out = []
    for (ue, gens), _ in relation.items():
        if ue or len(gens) != 1 or gens[0][1] != 1:
            continue
        g = gens[0][0]
        if all(
            g not in (s for s, _ in other[1])
            for other in relation
            if other != (ue, gens)
        ):
            out.append(g)
    return out


def _reference_simplify(presentation: GradedPresentation) -> GradedPresentation:
    """The rational-arithmetic reference for ``simplify``: every relation in
    ``Fraction`` arithmetic, ``g`` replaced by ``-rest / coefficient`` with
    ``polyring.add`` and ``mul``, and each linear term checked against every
    other monomial of its relation."""

    def linear(g):
        return (0, ((g, 1),))

    def substitute(p, g, value):
        out = {}
        for (ue, gens), c in p.items():
            exponent = dict(gens).get(g, 0)
            if not exponent:
                out = add(out, {(ue, gens): c})
                continue
            term = {(ue, tuple((s, e) for s, e in gens if s != g)): c}
            for _ in range(exponent):
                term = mul(term, value)
            out = add(out, term)
        return out

    generators = list(presentation.generators)
    relations = [r for r in presentation.relations if r]
    degrees = [weighted_degree(r) for r in relations]
    relations = [r for _, r in sorted(zip(degrees, relations), key=lambda dr: dr[0])]
    while True:
        victim = next(
            (
                (idx, max(found))
                for idx, rel in enumerate(relations)
                if (found := _reference_eliminable(rel))
            ),
            None,
        )
        if victim is None:
            break
        idx, g = victim
        rel = relations.pop(idx)
        rest = {mono: c for mono, c in rel.items() if mono != linear(g)}
        value = scale(rest, Fraction(-1) / rel[linear(g)])
        generators = [gd for gd in generators if gd[0] != g]
        relations = [q for q in (substitute(p, g, value) for p in relations) if q]
    monic = tuple(scale(r, 1 / r[min(r, key=term_sort_key)]) for r in relations)
    meta = replace(presentation.meta, simplified=True)
    return GradedPresentation(tuple(generators), monic, meta)


_SYMBOLS = (GenSym(1, 1), GenSym(2, 1), GenSym(3, 1), GenSym(1, 2), GenSym(2, 2), GenSym(1, 3))


def _monomials_of_degree(symbols, degree, with_u):
    """Every monomial of weighted ``degree`` in ``symbols`` (and ``u``)."""
    out = []
    for exponents in itertools.product(range(degree + 1), repeat=len(symbols) + 1):
        ue, gen_exponents = exponents[0], exponents[1:]
        if ue and not with_u:
            continue
        if ue + sum(s.degree * e for s, e in zip(symbols, gen_exponents)) == degree:
            out.append((ue, tuple((s, e) for s, e in zip(symbols, gen_exponents) if e)))
    return out


@st.composite
def _homogeneous_presentations(draw):
    symbols = sorted(draw(st.sets(st.sampled_from(_SYMBOLS), min_size=1, max_size=4)))
    with_u = draw(st.booleans())
    coefficient = st.builds(
        Fraction,
        st.integers(-12, 12).filter(bool),
        st.integers(1, 6),
    )
    relations = []
    for degree in draw(st.lists(st.integers(1, 4), max_size=5)):
        monomials = _monomials_of_degree(symbols, degree, with_u)
        if not monomials:
            continue
        chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=6, unique=True))
        relations.append({mono: draw(coefficient) for mono in chosen})
    if draw(st.booleans()):
        relations.insert(draw(st.integers(0, len(relations))), {})
    assume(any(c.denominator > 1 for rel in relations for c in rel.values()))
    generators = tuple((s, s.degree) for s in symbols)
    return GradedPresentation(generators, tuple(relations), PresentationMeta((), 1, 1))


@given(_homogeneous_presentations())
def test_simplify_equals_the_fraction_reference(p):
    before = copy.deepcopy(p)
    ours, reference = simplify(p), _reference_simplify(p)
    assert ours.generators == reference.generators
    assert ours.relations == reference.relations
    assert ours.meta == reference.meta
    assert p == before


def test_simplify_equals_the_fraction_reference_on_every_block():
    """All partitions of n <= 10 and all wreath labels with n*ell <= 10."""
    built = [direct_presentation(lam) for n in range(11) for lam in partitions_of(n)]
    built += [wreath_presentation(q, ell) for q, ell in wreath_cases(10)]
    assert len(built) == 139 + 190
    for p in built:
        ours, reference = simplify(p), _reference_simplify(p)
        assert ours == reference, p.meta.source


def test_simplify_fills_a_digit_to_its_bound_beside_a_live_digit():
    """Degree ``D = 5``, digits ``u, f1,1, f1,2, f2,1`` (most significant
    first): ``f2,1^5`` fills the last digit to its bound ``D // 1``, and
    ``f2,1 * f1,2^2`` fills ``f1,2``'s digit to ``D // 2`` beside a non-zero
    ``f2,1`` digit.  Eliminating ``f2,1 = f1,1 / 3`` must match the reference
    and keep ``f1,1^5`` and ``f1,1 * f1,2^2``; a digit one too narrow would
    carry into its neighbour."""
    x, y, z = GenSym(1, 1), GenSym(2, 1), GenSym(1, 2)
    linear = {(0, ((x, 1),)): Fraction(-1), (0, ((y, 1),)): Fraction(3)}
    top = {
        (0, ((y, 5),)): Fraction(1),
        (0, ((x, 1), (y, 4))): Fraction(2),
        (0, ((x, 5),)): Fraction(-1, 2),
        (0, ((y, 1), (z, 2))): Fraction(4),
        (1, ((x, 2), (z, 1))): Fraction(5),
        (5, ()): Fraction(7),
    }
    p = GradedPresentation(
        ((x, 1), (y, 1), (z, 2)), (top, linear), PresentationMeta((), 1, 1)
    )
    ours = simplify(p)
    assert ours == _reference_simplify(p)
    assert [g for g, _ in ours.generators] == [x, z]
    (relation,) = ours.relations
    assert (0, ((x, 5),)) in relation
    assert (0, ((x, 1), (z, 2))) in relation


def test_simplified_packed_relations_are_primitive():
    """The packed relations have content 1, though the elimination leaves
    the content in: all partitions of n <= 11 and wreath labels with
    n*ell <= 8."""
    built = [direct_presentation(lam) for n in range(12) for lam in partitions_of(n)]
    built += [wreath_presentation(q, ell) for q, ell in wreath_cases(8)]
    for p in built:
        for rel in simplify(p).relations.polys:
            assert math.gcd(*rel.values()) == 1, p.meta.source


def test_simplified_relations_are_monic():
    for lam in [(3, 2), (4,), (2, 2, 1)]:
        s = simplify(direct_presentation(lam))
        for rel in s.relations:
            leading = min(rel, key=term_sort_key)
            assert rel[leading] == 1


# --- grading flips and rendering ----------------------------------------------


def test_simplified_relations_are_decoded_only_when_read():
    """Rendering reads the packed codes; the ``Fraction`` relations are made
    on the first read of ``relations`` and equal the reference's."""
    p = direct_presentation((3, 2, 1))
    ours = simplify(p)
    quotient_ring_text(ours)
    presentation_document(ours)
    assert ours.relations._decoded is None
    assert ours.relations == _reference_simplify(p).relations
    assert ours.relations._decoded is not None
    assert len(ours.relations) == len(ours.relations[:]) == 3


def test_negate_grading_flips_degrees_and_orientation():
    p = direct_presentation((2, 1))
    m = negate_grading(p)
    assert [d for _, d in m.generators] == [-d for _, d in p.generators]
    assert m.meta.orientation == -p.meta.orientation
    assert m.relations == p.relations
    assert negate_grading(m).generators == p.generators


def test_quotient_ring_text_shapes():
    empty = GradedPresentation((), (), PresentationMeta((), 1, 1))
    assert quotient_ring_text(empty) == "C"
    free = GradedPresentation(
        ((GenSym(1, 2), 2),), (), PresentationMeta((2,), 1, 1)
    )
    assert quotient_ring_text(free) == "C[f1,2]"
    gprefix = GradedPresentation(
        ((GenSym(1, 2), -2),), (), PresentationMeta((2,), 1, -1, prefix="g")
    )
    assert quotient_ring_text(gprefix) == "C[g1,2]"


def test_presentation_document_schema():
    doc = presentation_document(simplify(direct_presentation((3, 2))))
    assert set(doc) == {"generators", "relations", "metadata"}
    assert doc["generators"] == [
        {"name": "f1,1", "row": 1, "hook": 1, "degree": 1}
    ]
    assert doc["relations"] == [
        [{"coefficient": "1", "monomial": ["f1,1"] * 5}]
    ]
    assert doc["metadata"] == {
        "partition": [3, 2],
        "ell": 1,
        "orientation": 1,
        "simplified": True,
    }


def test_presentation_document_multipartition_label():
    doc = presentation_document(wreath_presentation(((1,), (1,)), 2))
    assert doc["metadata"]["partition"] == [[1], [1]]
    assert doc["metadata"]["ell"] == 2
    first_term = doc["relations"][0][0]
    assert set(first_term) == {"coefficient", "monomial"}
    assert isinstance(first_term["coefficient"], str)


def _reference_document(presentation):
    """The document with one dict per term (``reference.json_terms``)."""
    prefix = presentation.meta.prefix
    packed = _packed(presentation.relations)
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


def _documented_presentations(built):
    """``built``, simplified, and both with negated grading under prefix ``g``
    (a centre's minus part)."""
    for p in (built, simplify(built)):
        yield p
        minus = negate_grading(p)
        yield replace(minus, meta=replace(minus.meta, prefix="g"))


def test_presentation_document_equals_the_reference_for_small_labels():
    labels = [(lam, 1) for n in range(9) for lam in partitions_of(n)]
    labels += [
        (q, ell) for ell in range(2, 9) for n in range(8 // ell + 1)
        for q in multipartitions_of(n, ell)
    ]
    for label, ell in labels:
        built = direct_presentation(label) if ell == 1 else wreath_presentation(label, ell)
        for p in _documented_presentations(built):
            assert presentation_document(p) == _reference_document(p), (label, ell)
