"""Direct combinatorial presentations, wreath filtering, and simplification."""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

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
from cherednik_centre import abacus, partitions
from cherednik_centre.abacus import _staircase_beads
from cherednik_centre.partitions import _beta_set
from cherednik_centre.polyring import PackedPolys
from cherednik_centre.presentation import (
    GradedPresentation,
    PresentationMeta,
    _eliminate,
    _presentation_json,
    _quotient_beta_set,
    presentation_text,
)

from conftest import NON_PARTITIONS, partitions_up_to
from reference import (
    add,
    blocks,
    dumps_at_depth,
    eliminate_scaled,
    hook_table_generators,
    mul,
    scale,
    simplify_by_restart,
    simplify_equals_restart,
    reference_document,
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


def test_generators_equal_the_hook_table():
    """The cells read off the beta-set's gaps are the hook table's cells
    whose hook ell divides, in the same order, each generator of degree its
    hook: every partition of n <= 9 and every wreath label with n*ell <= 12."""
    labels = [lam for n in range(10) for lam in partitions_of(n)]
    assert len(labels) == 97
    for lam in labels:
        assert direct_presentation(lam).generators == hook_table_generators(lam), lam
    cases = list(wreath_cases(12))
    assert len(cases) == 396
    for q, ell in cases:
        expected = hook_table_generators(from_quotient(q, ell), ell)
        assert wreath_presentation(q, ell).generators == expected, (q, ell)
        assert all(g.degree == d for g, d in expected)


def test_presentations_build_no_hook_table_and_no_partition(monkeypatch):
    """Both routes read their cells off a beta-set: with the conjugate,
    which the hook table is built from, and the read-back of a bead diagram
    to a partition made to fail, they still build the same presentations."""
    labels = [((3, 2), 1), ((4, 4, 2, 1), 1), (((1, 1), (), (1,)), 3), (((2, 1), (2,)), 2)]

    def build(label, ell):
        return direct_presentation(label) if ell == 1 else wreath_presentation(label, ell)

    expected = [build(label, ell) for label, ell in labels]

    def fail(*_args):
        raise AssertionError("not on the beta-set route")

    monkeypatch.setattr(partitions, "_transpose", fail)
    monkeypatch.setattr(abacus, "_partition_from_positions", fail)
    with pytest.raises(AssertionError):
        hook_length((3, 2), (1, 1))
    with pytest.raises(AssertionError):
        from_quotient(((1,), ()), 2)
    for (label, ell), reference in zip(labels, expected):
        ours = build(label, ell)
        assert ours.generators == reference.generators
        assert ours.relations.polys == reference.relations.polys


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


def test_packed_relations_from_polys_compare_code_for_code():
    """``from_polys`` keeps its leads as a tuple, as the builders do, so the
    direct relations of ``3,2`` packed again from their polynomials compare
    equal to the built ones on the same codec, with neither side decoded."""
    built = direct_presentation((3, 2)).relations
    packed = PackedPolys.from_polys(tuple(direct_presentation((3, 2)).relations))
    assert packed.radix.symbols == built.radix.symbols
    assert packed.radix.bases == built.radix.bases
    assert packed.leads == built.leads == (1,) * 5
    assert packed == built and built == packed
    assert packed._decoded is None and built._decoded is None


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


def test_wreath_beta_set_is_read_off_the_staircase():
    """The wreath route's beta-set, the quotient's staircase beads shifted,
    is that of ``from_quotient(q, ell)`` padded to its weight: every wreath
    label with n*ell <= 12, the empty labels, and staircases with more beads
    than the weight, whose lowest beads drop."""
    more = [
        (((), (), (1,)), 3), (((), (1,)), 2), (((), (), (), (1, 1)), 4), (((), (), (), (1,)), 4),
    ]
    empty = [(((),) * ell, ell) for ell in (1, 2, 3)]
    cases = list(wreath_cases(12)) + empty + more
    for q, ell in more:
        assert len(_staircase_beads(q, ell)) > ell * sum(map(sum, q)), q
    outnumbered = 0
    for q, ell in cases:
        n = ell * sum(map(sum, q))
        outnumbered += len(_staircase_beads(q, ell)) > n
        assert _quotient_beta_set(q, ell) == _beta_set(from_quotient(q, ell), n), (q, ell)
    assert _quotient_beta_set(((), ()), 2) == ()
    assert outnumbered > len(more)


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
    """``f1,1 + f1,1^2`` next to ``f2,1^2``: a DomainError when the
    presentation ``simplify`` would read is built, in either order."""
    x, y = GenSym(1, 1), GenSym(2, 1)
    inhomogeneous = {(0, ((x, 1),)): Fraction(1), (0, ((x, 2),)): Fraction(1)}
    square = {(0, ((y, 2),)): Fraction(1)}
    meta = PresentationMeta((), 1, 1)
    with pytest.raises(InhomogeneousRelation) as raised:
        GradedPresentation(((x, 1), (y, 1)), (inhomogeneous, square), meta)
    assert raised.value.args == (inhomogeneous,)
    with pytest.raises(InhomogeneousRelation) as raised:
        GradedPresentation(((x, 1), (y, 1)), (square, inhomogeneous), meta)
    assert raised.value.args == (inhomogeneous,)


def test_presentation_text_rejects_an_inhomogeneous_relation():
    """The raw text form labels each relation ``r_<degree>``: ``f1,1 +
    f2,2`` has no degree, so building the presentation raises with that
    relation, and no text form with a marker in place of the degree is
    ever printed."""
    x, y = GenSym(1, 1), GenSym(2, 2)
    relation = {(0, ((x, 1),)): 1, (0, ((y, 1),)): 1}
    with pytest.raises(InhomogeneousRelation) as raised:
        GradedPresentation(((x, 1), (y, 2)), (relation,), PresentationMeta((), 1, 1))
    assert raised.value.args == (relation,)


@pytest.mark.parametrize("weight_of_x", [0, -1])
def test_simplify_rejects_a_symbol_of_weight_below_one(weight_of_x):
    """The packed codes bound each exponent by the relation degree over the
    symbol's weight, which needs every weight to be at least 1:
    ``f1,w * f2,1^(1-w) + 2*f2,1`` is homogeneous of degree 1 but rejected
    when the presentation is built."""
    x, y = GenSym(1, weight_of_x), GenSym(2, 1)
    relation = {(0, ((x, 1), (y, 1 - weight_of_x))): Fraction(1), (0, ((y, 1),)): Fraction(2)}
    assert weighted_degree(relation) == 1
    with pytest.raises(NegativeDegreeGenerator) as raised:
        GradedPresentation(((x, weight_of_x), (y, 1)), (relation,), PresentationMeta((), 1, 1))
    assert raised.value.args == ((x,),)


def test_a_rebuilt_presentation_gets_the_same_codes():
    """Every block of n*ell <= 12: the relations read back as polynomials
    and packed again when a presentation is built from them land on the
    codec and the codes they were enumerated on."""
    built = list(blocks(12))
    assert len(built) == 668
    for label, ell, p in built:
        rebuilt = GradedPresentation(p.generators, tuple(p.relations), p.meta)
        assert rebuilt.relations.radix.bases == p.relations.radix.bases, (label, ell)
        assert rebuilt.relations.polys == p.relations.polys, (label, ell)


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


# --- the restart scan, kept as the integer reference --------------------------


@given(_homogeneous_presentations())
def test_simplify_equals_the_integer_reference(p):
    ours, reference = simplify(p), simplify_by_restart(p)
    assert ours.generators == reference.generators
    assert ours.relations.polys == reference.relations.polys


def test_simplify_equals_the_integer_reference_on_every_block():
    """Same generators and the same packed relations, int for int and sign
    for sign: every partition of n <= 12 and every wreath label with
    n*ell <= 12."""
    assert simplify_equals_restart(12) is None


def test_simplify_removes_the_last_row_of_each_hook():
    """For each hook length ``h`` of the presentation, ``simplify`` removes
    ``f_{i, h}`` for the largest row ``i`` holding a cell of hook ``h``, and
    nothing else; the same blocks as above."""
    count = 0
    for label, ell, built in blocks(12):
        lam = label if ell == 1 else from_quotient(label, ell)
        last_row = {}
        for i, j in cells(lam):
            h = hook_length(lam, (i, j))
            if h % ell == 0:
                last_row[h] = max(last_row.get(h, 0), i)
        kept = {g for g, _ in simplify(built).generators}
        removed = {g for g, _ in built.generators} - kept
        assert removed == {GenSym(i, h) for h, i in last_row.items()}, (label, ell)
        count += 1
    assert count == 272 + 396


_X, _Y, _Z = GenSym(1, 1), GenSym(2, 1), GenSym(3, 1)


def _checked_simplify(p: GradedPresentation) -> GradedPresentation:
    """``simplify(p)``, asserted equal to both references."""
    ours = simplify(p)
    reference = simplify_by_restart(p)
    assert ours.generators == reference.generators
    assert ours.relations.polys == reference.relations.polys
    assert ours == _reference_simplify(p)
    return ours


def test_one_pass_substitutes_a_victim_into_a_later_relation_of_its_degree():
    """``x + 2y`` spends ``y``, which is a linear term of ``3x + 4y + 6z``
    of the same degree; that relation takes ``y = -x/2`` when it is reached
    and then spends ``z``; the degree-2 relation takes both."""
    linear = {(0, ((_X, 1),)): 1, (0, ((_Y, 1),)): 2}
    same_degree = {(0, ((_X, 1),)): 3, (0, ((_Y, 1),)): 4, (0, ((_Z, 1),)): 6}
    quadratic = {(0, ((_Z, 2),)): 36, (0, ((_X, 1), (_Y, 1))): 1, (2, ()): 1}
    p = GradedPresentation(
        ((_X, 1), (_Y, 1), (_Z, 1)), (quadratic, same_degree, linear), PresentationMeta((), 1, 1)
    )
    s = _checked_simplify(p)
    assert [g for g, _ in s.generators] == [_X]
    assert quotient_ring_text(s) == "C[f1,1] / (u^2 + 1/2*f1,1^2)"


def test_one_pass_eliminates_a_generator_that_occurs_squared():
    """``3y - x`` spends ``y``, which occurs squared in ``3y^2 + 3xy + x^2 +
    u^2``: ``9 * p(y = x/3)`` is ``3 * (7x^2 + 3u^2)``.  The kernel's first
    pass divides out 3, its second nothing, and the result is a third of
    the scaled substitution."""
    linear = {(0, ((_X, 1),)): -1, (0, ((_Y, 1),)): 3}
    square = {
        (0, ((_Y, 2),)): 3, (0, ((_X, 1), (_Y, 1))): 3, (0, ((_X, 2),)): 1, (2, ()): 1,
    }
    p = GradedPresentation(((_X, 1), (_Y, 1)), (linear, square), PresentationMeta((), 1, 1))
    s = _checked_simplify(p)
    assert [g for g, _ in s.generators] == [_X]
    assert quotient_ring_text(s) == "C[f1,1] / (u^2 + 7/3*f1,1^2)"
    (packed_linear, packed_square), _ = s.relations.radix.pack((linear, square))
    place, base = s.relations.radix.places[2], s.relations.radix.bases[2]
    rest = {code: c for code, c in packed_linear.items() if code != place}
    before, rest_before = dict(packed_square), dict(rest)
    ours = _eliminate(packed_square, place, base, 3, rest)
    assert packed_square == before and rest == rest_before
    negated_rest = {code: -c for code, c in rest.items()}
    scaled = eliminate_scaled(packed_square, place, base, 3, [{0: 1}, negated_rest])
    assert scaled == {code: 3 * c for code, c in ours.items()}
    assert sorted(ours.values()) == [3, 7]


def test_raw_relations_are_multilinear():
    """Every monomial of a raw relation holds each generator at most once,
    since a transversal uses each cell once: on every partition of n <= 10
    and every wreath label with n*ell <= 8.  So no substitution of
    :func:`simplify` on a block meets a squared generator, and
    ``_eliminate`` makes one pass."""
    built = [direct_presentation(lam) for n in range(11) for lam in partitions_of(n)]
    built += [wreath_presentation(q, ell) for q, ell in wreath_cases(8)]
    codes = 0
    for p in built:
        decode = p.relations.radix.decode
        for relation in p.relations.polys:
            for code in relation:
                assert all(e == 1 for _s, e in decode(code)[1]), (p.meta.source, code)
            codes += len(relation)
    assert codes > len(built)


@pytest.mark.parametrize(
    ("p", "lead", "rest", "ratio"),
    [
        # g absent: p itself
        pytest.param({32: 5, 48: -7}, 2, {16: -3}, 1, id="E=0"),
        # 5x^2 + 4xg + 6g with g = 3x/2: G = gcd(2, 4, 6) = lead, no rescaling
        pytest.param({32: 5, 17: 4, 1: 6}, 2, {16: -3}, 2, id="E=1-lead-divides"),
        # the same with g = x: G = 1, the free term rescaled by 3
        pytest.param({32: 5, 17: 4, 1: 6}, 3, {16: -3}, 1, id="E=1-lead-scales"),
    ],
)
def test_eliminate_branches(p, lead, rest, ratio):
    """The kernel on ``x`` above ``g`` (base 16, place 1), with ``g``
    absent, with the free terms kept and with them rescaled:
    the scaled substitution over exactly ``G``, and neither ``p`` nor the
    substitution's ``rest`` changed."""
    before, rest_before = dict(p), dict(rest)
    ours = _eliminate(p, 1, 16, lead, rest)
    assert p == before and rest == rest_before
    assert (ours is p) == (not any(code % 16 for code in p))
    negated_rest = {code: -c for code, c in rest.items()}
    scaled = eliminate_scaled(p, 1, 16, lead, [{0: 1}, negated_rest])
    assert scaled == {code: ratio * c for code, c in ours.items()}


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 3)),
        st.integers(-30, 30).filter(bool),
        min_size=1,
        max_size=6,
    ),
    st.dictionaries(st.integers(0, 2), st.integers(-30, 30).filter(bool), max_size=3),
    st.integers(-12, 12).filter(bool),
)
# g^2 + x with g = 0 and lead -1: the second pass holds nothing and must
# still scale by the sign of lead
@example({(0, 2): 1, (1, 0): 1}, {}, -1)
def test_eliminate_is_a_positive_multiple_of_the_scaled_substitution(terms, rest, lead):
    """Two digits, ``x`` above ``g`` (base 16, place 1): ``p`` holds
    ``x^a * g^e`` with ``e <= 3``, ``rest`` is a polynomial in ``x`` of
    degree <= 2, so no exponent reaches 16.  The kernel's result has the
    monomials of ``lead^E * p(g = -rest/lead)`` and is a positive multiple
    of it, with int coefficients."""
    p = {a * 16 + e: c for (a, e), c in terms.items()}
    packed_rest = {a * 16: c for a, c in rest.items()}
    ours = _eliminate(p, 1, 16, lead, packed_rest)
    scaled = eliminate_scaled(p, 1, 16, lead, [{0: 1}, {a: -c for a, c in packed_rest.items()}])
    assert set(ours) == set(scaled)
    assert all(type(c) is int for c in ours.values())
    ratios = {Fraction(ours[code], scaled[code]) for code in ours}
    assert len(ratios) <= 1 and all(r > 0 for r in ratios)


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
    assert m.meta.prefix == "g"
    assert quotient_ring_text(simplify(m)) == "C[g1,1] / (g1,1^2)"
    assert negate_grading(m) == p


def test_quotient_ring_text_shapes():
    empty = GradedPresentation((), (), PresentationMeta((), 1, 1))
    assert quotient_ring_text(empty) == "C"
    free = GradedPresentation(
        ((GenSym(1, 2), 2),), (), PresentationMeta((2,), 1, 1)
    )
    assert quotient_ring_text(free) == "C[f1,2]"
    gprefix = GradedPresentation(
        ((GenSym(1, 2), -2),), (), PresentationMeta((2,), 1, -1)
    )
    assert quotient_ring_text(gprefix) == "C[g1,2]"
    # no generators, but a relation: the zero ring, not C
    zero = GradedPresentation((), [{(0, ()): 1}], PresentationMeta((), 1, 1))
    assert quotient_ring_text(zero) == "C / (1)"


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


# ``u^2 + 3*f1,1^2``: a relation with a pure power of ``u``, which JSON names
# ``"u"`` once per power, as the text form writes it
_U_PRESENTATION = GradedPresentation(
    ((GenSym(1, 1), 1),), [{(2, ()): 1, (0, ((GenSym(1, 1), 2),)): 3}], PresentationMeta((), 1, 1)
)


def _documented_presentations():
    """Each small label's presentation, simplified, and both with negated
    grading, named ``g`` (a centre's minus part), after the label and ell;
    then the presentation with a ``u`` term."""
    for label, ell, built in _small_labels():
        for p in (built, simplify(built)):
            yield (label, ell), p
            yield (label, ell), negate_grading(p)
    yield "u relation", _U_PRESENTATION


def _small_labels():
    """Every partition of n <= 8 and every wreath label with n*ell <= 8."""
    labels = [(lam, 1) for n in range(9) for lam in partitions_of(n)]
    labels += [
        (q, ell) for ell in range(2, 9) for n in range(8 // ell + 1)
        for q in multipartitions_of(n, ell)
    ]
    for label, ell in labels:
        built = direct_presentation(label) if ell == 1 else wreath_presentation(label, ell)
        yield label, ell, built


def test_presentation_json_names_u_once_per_power():
    """The document states the relation the text form prints: ``u^2`` is
    two ``"u"`` names, and ``u`` follows the generators, as in ``f1,1*u``."""
    assert presentation_text(_U_PRESENTATION).endswith("r_2 = u^2 + 3*f1,1^2")
    terms = presentation_document(_U_PRESENTATION)["relations"][0]
    assert [t["monomial"] for t in terms] == [["u", "u"], ["f1,1", "f1,1"]]
    x = GenSym(1, 1)
    mixed = {(2, ()): 1, (1, ((x, 1),)): -2, (0, ((x, 2),)): 3}
    p = GradedPresentation(((x, 1),), [mixed], PresentationMeta((), 1, 1))
    assert presentation_text(p).endswith("r_2 = u^2 - 2*f1,1*u + 3*f1,1^2")
    terms = presentation_document(p)["relations"][0]
    assert [t["monomial"] for t in terms] == [["u", "u"], ["f1,1", "u"], ["f1,1", "f1,1"]]


def test_presentation_document_equals_the_reference_for_small_labels():
    for where, p in _documented_presentations():
        assert presentation_document(p) == reference_document(p), where


def test_presentation_json_equals_json_dumps_of_the_reference_at_depth():
    """The writer's text, byte for byte, top level and three lists deep."""
    for where, p in _documented_presentations():
        reference = reference_document(p)
        for depth in (0, 3):
            pad = "\n" + "  " * depth
            assert _presentation_json(p, pad) == dumps_at_depth(reference, depth), where
