"""Schubert bases, symbolic Wronskians, and the recursive evaluation route."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from cherednik_centre import (
    EmptyPartition,
    GenSym,
    InexactDivision,
    beta_set,
    partitions_of,
    row_hook_set,
    schubert_basis,
    weighted_degree,
    wronski_relations,
    wronskian,
    wronskian_recursive,
)
from cherednik_centre.polyring import PackedPolys
from cherednik_centre.wronski import SchubertBasis

from conftest import NON_PARTITIONS
from reference import (
    add,
    const,
    d_du,
    det_by_laplace_memo,
    gen,
    monomial,
    mul,
    scale,
    u_power,
)


F11, F21, F22 = GenSym(1, 1), GenSym(2, 1), GenSym(2, 2)


def _basis_support(poly):
    symbols = set()
    for _ue, gens in poly:
        symbols.update(s for s, _ in gens)
    return symbols


def test_schubert_basis_of_3_2():
    basis = schubert_basis((3, 2))
    assert basis.source == (3, 2, 0, 0, 0)
    degrees = [max(ue for ue, _ in p) for p in basis.polys]
    assert degrees == [7, 5, 2, 1, 0]
    f1 = basis.polys[0]
    expected_f1 = u_power(7)
    for j in (1, 3, 4):
        expected_f1 = add(expected_f1, mul(gen(GenSym(1, j)), u_power(7 - j)))
    assert f1 == expected_f1
    assert basis.polys[2] == u_power(2)
    assert basis.polys[4] == const(1)


@pytest.mark.parametrize("n", range(1, 8))
def test_basis_polys_use_exactly_the_row_hook_symbols(n):
    for lam in partitions_of(n):
        basis = schubert_basis(lam)
        for i, poly in enumerate(basis.polys, start=1):
            expected = {GenSym(i, j) for j in row_hook_set(lam, i)}
            assert _basis_support(poly) == expected
            d_i = beta_set(lam, n)[i - 1]
            assert poly[(d_i, ())] == 1  # monic
            assert weighted_degree(poly) == d_i


@pytest.mark.parametrize(("lam", "error"), NON_PARTITIONS)
def test_non_partitions_are_rejected(lam, error):
    with pytest.raises(error):
        schubert_basis(lam)
    with pytest.raises(error):
        wronski_relations(lam)


def test_empty_partition():
    assert schubert_basis(()) == SchubertBasis((), ())
    with pytest.raises(EmptyPartition):
        wronskian(SchubertBasis((), ()))
    relations = wronski_relations(())
    assert relations.leading == 1
    assert isinstance(relations.relations, PackedPolys)
    assert relations.relations == ()


@pytest.mark.parametrize("n", range(1, 8))
def test_wronskian_is_homogeneous_of_weight_n(n):
    for lam in partitions_of(n):
        assert weighted_degree(wronskian(schubert_basis(lam))) == n


@pytest.mark.parametrize("n", range(1, 8))
def test_relations_are_homogeneous_and_squarefree(n):
    for lam in partitions_of(n):
        result = wronski_relations(lam)
        for s, rel in enumerate(result.relations, start=1):
            if rel:
                assert weighted_degree(rel) == s
            for _ue, gens in rel:
                assert all(e == 1 for _sym, e in gens)


@pytest.mark.parametrize("n", range(1, 8))
def test_no_monomial_mixes_same_column_symbols(n):
    """Two generator symbols never co-occur when their cells share a column,
    i.e. when d_i − j = d_s − t."""
    for lam in partitions_of(n):
        beta = beta_set(lam, n)
        result = wronski_relations(lam)
        for rel in result.relations:
            for _ue, gens in rel:
                exponents = [beta[s.row - 1] - s.degree for s, _ in gens]
                assert len(set(exponents)) == len(exponents), (lam, gens)


@pytest.mark.parametrize("n", range(1, 8))
def test_linear_terms_sit_exactly_in_their_own_degree(n):
    for lam in partitions_of(n):
        result = wronski_relations(lam)
        symbols = {
            GenSym(i, j) for i in range(1, n + 1) for j in row_hook_set(lam, i)
        }
        for s, rel in enumerate(result.relations, start=1):
            linear = {
                gens[0][0]
                for _ue, gens in rel
                if len(gens) == 1 and gens[0][1] == 1
            }
            expected = {sym for sym in symbols if sym.degree == s}
            assert linear == expected, (lam, s)
            for sym in expected:
                assert rel[(0, ((sym, 1),))] != 0


def test_example_leading_coefficient_and_low_relations():
    result = wronski_relations((3, 2))
    assert result.leading == 50400 and type(result.leading) is int
    r1 = result.relations[0]
    assert r1[(0, ((GenSym(1, 1), 1),))] == 14400
    assert r1[(0, ((GenSym(2, 1), 1),))] == 30240
    r5 = result.relations[4]
    key = (0, tuple(sorted([(GenSym(1, 3), 1), (GenSym(2, 2), 1)])))
    assert r5[key] == 288


# --- recursive route ----------------------------------------------------------


def test_recursive_wronskian_pins():
    assert wronskian_recursive([const(1), u_power(1), u_power(2), u_power(3)]) == const(
        12
    )
    assert wronskian_recursive([u_power(1), u_power(2)]) == u_power(2)
    monomials = [u_power(d) for d in (0, 1, 2, 4, 6)]
    assert wronskian_recursive(monomials) == scale(u_power(3), 11520)
    assert wronskian_recursive([]) == const(1)
    assert wronskian_recursive([u_power(5)]) == u_power(5)


def test_recursive_wronskian_rejects_multi_term_heads():
    with pytest.raises(InexactDivision):
        wronskian_recursive([add(u_power(1), const(1)), u_power(2)])


def test_recursive_wronskian_of_3_u_7u3_is_exact():
    """The determinant gives -126 on the reversed basis, and the column
    reversal of three columns is odd."""
    result = wronskian_recursive([{(0, ()): 3}, {(1, ()): 1}, {(3, ()): 7}])
    assert result == {(1, ()): 126}
    assert type(result[(1, ())]) is int


def test_recursive_wronskian_divides_generator_factors():
    """``3*f1,1`` divides ``3/2*f1,1^2*f2,2*u``; the Wronskian is the head
    squared times ``(1/2*f1,1*f2,2*u)' = 1/2*f1,1*f2,2``."""
    basis = [monomial(0, {F11: 1}, 3), monomial(1, {F11: 2, F22: 1}, Fraction(3, 2))]
    assert wronskian_recursive(basis) == monomial(0, {F11: 3, F22: 1}, Fraction(9, 2))


def test_recursive_wronskian_edge_cases():
    assert wronskian_recursive([]) == {(0, ()): 1}
    assert wronskian_recursive([{(2, ((F11, 1),)): -5}]) == {(2, ((F11, 1),)): -5}
    # A repeated degree: (f_2 / f_1)' is zero, and so is the Wronskian.
    assert wronskian_recursive([u_power(1), u_power(2), scale(u_power(2), 3)]) == {}
    basis = [gen(F11), mul(gen(F11), u_power(1)), monomial(1, {F11: 1, F22: 1})]
    assert wronskian_recursive(basis) == {}


@pytest.mark.parametrize(
    "polys",
    [
        [u_power(2), u_power(1)],  # decreasing degree: u^2 does not divide u
        [const(1), u_power(3), u_power(2)],  # a decreasing pair after the head
        [gen(F22), mul(gen(F11), u_power(1))],  # f2,2 does not divide f1,1*u
        [const(1), mul(gen(F22), u_power(1)), mul(gen(F11), u_power(2))],  # nor at step two
        [u_power(1), add(u_power(3), u_power(2))],  # a multi-term later entry
        [{}, u_power(1)],  # a zero head
        [u_power(1), {}],  # a zero later entry
    ],
)
def test_recursive_wronskian_rejects_what_does_not_divide(polys):
    with pytest.raises(InexactDivision):
        wronskian_recursive(polys)


def _reference_wronskian(polys):
    """The determinant of the ``d_du`` derivative rows, by the reference
    Laplace expansion on ``MPoly`` dicts: it shares no packing, digit sizing
    or sweep with the packed route it checks."""
    rows = [list(polys)]
    for _ in range(len(polys) - 1):
        rows.append([d_du(p) for p in rows[-1]])
    return det_by_laplace_memo(rows)


def _monomial_matrix_wronskian(degrees):
    return _reference_wronskian([u_power(d) for d in degrees])


@given(st.sets(st.integers(0, 9), min_size=1, max_size=5))
def test_recursive_equals_determinant_up_to_column_reversal(degree_set):
    increasing = sorted(degree_set)
    decreasing = sorted(degree_set, reverse=True)
    n = len(degree_set)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    det_route = _monomial_matrix_wronskian(decreasing)
    rec_route = wronskian_recursive([u_power(d) for d in increasing])
    assert rec_route == scale(det_route, sign)


_RECURSIVE_SYMBOLS = (F11, F21, F22)  # sorted
_signed_coefficients = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool),
)


@st.composite
def _dividing_single_term_bases(draw):
    """Up to five single terms with increasing ``u`` degrees up to 9 and
    generator exponents that never fall along the list, so that every step
    of the recursion divides; int and ``Fraction`` coefficients of either
    sign."""
    degrees = sorted(draw(st.sets(st.integers(0, 9), min_size=1, max_size=5)))
    exponents = dict.fromkeys(_RECURSIVE_SYMBOLS, 0)
    basis = []
    for d in degrees:
        for s in _RECURSIVE_SYMBOLS:
            exponents[s] += draw(st.integers(0, 2))
        gens = tuple((s, e) for s, e in exponents.items() if e)
        basis.append({(d, gens): draw(_signed_coefficients)})
    return basis


@given(_dividing_single_term_bases())
@example([{(0, ()): 3}, {(1, ()): 1}, {(3, ()): 7}])
def test_recursive_route_is_exact_and_equals_the_determinant(basis):
    n = len(basis)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    expected = wronskian(SchubertBasis((), tuple(basis[::-1])))
    result = wronskian_recursive(basis)
    assert result == {mono: sign * c for mono, c in expected.items()}
    assert all(type(c) in (int, Fraction) for c in result.values())


@pytest.mark.parametrize("n", range(1, 6))
def test_monomial_wronskian_never_vanishes_on_beta_sets(n):
    for lam in partitions_of(n):
        det = _monomial_matrix_wronskian(beta_set(lam, n))
        assert det, lam
        total = sum(beta_set(lam, n)) - n * (n - 1) // 2
        assert det == scale(u_power(total), next(iter(det.values())))


# --- packed route against the reference ---------------------------------------

_symbols = st.sampled_from([GenSym(1, 1), GenSym(1, 2), GenSym(2, 1), GenSym(3, 2)])
_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)


@st.composite
def _basis_polys(draw):
    """A polynomial of up to four terms, or zero: ``Fraction`` coefficients,
    ``u`` exponents up to 5 and generator exponents up to 3."""
    p = {}
    for _ in range(draw(st.integers(0, 4))):
        factors = {}
        for _ in range(draw(st.integers(0, 2))):
            s = draw(_symbols)
            factors[s] = factors.get(s, 0) + draw(st.integers(1, 3))
        p = add(p, monomial(draw(st.integers(0, 5)), factors, draw(_fractions)))
    return p


@given(st.lists(_basis_polys(), min_size=1, max_size=5))
# A zero column.
@example([u_power(2), {}, add(gen(F11), u_power(1))])
# The column-wise f1,1 base, 1 + 1 + 3, is below the row-wise one, 1 + 3 + 3,
# and the Wronskian -1/3*f1,1^4*u^2 fills that digit to its top.
@example([monomial(1, {F11: 1}, Fraction(1, 2)), monomial(2, {F11: 3}, Fraction(-2, 3))])
# Two symbols in one column and a constant term.
@example([add(monomial(3, {F11: 1, F21: 2}), monomial(1, {F21: 1}, 5)),
          monomial(2, {F11: 3}, Fraction(7, 4)), add(u_power(1), const(Fraction(1, 3)))])
# A repeated two-term column: every term of the last minor cancels, so the
# Wronskian is {} only if the sweep drops that minor.
@example([add(u_power(2), mul(gen(F11), u_power(1)))] * 2)
def test_packed_wronskian_equals_the_determinant_of_derivative_rows(polys):
    assert wronskian(SchubertBasis((), tuple(polys))) == _reference_wronskian(polys)


@pytest.mark.parametrize("n", range(1, 8))
def test_packed_wronskian_of_schubert_bases_equals_the_reference(n):
    """Both packers, ``wronskian`` on the basis and ``wronski_relations``
    on the packed columns the basis decodes, against the reference: the leading
    coefficient is that of ``u^n`` and relation ``s`` that of ``u^(n-s)``."""
    for lam in partitions_of(n):
        basis = schubert_basis(lam)
        reference = _reference_wronskian(basis.polys)
        packed = wronskian(basis)
        assert packed == reference, lam
        assert all(type(c) is int for c in packed.values()), lam
        split = [{} for _ in range(n + 1)]
        for (ue, gens), c in reference.items():
            split[n - ue][(0, gens)] = c
        result = wronski_relations(lam)
        assert result.leading == split[0].pop((0, ()), 0) and not split[0], lam
        assert result.relations == tuple(split[1:]), lam
