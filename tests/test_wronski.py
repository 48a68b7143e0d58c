"""Schubert bases, symbolic Wronskians, and the recursive evaluation route."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cherednik_centre import (
    EmptyPartition,
    GenSym,
    InexactDivision,
    beta_set,
    const,
    gen,
    mul,
    partitions_of,
    row_hook_set,
    schubert_basis,
    scale,
    u_power,
    weight,
    weighted_degree,
    wronski_relations,
    wronskian,
    wronskian_recursive,
)
from cherednik_centre.wronski import SchubertBasis

from reference import add


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


def test_empty_partition():
    assert schubert_basis(()) == SchubertBasis((), ())
    with pytest.raises(EmptyPartition):
        wronskian(SchubertBasis((), ()))
    relations = wronski_relations(())
    assert relations.leading == 1
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
    assert result.leading == Fraction(50400)
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


def _monomial_matrix_wronskian(degrees):
    from cherednik_centre import d_du, determinant

    rows = [[u_power(d) for d in degrees]]
    for _ in range(len(degrees) - 1):
        rows.append([d_du(p) for p in rows[-1]])
    return determinant(rows)


@given(st.sets(st.integers(0, 9), min_size=1, max_size=5))
def test_recursive_equals_determinant_up_to_column_reversal(degree_set):
    increasing = sorted(degree_set)
    decreasing = sorted(degree_set, reverse=True)
    n = len(degree_set)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    det_route = _monomial_matrix_wronskian(decreasing)
    rec_route = wronskian_recursive([u_power(d) for d in increasing])
    assert rec_route == scale(det_route, sign)


@pytest.mark.parametrize("n", range(1, 6))
def test_monomial_wronskian_never_vanishes_on_beta_sets(n):
    for lam in partitions_of(n):
        det = _monomial_matrix_wronskian(beta_set(lam, n))
        assert det, lam
        total = sum(beta_set(lam, n)) - n * (n - 1) // 2
        assert det == scale(u_power(total), next(iter(det.values())))
