"""Bead diagrams, cores, quotients and the inverse construction."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given

from cherednik_centre import (
    BeadDiagram,
    abacus,
    EllOutOfRange,
    LengthMismatch,
    TooLarge,
    abacus_from_partition,
    beta_set,
    ell_core,
    ell_quotient,
    format_multipartition,
    from_quotient,
    has_trivial_core,
    multipartitions_of,
    parse_multipartition,
    partition_from_abacus,
    partitions,
    partitions_of,
    star_involution,
    weight,
)

from conftest import NON_PARTITIONS, multipartitions_up_to, partitions_up_to


def test_bead_positions_are_first_column_hooks():
    assert abacus_from_partition((3, 2, 1, 1), 3).beads == frozenset({6, 4, 2, 1})
    assert abacus_from_partition((4, 2, 2), 3).beads == frozenset({6, 3, 2})
    assert abacus_from_partition((), 2).beads == frozenset()


def test_reading_is_padding_invariant():
    lam = (4, 2, 2)
    for pad in range(len(lam), len(lam) + 6):
        diagram = BeadDiagram(columns=3, beads=frozenset(beta_set(lam, pad)))
        assert partition_from_abacus(diagram) == lam


@given(partitions_up_to(12))
def test_abacus_roundtrip(lam):
    for ell in range(1, 6):
        assert partition_from_abacus(abacus_from_partition(lam, ell)) == lam


def test_core_pins():
    assert ell_core((4, 2, 2), 3) == (1, 1)
    assert ell_core((2, 2), 2) == ()
    assert ell_core((), 3) == ()
    assert ell_core((5,), 1) == ()


def test_quotient_pins():
    assert ell_quotient((4, 2, 2), 3) == ((1, 1), (), ())
    assert ell_quotient((2, 2), 2) == ((1,), (1,))
    assert ell_quotient((8, 5, 5, 5, 4), 3) == ((3, 2), (1, 1), (2,))
    assert ell_quotient((2, 2, 2, 2, 1), 3) == ((1, 1), (), (1,))
    assert ell_quotient((), 4) == ((), (), (), ())


def test_one_quotient_is_identity():
    for lam in [(), (5,), (3, 2), (2, 2, 1)]:
        assert ell_quotient(lam, 1) == (lam,)
        assert ell_core(lam, 1) == ()
        assert from_quotient((lam,), 1) == lam


def test_from_quotient_pins():
    assert from_quotient(((3, 2), (1, 1), (2,)), 3) == (8, 5, 5, 5, 4)
    assert from_quotient(((1, 1), (), (1,)), 3) == (2, 2, 2, 2, 1)
    assert from_quotient(((), (), ()), 3) == ()
    with pytest.raises(LengthMismatch):
        from_quotient(((1,), (1,)), 3)


@pytest.mark.parametrize(("lam", "error"), NON_PARTITIONS)
def test_from_quotient_rejects_non_partition_components(lam, error):
    with pytest.raises(error):
        from_quotient((lam, ()), 2)
    with pytest.raises(error):
        from_quotient(((1,), (), lam), 3)


@pytest.mark.parametrize(("lam", "error"), NON_PARTITIONS)
def test_abacus_from_partition_rejects_non_partitions(lam, error):
    with pytest.raises(error):
        abacus_from_partition(lam, 2)


@pytest.mark.parametrize(("lam", "error"), NON_PARTITIONS)
def test_ell_core_rejects_non_partitions(lam, error):
    with pytest.raises(error):
        ell_core(lam, 2)


@pytest.mark.parametrize(("lam", "error"), NON_PARTITIONS)
def test_has_trivial_core_rejects_non_partitions(lam, error):
    with pytest.raises(error):
        has_trivial_core(lam, 2)


@pytest.mark.parametrize(("lam", "error"), NON_PARTITIONS)
def test_ell_quotient_rejects_non_partitions(lam, error):
    with pytest.raises(error):
        ell_quotient(lam, 2)


def test_column_count_must_be_positive():
    with pytest.raises(EllOutOfRange):
        ell_core((3, 2), 0)
    with pytest.raises(EllOutOfRange):
        ell_quotient((3, 2), -2)
    with pytest.raises(EllOutOfRange):
        from_quotient(((1,),), 0)


def test_any_column_count_past_a_tuple_index():
    """The core counts beads per occupied column, so it reads any ell; the
    quotient, a tuple of ell components, is TooLarge past ``sys.maxsize``,
    on the empty partition (trivial core) and on any other."""
    huge = sys.maxsize + 1
    assert ell_core((3,), 10**20) == (3,)
    assert ell_core((3, 1), huge) == (3, 1)
    assert has_trivial_core((), huge)
    for lam in ((), (3,)):
        with pytest.raises(TooLarge):
            ell_quotient(lam, huge)


@given(partitions_up_to(12, n_min=1))
def test_core_weight_identity(lam):
    """|λ| = |core| + ℓ · Σ |component| for every ℓ."""
    for ell in range(1, 6):
        core = ell_core(lam, ell)
        quotient = ell_quotient(lam, ell)
        assert weight(lam) == weight(core) + ell * sum(weight(c) for c in quotient)
        assert (weight(lam) - weight(core)) % ell == 0


@given(multipartitions_up_to(4, 4))
def test_from_quotient_lands_on_trivial_core(pair):
    quotient, ell = pair
    lam = from_quotient(quotient, ell)
    assert weight(lam) == ell * sum(weight(c) for c in quotient)
    assert has_trivial_core(lam, ell)
    assert ell_quotient(lam, ell) == quotient


def test_quotient_bijection_small_range():
    """For n ≤ 5, ℓ ≤ 4 the quotient restricts to a bijection
    {λ ⊢ nℓ with trivial ℓ-core} ↔ {ℓ-multipartitions of n}."""
    for ell in range(1, 5):
        for n in range(0, 6):
            trivial = [
                lam for lam in partitions_of(n * ell) if has_trivial_core(lam, ell)
            ]
            images = [ell_quotient(lam, ell) for lam in trivial]
            assert len(set(images)) == len(images)
            assert sorted(images) == sorted(multipartitions_of(n, ell))
            for lam, q in zip(trivial, images):
                assert from_quotient(q, ell) == lam


def test_core_and_quotient_determine_the_partition_within_a_stratum():
    """The quotient is read off a display whose bead count is len(λ) for a
    non-trivial core and is padded to a fixed residue for a trivial one, so
    (core, quotient) separates partitions within each bead-count residue
    class.  (Across classes it need not: (3,2) and (1,1,1,1,1) at ℓ=2 share
    core (1,) and quotient ((1,1),()) — the component order is relative to
    the display.)"""
    for ell in range(2, 5):
        for m in range(0, 13):
            seen = {}
            for lam in partitions_of(m):
                if has_trivial_core(lam, ell):
                    stratum = "trivial"
                else:
                    stratum = len(lam) % ell
                key = (stratum, ell_core(lam, ell), ell_quotient(lam, ell))
                assert key not in seen, (lam, seen[key])
                seen[key] = lam
    assert ell_core((3, 2), 2) == ell_core((1, 1, 1, 1, 1), 2) == (1,)
    assert ell_quotient((3, 2), 2) == ell_quotient((1, 1, 1, 1, 1), 2)


def test_distinct_partitions_with_equal_naive_reading():
    """(3,3,2,1) and (2,2,2,2,1) have the same column content when read with
    len(λ) beads; the quotient still separates them."""
    a, b = (3, 3, 2, 1), (2, 2, 2, 2, 1)
    assert ell_quotient(a, 3) != ell_quotient(b, 3)


@given(multipartitions_up_to(4, 4))
def test_star_is_an_involution_fixing_the_first_component(pair):
    quotient, _ = pair
    starred = star_involution(quotient)
    assert star_involution(starred) == quotient
    assert starred[0] == quotient[0]
    assert sorted(starred) == sorted(quotient)


def test_star_pin():
    assert star_involution(((3, 2), (1, 1), (2,))) == ((3, 2), (2,), (1, 1))
    assert star_involution(((1,),)) == ((1,),)


def test_multipartition_text_roundtrip():
    quotient = ((1, 1), (), (1,))
    text = format_multipartition(quotient)
    assert text == "1,1|-|1"
    assert parse_multipartition(text) == quotient
    assert parse_multipartition("-") == ((),)


def test_multipartition_enumeration_order():
    assert list(multipartitions_of(2, 2)) == [
        ((2,), ()),
        ((1, 1), ()),
        ((1,), (1,)),
        ((), (2,)),
        ((), (1, 1)),
    ]
    assert list(multipartitions_of(0, 3)) == [((), (), ())]


def test_each_abacus_input_is_validated_once(monkeypatch):
    """``ell_core`` and ``ell_quotient`` run ``make_partition`` once per
    call and ``from_quotient`` once per component, over the partitions of
    1..12 with ell = 3 and the 3-multipartitions of 0..4; the private
    helpers they call take the validated input."""
    calls = []
    real = partitions.make_partition

    def counted(parts):
        calls.append(parts)
        return real(parts)

    monkeypatch.setattr(abacus, "make_partition", counted)
    monkeypatch.setattr(partitions, "make_partition", counted)
    labels = [lam for n in range(1, 13) for lam in partitions_of(n)]
    assert len(labels) == 271
    for route in (ell_core, ell_quotient):
        calls.clear()
        for lam in labels:
            route(lam, 3)
        assert len(calls) == len(labels), route.__name__
    quotients = [q for n in range(5) for q in multipartitions_of(n, 3)]
    calls.clear()
    for q in quotients:
        from_quotient(q, 3)
    assert len(calls) == 3 * len(quotients)
