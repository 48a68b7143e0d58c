"""Partition, hook and beta-set combinatorics."""

from __future__ import annotations

import doctest

import pytest
from hypothesis import given

import cherednik_centre.partitions
from cherednik_centre import (
    CellOutOfDiagram,
    NegativePart,
    NotWeaklyDecreasing,
    PadTooShort,
    RowOutOfRange,
    UnparsableLabel,
    beta_set,
    cells,
    first_column_hooks,
    format_partition,
    hook_length,
    make_partition,
    parse_partition,
    partitions_of,
    row_hook_set,
    transpose,
    weight,
)

from conftest import NON_PARTITIONS, partitions_up_to
from reference import hook_by_counting


def test_doctests():
    failures, _ = doctest.testmod(cherednik_centre.partitions)
    assert failures == 0


def test_make_partition_strips_trailing_zeros():
    assert make_partition([3, 2, 0, 0]) == (3, 2)
    assert make_partition([]) == ()
    assert make_partition([0]) == ()


def test_make_partition_rejects_bad_input():
    with pytest.raises(NotWeaklyDecreasing):
        make_partition([2, 3])
    with pytest.raises(NegativePart):
        make_partition([3, -1])


def test_weight_and_cells():
    assert weight((3, 2)) == 5
    assert weight(()) == 0
    assert list(cells((2, 1))) == [(1, 1), (1, 2), (2, 1)]
    assert list(cells(())) == []


def test_transpose_pins():
    assert transpose((3, 2)) == (2, 2, 1)
    assert transpose((4,)) == (1, 1, 1, 1)
    assert transpose(()) == ()


def test_hook_lengths_of_3_2():
    expected = {(1, 1): 4, (1, 2): 3, (1, 3): 1, (2, 1): 2, (2, 2): 1}
    assert {c: hook_length((3, 2), c) for c in cells((3, 2))} == expected


def test_hook_length_rejects_outside_cells():
    for cell in [(0, 1), (1, 4), (3, 1), (2, 3)]:
        with pytest.raises(CellOutOfDiagram):
            hook_length((3, 2), cell)


def test_first_column_hooks_match_hook_lengths():
    lam = (4, 2, 2, 1)
    assert first_column_hooks(lam) == tuple(
        hook_length(lam, (i, 1)) for i in range(1, len(lam) + 1)
    )
    assert first_column_hooks(()) == ()


def test_beta_set_pin_and_padding():
    assert beta_set((3, 2), 5) == (7, 5, 2, 1, 0)
    assert beta_set((3, 2), 2) == first_column_hooks((3, 2))
    with pytest.raises(PadTooShort):
        beta_set((3, 2), 1)


@pytest.mark.parametrize(("lam", "error"), NON_PARTITIONS)
def test_beta_set_rejects_non_partitions(lam, error):
    with pytest.raises(error):
        beta_set(lam, 3)


@pytest.mark.parametrize(("lam", "error"), NON_PARTITIONS)
def test_first_column_hooks_rejects_non_partitions(lam, error):
    with pytest.raises(error):
        first_column_hooks(lam)


@pytest.mark.parametrize(("lam", "error"), NON_PARTITIONS)
def test_transpose_rejects_non_partitions(lam, error):
    with pytest.raises(error):
        transpose(lam)


@pytest.mark.parametrize(("lam", "error"), NON_PARTITIONS)
def test_hook_length_rejects_non_partitions(lam, error):
    with pytest.raises(error):
        hook_length(lam, (1, 1))


@pytest.mark.parametrize(("lam", "error"), NON_PARTITIONS)
def test_cells_rejects_non_partitions(lam, error):
    with pytest.raises(error):
        cells(lam)


@pytest.mark.parametrize(("lam", "error"), NON_PARTITIONS)
def test_row_hook_set_rejects_non_partitions(lam, error):
    with pytest.raises(error):
        row_hook_set(lam, 1)


@pytest.mark.parametrize(("lam", "error"), NON_PARTITIONS)
def test_weight_rejects_non_partitions(lam, error):
    with pytest.raises(error):
        weight(lam)


@pytest.mark.parametrize(("lam", "error"), NON_PARTITIONS)
def test_format_partition_rejects_non_partitions(lam, error):
    with pytest.raises(error):
        format_partition(lam)


def test_row_hook_set_pins():
    assert sorted(row_hook_set((3, 2), 1)) == [1, 3, 4]
    assert sorted(row_hook_set((3, 2), 2)) == [1, 2]
    assert row_hook_set((3, 2), 3) == frozenset()
    with pytest.raises(RowOutOfRange):
        row_hook_set((3, 2), 0)
    with pytest.raises(RowOutOfRange):
        row_hook_set((3, 2), 6)


def test_partitions_of_order_and_counts():
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(partitions_of(0)) == [()]
    assert len(list(partitions_of(6))) == 11
    assert len(list(partitions_of(12))) == 77


# --- row hook sets versus cell hooks (all partitions up to weight 12) -------


def _row_identities_hold(lam) -> bool:
    for i in range(1, len(lam) + 1):
        hooks = {hook_length(lam, (i, j)) for j in range(1, lam[i - 1] + 1)}
        if len(hooks) != lam[i - 1]:
            return False
        if row_hook_set(lam, i) != hooks:
            return False
    return True


@pytest.mark.parametrize("n", range(0, 13))
def test_row_hook_set_equals_row_hooks(n):
    for lam in partitions_of(n):
        assert _row_identities_hold(lam), lam


@pytest.mark.parametrize("n", range(0, 13))
def test_hook_length_equals_counting(n):
    """The hook table against cells counted right and below, on every cell."""
    for lam in partitions_of(n):
        for i, j in cells(lam):
            assert hook_length(lam, (i, j)) == hook_by_counting(lam, i, j), (lam, i, j)


@pytest.mark.parametrize("n", range(0, 13))
def test_same_column_cells_share_shifted_exponent(n):
    for lam in partitions_of(n):
        beta = beta_set(lam, max(1, len(lam)))
        for i in range(1, len(lam) + 1):
            for k in range(i + 1, len(lam) + 1):
                for j in range(1, lam[k - 1] + 1):
                    assert beta[i - 1] - hook_length(lam, (i, j)) == beta[
                        k - 1
                    ] - hook_length(lam, (k, j))


# --- hypothesis properties ---------------------------------------------------


@given(partitions_up_to(12))
def test_transpose_is_an_involution(lam):
    assert transpose(transpose(lam)) == lam


@given(partitions_up_to(12))
def test_hook_multiset_invariant_under_transpose(lam):
    mu = transpose(lam)
    hooks = sorted(hook_length(lam, c) for c in cells(lam))
    assert hooks == sorted(hook_length(mu, c) for c in cells(mu))


@given(partitions_up_to(12))
def test_beta_set_strictly_decreasing(lam):
    for n in (max(1, len(lam)), weight(lam) + 1, weight(lam) + 3):
        beta = beta_set(lam, n)
        assert all(beta[k] > beta[k + 1] for k in range(len(beta) - 1))
        assert len(set(beta)) == len(beta)


@given(partitions_up_to(12))
def test_format_parse_roundtrip(lam):
    assert parse_partition(format_partition(lam)) == lam


def test_parse_partition_accepts_whitespace_and_dash():
    assert parse_partition(" 3,2 ") == (3, 2)
    assert parse_partition("-") == ()
    assert parse_partition("") == ()


def test_parse_partition_rejects_non_numeric_text():
    for text in ("3..2", "3,,2", "a,b", "3|2"):
        with pytest.raises(UnparsableLabel):
            parse_partition(text)
