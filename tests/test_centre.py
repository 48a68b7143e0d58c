"""Assembling the block decomposition of the centre."""

from __future__ import annotations

import math

import pytest

from cherednik_centre import (
    EllOutOfRange,
    LengthMismatch,
    NegativePart,
    NegativeWeight,
    NotWeaklyDecreasing,
    block,
    centre_presentation,
    checks,
    dimension_hook_formula,
    from_quotient,
    graded_dimensions_from_presentation,
    multipartitions_of,
    negate_grading,
    partitions_of,
    quotient_ring_text,
    simplify,
    star_involution,
    wreath_presentation,
)

from conftest import NON_PARTITIONS


def _hook_formula_total(n, ell):
    """The centre's total dimension summed off its labels by the hook
    formula, ``d(label) * d(star)`` each, with no presentation built."""
    labels = list(partitions_of(n)) if ell == 1 else list(multipartitions_of(n, ell))
    star = (lambda label: label) if ell == 1 else star_involution
    return sum(
        dimension_hook_formula(label, ell) * dimension_hook_formula(star(label), ell)
        for label in labels
    )


def test_symmetric_group_of_order_two():
    cp = centre_presentation(2, 1)
    assert cp.total_dimension == 2
    assert [b.label for b in cp.blocks] == [(2,), (1, 1)]
    assert all(b.dimension == 1 for b in cp.blocks)
    for b in cp.blocks:
        assert quotient_ring_text(simplify(b.plus_part)) == "C"


def test_wreath_2_2_block_structure():
    cp = centre_presentation(2, 2)
    assert cp.total_dimension == 8
    dims = [b.dimension for b in cp.blocks]
    assert sorted(dims) == [1, 1, 1, 1, 4]
    assert len(cp.blocks) == 5
    fat = next(b for b in cp.blocks if b.dimension == 4)
    assert fat.label == ((1,), (1,))
    plus = simplify(fat.plus_part)
    minus = simplify(fat.minus_part)
    assert quotient_ring_text(plus) == "C[f1,2] / (f1,2^2)"
    assert quotient_ring_text(minus) == "C[g1,2] / (g1,2^2)"
    assert [d for _, d in plus.generators] == [2]
    assert [d for _, d in minus.generators] == [-2]


def test_centre_dimension_pins():
    assert centre_presentation(2, 1).total_dimension == _hook_formula_total(2, 1) == 2
    assert centre_presentation(3, 1).total_dimension == _hook_formula_total(3, 1) == 6
    assert centre_presentation(0, 1).total_dimension == _hook_formula_total(0, 1) == 1
    assert centre_presentation(1, 2).total_dimension == _hook_formula_total(1, 2) == 2


@pytest.mark.parametrize("ell", range(1, 9))
def test_centre_dimension_is_the_sum_of_block_dimensions(ell):
    """Summed off the labels, the total equals the assembled centre's, for
    every n*ell <= 8."""
    for n in range(0, 8 // ell + 1):
        assert _hook_formula_total(n, ell) == centre_presentation(n, ell).total_dimension


@pytest.mark.parametrize("n", range(0, 6))
def test_symmetric_group_centre_dimension_is_factorial(n):
    """Block dimensions are squares of hook dimensions, so the total is n!."""
    assert centre_presentation(n, 1).total_dimension == math.factorial(n)
    assert _hook_formula_total(n, 1) == math.factorial(n)


@pytest.mark.parametrize(
    "n,ell",
    [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (1, 4), (2, 4), (1, 5)],
)
def test_total_dimension_is_the_group_order(n, ell):
    """Blocks are labelled by the irreducibles of the wreath product and each
    contributes dim(q)·dim(q*) = dim(q)², so the total must be the group
    order ℓⁿ·n! — a cross-check of the hook formula against pure group
    theory."""
    assert centre_presentation(n, ell).total_dimension == ell**n * math.factorial(n)
    assert _hook_formula_total(n, ell) == ell**n * math.factorial(n)


def test_wreath_centre_of_weight_five():
    """Group order 2^5 * 5! for G(2,1,5); its largest blocks have parts of
    dimension 20."""
    assert centre_presentation(5, 2).total_dimension == 2**5 * 120
    assert _hook_formula_total(5, 2) == 2**5 * 120


@pytest.mark.parametrize("n,ell", [(3, 2), (2, 3)])
def test_centre_runs_the_oracle_once_per_label(monkeypatch, n, ell):
    """Each label is needed as a plus part and as the minus part of its star
    partner's block; one centre builds it once, reading its beta-set off the
    staircase once.  Dimensions come from the hook formula, so assembling
    the centre never runs the rank oracle.  The labels are canonical as
    enumerated, so no label goes through ``make_partition`` again."""
    import cherednik_centre
    from cherednik_centre import hilbert, partitions, presentation

    seen = []
    read = presentation._quotient_beta_set

    def counting(q, ell):
        seen.append(q)
        return read(q, ell)

    def forbidden(row, pivots):
        raise AssertionError("centre_presentation ran the rank oracle")

    validated = []
    make = partitions.make_partition

    def validating(parts):
        validated.append(parts)
        return make(parts)

    monkeypatch.setattr(presentation, "_quotient_beta_set", counting)
    # every oracle call reduces its rows here, however the oracle was imported
    monkeypatch.setattr(hilbert, "_reduce", forbidden)
    for module in vars(cherednik_centre).values():
        if getattr(module, "make_partition", None) is make:
            monkeypatch.setattr(module, "make_partition", validating)
    cp = centre_presentation(n, ell)
    assert sorted(seen) == sorted(multipartitions_of(n, ell))
    assert validated == []
    monkeypatch.undo()
    for b in cp.blocks:
        assert b == block(b.label, ell)


def test_centre_of_weight_eight_is_in_reach():
    """G(2,1,8): 185 blocks, each dimension read off its label."""
    cp = centre_presentation(8, 2, simplified=True)
    assert len(cp.blocks) == 185
    assert cp.total_dimension == 2**8 * math.factorial(8)


@pytest.mark.parametrize("n", range(0, 7))
def test_symmetric_group_blocks(n):
    cp = centre_presentation(n, 1)
    assert [b.label for b in cp.blocks] == list(partitions_of(n))
    for b in cp.blocks:
        d = dimension_hook_formula(b.label)
        assert b.dimension == d * d
        assert b.star_label is None
        # the minus part is the plus part with flipped grading, renamed
        assert b.minus_part.meta.prefix == "g"
        assert b.minus_part.relations == b.plus_part.relations
        assert [deg for _, deg in b.minus_part.generators] == [
            -deg for _, deg in b.plus_part.generators
        ]


def test_wreath_block_uses_the_star_partner():
    b = block(((1, 1), (), (1,)), 3)
    assert b.star_label == ((1, 1), (1,), ())
    # minus dimensions come from the starred presentation
    from cherednik_centre import wreath_presentation

    minus_dim = graded_dimensions_from_presentation(
        wreath_presentation(b.star_label, 3)
    ).dimension()
    plus_dim = graded_dimensions_from_presentation(
        wreath_presentation(b.label, 3)
    ).dimension()
    assert b.dimension == plus_dim * minus_dim


@pytest.mark.parametrize("n,ell", [(1, 2), (2, 2), (1, 3), (3, 2), (2, 3)])
def test_wreath_blocks_enumerate_multipartitions(n, ell):
    cp = centre_presentation(n, ell)
    assert [b.label for b in cp.blocks] == list(multipartitions_of(n, ell))
    assert cp.total_dimension == sum(b.dimension for b in cp.blocks)
    for b in cp.blocks:
        assert b.star_label == star_involution(b.label)
        assert b.minus_part.meta.prefix == "g"
        assert all(d < 0 for _, d in b.minus_part.generators) or not (
            b.minus_part.generators
        )


def test_star_pairing_gives_equal_dimensions():
    """Paired labels q and q* produce blocks of the same dimension, the
    square of the label's hook dimension, on every n*ell <= 12."""
    for ell in range(1, 13):
        star = (lambda label: label) if ell == 1 else star_involution
        for n in range(12 // ell + 1):
            by_label = {b.label: b.dimension for b in centre_presentation(n, ell).blocks}
            for label, dim in by_label.items():
                assert by_label[star(label)] == dim, (label, ell)
                assert dim == dimension_hook_formula(label, ell) ** 2, (label, ell)


@pytest.mark.parametrize("ell", range(1, 9))
def test_block_dimension_is_the_rank_oracles(ell):
    """A second route for every block dimension, with n <= 7 at ell = 1 and
    n*ell <= 8 otherwise: the hook formula's ``d(label) * d(star)`` equals
    the product of the rank oracle's dimensions of the plus part and of the
    minus part, whose grading is negated back for the oracle."""
    for n in range(7 + 1 if ell == 1 else 8 // ell + 1):
        for b in centre_presentation(n, ell).blocks:
            plus = checks.oracle_series(b.plus_part)
            minus = checks.oracle_series(negate_grading(b.minus_part))
            assert b.dimension == plus.dimension() * minus.dimension(), (b.label, ell)


@pytest.mark.parametrize("simplified", [False, True])
def test_minus_part_is_the_star_partners_plus_part_negated(simplified):
    """Every block with ell <= 3 and n*ell <= 6: the minus part is
    ``negate_grading`` of the star partner's plus part, ``g`` names included."""
    for ell in range(1, 4):
        for n in range(6 // ell + 1):
            for b in centre_presentation(n, ell, simplified).blocks:
                star = b.label if ell == 1 else b.star_label
                assert b.minus_part == negate_grading(block(star, ell, simplified).plus_part)
                assert b.minus_part.meta.prefix == "g"


def test_simplified_centre_blocks_are_marked():
    cp = centre_presentation(2, 2, simplified=True)
    for b in cp.blocks:
        assert b.plus_part.meta.simplified
        assert b.minus_part.meta.simplified
    assert cp.total_dimension == 8


def test_zero_weight_centre():
    cp = centre_presentation(0, 2)
    assert cp.total_dimension == 1
    assert len(cp.blocks) == 1
    assert quotient_ring_text(cp.blocks[0].plus_part) == "C"


@pytest.mark.parametrize(("lam", "error"), NON_PARTITIONS)
def test_block_rejects_non_partitions(lam, error):
    with pytest.raises(error):
        block(lam, 1)
    with pytest.raises(error):
        block((lam, (1,)), 2)


# Wreath labels that do not fit ``ell``, each with the error every public
# entry point taking one raises: ``ell`` is checked first, then the number
# of components, then each component in turn.
MISFITS = [
    (((1,), (1,)), 3, LengthMismatch),
    (((1,), (1, 2)), 2, NotWeaklyDecreasing),
    (((1,), (-1,)), 2, NegativePart),
    (((1,),), 0, EllOutOfRange),
    (((1,),), -1, EllOutOfRange),
    (((1, 2),), 0, EllOutOfRange),
    (((1, 2), (1,)), 3, LengthMismatch),
    (((1, 2), (-1,)), 2, NotWeaklyDecreasing),
]


@pytest.mark.parametrize(
    "entry",
    [block, wreath_presentation, dimension_hook_formula, from_quotient],
    ids=["block", "wreath_presentation", "dimension_hook_formula", "from_quotient"],
)
@pytest.mark.parametrize(("label", "ell", "error"), MISFITS)
def test_every_entry_point_checks_its_wreath_label(entry, label, ell, error):
    """The centre's builders trust their labels; the public entry points
    still check theirs, in the same order."""
    with pytest.raises(error):
        entry(label, ell)


def test_weight_and_column_count_are_validated():
    with pytest.raises(NegativeWeight):
        centre_presentation(-1, 2)
    with pytest.raises(EllOutOfRange):
        centre_presentation(2, 0)
    with pytest.raises(NegativeWeight):
        multipartitions_of(-1, 2)
    with pytest.raises(EllOutOfRange):
        multipartitions_of(2, 0)
