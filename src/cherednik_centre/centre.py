"""The centre as a direct sum of blocks, one per irreducible label.

For the symmetric group on ``n`` letters the labels are the partitions of
``n``; for the wreath product with the cyclic group of order ``ell`` they are
the ``ell``-multipartitions of ``n``.  Each block is a tensor product
``A- (x) A+`` represented structurally as a pair of graded presentations:

* symmetric case: the minus part is the plus part with negated grading;
* wreath case: the minus part is the negated presentation of the *star*
  label ``(q_1, q_ell, ..., q_2)``.

The deformation parameter never appears: the presentations are valid for
generic parameter (smooth Calogero–Moser space) and carry no dependence on
it, which the CLI documents as an explicit assumption string.

Plus-part generators render with prefix ``f`` and minus parts with ``g`` so
a flattened tensor block has collision-free generator names.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

from .abacus import MultiPartition, star_involution
from .errors import EllOutOfRange, LengthMismatch, NegativeWeight
from .hilbert import dimension_hook_formula, presentation_dimension
from .partitions import Partition, partitions_of
from .presentation import (
    GradedPresentation,
    Label,
    direct_presentation,
    negate_grading,
    simplify,
    wreath_presentation,
)


@dataclass(frozen=True)
class Block:
    label: Label
    plus_part: GradedPresentation
    minus_part: GradedPresentation
    dimension: int
    star_label: Optional[MultiPartition] = None


@dataclass(frozen=True)
class CentrePresentation:
    n: int
    ell: int
    blocks: tuple[Block, ...]
    total_dimension: int


def multipartitions_of(n: int, ell: int) -> Iterator[MultiPartition]:
    """All ``ell``-multipartitions of ``n``, deterministically ordered:
    first-component weight descending, reverse-lex within a weight, then the
    remaining components recursively."""
    if ell < 1:
        raise EllOutOfRange(ell)
    if n < 0:
        raise NegativeWeight(n)
    return _multipartitions_of(n, ell)


def _multipartitions_of(n: int, ell: int) -> Iterator[MultiPartition]:
    if ell == 0:
        if n == 0:
            yield ()
        return
    for k in range(n, -1, -1):
        for head in partitions_of(k):
            for tail in _multipartitions_of(n - k, ell - 1):
                yield (head,) + tail


def _reprefix(presentation: GradedPresentation, prefix: str) -> GradedPresentation:
    meta = replace(presentation.meta, prefix=prefix)
    return GradedPresentation(presentation.generators, presentation.relations, meta)


WreathParts = dict[MultiPartition, tuple[GradedPresentation, int]]


def _wreath_part(q: MultiPartition, ell: int, simplified: bool, parts: WreathParts):
    """``(plus part, oracle dimension)`` of a wreath label, computed once per
    ``parts``: a label is needed as ``q`` and again as the minus part of the
    block of ``star(q)`` (for ``ell = 2`` that is the same block)."""
    found = parts.get(q)
    if found is None:
        raw = wreath_presentation(q, ell)
        found = (simplify(raw) if simplified else raw, presentation_dimension(raw))
        parts[q] = found
    return found


def block(
    label: Label, ell: int, simplified: bool = False, *, parts: WreathParts | None = None
) -> Block:
    """One block of the centre; ``label`` must fit the group (see module doc).

    ``parts`` shares the per-label wreath computations between the blocks of
    one centre; by default this block's own computations are not kept.
    """
    if ell == 1:
        lam: Partition = label  # type: ignore[assignment]
        plus_raw = direct_presentation(lam)
        plus = simplify(plus_raw) if simplified else plus_raw
        minus = _reprefix(negate_grading(plus), "g")
        dim_plus = dimension_hook_formula(lam)
        return Block(label, plus, minus, dim_plus * dim_plus)
    q: MultiPartition = label  # type: ignore[assignment]
    if len(q) != ell:
        raise LengthMismatch((q, ell))
    if parts is None:
        parts = {}
    star = star_involution(q)
    plus, dim_plus = _wreath_part(q, ell, simplified, parts)
    minus_pos, dim_minus = _wreath_part(star, ell, simplified, parts)
    minus = _reprefix(negate_grading(minus_pos), "g")
    return Block(label, plus, minus, dim_plus * dim_minus, star_label=star)


def centre_presentation(n: int, ell: int, simplified: bool = False) -> CentrePresentation:
    """All blocks in label order plus the total dimension."""
    if ell < 1:
        raise EllOutOfRange(ell)
    if n < 0:
        raise NegativeWeight(n)
    if ell == 1:
        labels: list[Label] = list(partitions_of(n))
    else:
        labels = list(multipartitions_of(n, ell))
    parts: WreathParts = {}
    blocks = tuple(block(label, ell, simplified, parts=parts) for label in labels)
    return CentrePresentation(n, ell, blocks, sum(b.dimension for b in blocks))


def centre_dimension(n: int, ell: int) -> int:
    return centre_presentation(n, ell).total_dimension
