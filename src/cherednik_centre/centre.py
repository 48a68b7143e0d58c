"""The centre as a direct sum of blocks, one per irreducible label.

For the symmetric group on ``n`` letters the labels are the partitions of
``n``; for the wreath product with the cyclic group of order ``ell`` they are
the ``ell``-multipartitions of ``n``.  Each block is a tensor product
``A- (x) A+`` represented structurally as a pair of graded presentations.
The minus part is the plus part of the *star* label with negated grading:
the star of a multipartition is ``(q_1, q_ell, ..., q_2)``, and a partition
is its own star, so in the symmetric case the minus part is the plus part
negated.  The block dimension is ``d(label) * d(star)``, ``d`` the hook
formula of :mod:`~cherednik_centre.hilbert`: the star keeps ``q_1`` and
reverses the other components, so it has the label's weight and multiset of
hooks, and the dimension is ``d(label)^2``, with no presentation ranked.

So each label's part is built once per centre, as its own plus part and its
star partner's minus part, and the CLI writes it once, renaming ``f`` to
``g`` for the minus side.  The labels and dimensions alone come from
``_block_dimensions``, which :func:`centre_presentation` also reads: the
plain text form of ``centre`` prints only these, and builds no presentation.

The deformation parameter never appears: the presentations are valid for
generic parameter (smooth Calogero–Moser space) and carry no dependence on
it, which the CLI documents as an explicit assumption string.

Generator names follow the orientation, prefix ``f`` on a plus part and ``g``
on a minus part, so a flattened tensor block has collision-free names.

Labels are checked once, on entry: :func:`block` checks its label as
``dimension_hook_formula`` does, and :func:`centre_presentation` checks ``n``,
``ell`` and ``ell * n <= sys.maxsize``.  The labels it enumerates are
canonical, so ``_block`` and the builders under it take them unchecked.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterator, Optional

from .abacus import MultiPartition, star_involution
from .errors import EllOutOfRange, NegativeWeight, TooLarge
from .hilbert import _components, _hook_dimension
from .partitions import partitions_of
from .presentation import GradedPresentation, Label, _block_part, negate_grading


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
    if ell == 1:
        # the last component takes the whole rest of the weight
        for head in partitions_of(n):
            yield (head,)
        return
    for k in range(n, -1, -1):
        for head in partitions_of(k):
            for tail in _multipartitions_of(n - k, ell - 1):
                yield (head,) + tail


def _plus_part(
    label: Label, ell: int, simplified: bool, parts: dict[Label, GradedPresentation]
) -> GradedPresentation:
    """The plus part of ``label``, built once per ``parts``: it is also the
    minus part, negated, of its star partner's block (its own if self-star)."""
    found = parts.get(label)
    if found is None:
        found = parts[label] = _block_part(label, ell, simplified)
    return found


def _labels(n: int, ell: int) -> list[Label]:
    """The block labels of the centre in label order (see module doc): for
    ``ell = 1`` the one component of each 1-multipartition, a partition."""
    labels = multipartitions_of(n, ell)
    if ell * n > sys.maxsize:
        raise TooLarge(ell * n)
    return [q[0] if ell == 1 else q for q in labels]


def _dimension(label: Label, ell: int) -> int:
    """The block dimension ``d(label)^2`` (see module doc)."""
    d = _hook_dimension((label,) if ell == 1 else label)  # type: ignore[arg-type]
    return d * d


def _block_dimensions(n: int, ell: int) -> list[tuple[Label, int]]:
    """Each block's label and dimension, in label order, read off the labels
    with no presentation built; ``n``, ``ell`` and the weight are checked
    first, as :func:`centre_presentation` checks them."""
    return [(label, _dimension(label, ell)) for label in _labels(n, ell)]


def _block(
    label: Label, dimension: int, ell: int, simplified: bool,
    parts: dict[Label, GradedPresentation],
) -> Block:
    star = None if ell == 1 else star_involution(label)  # type: ignore[arg-type]
    plus = _plus_part(label, ell, simplified, parts)
    minus = negate_grading(_plus_part(star or label, ell, simplified, parts))
    return Block(label, plus, minus, dimension, star)


def block(label: Label, ell: int, simplified: bool = False) -> Block:
    """One block of the centre; ``label`` must fit the group (see module doc)."""
    components = _components(label, ell)
    label = components[0] if ell == 1 else components
    return _block(label, _dimension(label, ell), ell, simplified, {})


def centre_presentation(n: int, ell: int, simplified: bool = False) -> CentrePresentation:
    """All blocks in label order plus the total dimension."""
    parts: dict[Label, GradedPresentation] = {}
    blocks = tuple(
        _block(label, dimension, ell, simplified, parts)
        for label, dimension in _block_dimensions(n, ell)
    )
    return CentrePresentation(n, ell, blocks, sum(b.dimension for b in blocks))
