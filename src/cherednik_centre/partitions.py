"""Integer partitions, Young diagrams, hooks and beta-sets.

Conventions used throughout the package:

* A partition is a tuple of weakly decreasing positive integers; the empty
  partition is ``()``.  Cells of the Young diagram are 1-based ``(row, col)``
  pairs, row ``i`` holding ``lam[i-1]`` cells.

* The hook length of a cell ``(i, j)`` is

      h(i, j) = (lam_i - j) + (L_j - i) + 1

  where ``L_j`` is the *full* length of column ``j`` (arm + leg + 1 with the
  leg measured down the whole column), the ``j``-th part of the conjugate.
  Off the conjugate it is computed in one place, the hook table
  :func:`_row_hooks`, which :func:`hook_length`, the series formula and the
  ``partition info`` command read.

* The beta-set of ``lam`` padded to ``n`` parts is ``d_i = lam_i + n - i``
  for ``i = 1..n`` — strictly decreasing, pairwise distinct.  With
  ``n = len(lam)`` these are exactly the first-column hook lengths.  The
  hooks of row ``i`` are the ``d_i - g`` for the gaps ``g < d_i`` (the
  integers below ``d_i`` not in the beta-set), one gap per column.
  :func:`row_hook_set`, :func:`first_column_hooks` and the cell reader the
  presentations and the Schubert basis share read hooks off the beta-set so,
  with no conjugate; the tests and CI hold this route and the table equal.
"""

from __future__ import annotations

import operator
import sys
from typing import Iterator

from .errors import (
    CellOutOfDiagram,
    NegativePart,
    NotWeaklyDecreasing,
    PadTooShort,
    RowOutOfRange,
    TooLarge,
    UnparsableLabel,
)

Partition = tuple[int, ...]
Cell = tuple[int, int]
BetaSet = tuple[int, ...]


def make_partition(parts) -> Partition:
    """Validate and canonicalize: trailing zeros are stripped.

    >>> make_partition([3, 2, 0])
    (3, 2)
    >>> make_partition([2, 3])
    Traceback (most recent call last):
        ...
    cherednik_centre.errors.NotWeaklyDecreasing: (2, 3)
    """
    try:
        seq = tuple(map(operator.index, parts))
    except TypeError:
        raise UnparsableLabel(parts) from None
    if seq and min(seq) < 0:
        raise NegativePart(seq)
    # Every label entry point runs this, so the scans stay in C.
    if any(map(operator.lt, seq, seq[1:])):
        raise NotWeaklyDecreasing(seq)
    while seq and seq[-1] == 0:
        seq = seq[:-1]
    return seq


def weight(lam: Partition) -> int:
    """The number of cells of ``make_partition(lam)``.

    >>> weight((3, 2))
    5
    """
    return sum(make_partition(lam))


def transpose(lam: Partition) -> Partition:
    """Conjugate partition (columns become rows); ``lam`` goes through
    :func:`make_partition`.

    >>> transpose((3, 2))
    (2, 2, 1)
    """
    return _transpose(make_partition(lam))


def _transpose(lam: Partition) -> Partition:
    """:func:`transpose` of a validated ``lam``."""
    if not lam:
        return ()
    return tuple(
        sum(1 for p in lam if p >= j)
        for j in range(1, lam[0] + 1)
    )


def cells(lam: Partition) -> Iterator[Cell]:
    """All cells of the diagram of ``make_partition(lam)``, row-major, 1-based."""
    lam = make_partition(lam)
    return ((i, j) for i, p in enumerate(lam, start=1) for j in range(1, p + 1))


def hook_length(lam: Partition, cell: Cell) -> int:
    """Hook length of ``cell`` in ``make_partition(lam)``, from :func:`_row_hooks`.

    >>> hook_length((3, 2), (1, 1))
    4
    >>> hook_length((3, 2), (1, 3))
    1
    """
    lam = make_partition(lam)
    i, j = cell
    if not (1 <= i <= len(lam) and 1 <= j <= lam[i - 1]):
        raise CellOutOfDiagram((lam, cell))
    return _row_hooks(lam)[i - 1][j - 1]


def _row_hooks(lam: Partition) -> list[list[int]]:
    """The hook table of a validated ``lam``: each row's hooks, left to
    right, arm + leg + 1 with the leg off the conjugate, one step per cell.

    >>> _row_hooks((3, 2))
    [[4, 3, 1], [2, 1]]
    """
    conjugate = _transpose(lam)
    # with 0-based column j: (p - j - 1) + (c - i) + 1
    return [
        [p - i + c - j for j, c in enumerate(conjugate[:p])]
        for i, p in enumerate(lam, start=1)
    ]


def first_column_hooks(lam: Partition) -> BetaSet:
    """First-column hook lengths ``h(i, 1) = lam_i + len(lam) - i``.

    These are the bead positions of the abacus encoding of ``lam``, which
    goes through :func:`make_partition`.
    """
    lam = make_partition(lam)
    return _beta_set(lam, len(lam))


def beta_set(lam: Partition, n: int) -> BetaSet:
    """Beta-set padded to ``n`` parts: ``(lam_i + n - i) for i = 1..n``;
    ``lam`` goes through :func:`make_partition`.

    >>> beta_set((3, 2), 5)
    (7, 5, 2, 1, 0)
    """
    lam = make_partition(lam)
    if n < len(lam):
        raise PadTooShort((lam, n))
    return _beta_set(lam, n)


def _beta_set(lam: Partition, n: int) -> BetaSet:
    """:func:`beta_set` of a validated ``lam`` and ``n >= len(lam)``;
    :class:`~cherednik_centre.errors.TooLarge` if ``n`` exceeds what a tuple
    can index."""
    if n > sys.maxsize:
        raise TooLarge(n)
    padded = lam + (0,) * (n - len(lam))
    return tuple(p + n - i for i, p in enumerate(padded, start=1))


def row_hook_set(lam: Partition, i: int) -> frozenset[int]:
    """Hook lengths occurring in row ``i``, read off the beta-set.

    With ``P = beta_set(lam, n)`` for ``n = weight(lam)`` and ``d_i`` its
    ``i``-th entry, the set is ``{j : 1 <= j <= d_i, d_i - j not in P}`` —
    equal to ``{hook_length(lam, (i, j)) : 1 <= j <= lam_i}`` and empty for
    rows below the diagram.  The set does not depend on the padding length;
    ``lam`` goes through :func:`make_partition`.

    >>> sorted(row_hook_set((3, 2), 1))
    [1, 3, 4]
    """
    lam = make_partition(lam)
    n = sum(lam)
    if not 1 <= i <= n:
        raise RowOutOfRange((lam, i))
    beta = _beta_set(lam, n)
    occupied = set(beta)
    d_i = beta[i - 1]
    return frozenset(j for j in range(1, d_i + 1) if d_i - j not in occupied)


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of ``n`` in reverse-lexicographic order.

    >>> list(partitions_of(4))[:3]
    [(4,), (3, 1), (2, 2)]
    """

    def gen(rest: int, largest: int, prefix: tuple[int, ...]) -> Iterator[Partition]:
        if rest == 0:
            yield prefix
            return
        for part in range(min(rest, largest), 0, -1):
            yield from gen(rest - part, part, prefix + (part,))

    yield from gen(n, n if n > 0 else 1, ())


def format_partition(lam: Partition) -> str:
    """Text form of ``make_partition(lam)``: comma-separated parts, ``-``
    for the empty partition."""
    lam = make_partition(lam)
    return ",".join(str(p) for p in lam) if lam else "-"


def parse_partition(text: str) -> Partition:
    """Inverse of :func:`format_partition` (whitespace tolerated)."""
    text = text.strip()
    if text in ("-", ""):
        return ()
    try:
        parts = [int(piece) for piece in text.split(",")]
    except ValueError:
        raise UnparsableLabel(text) from None
    return make_partition(parts)
