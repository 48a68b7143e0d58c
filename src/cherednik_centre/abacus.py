"""Bead diagrams (abacus displays), ell-cores, ell-quotients.

A bead diagram with ``ell`` columns is a finite set of occupied positions;
position ``p`` sits in column ``p % ell``, row ``p // ell``, counting left to
right and downwards from the top row.  A partition ``lam`` is displayed by
placing beads at its first-column hook lengths, so position 0 is always free.

Reading a diagram back is total: sort the bead positions decreasingly, read
them as a beta-set (``lam_i = p_i - (k - i)`` for ``k`` beads) and strip zero
parts.  This is the same as counting from the first empty position — beads
forming an initial prefix contribute zero parts only.

Core and quotient:

* ``ell_core`` slides every bead up its column as far as it goes and reads
  the compacted diagram.

* ``ell_quotient`` reads each column as a one-column abacus.  The component
  split depends on the number of beads modulo ``ell``; the convention here is
  the unique one making the quotient a bijection between partitions of
  ``n*ell`` with trivial ell-core and ell-multipartitions of ``n``
  (``from_quotient`` is its two-sided inverse):

  - non-trivial core: display with exactly ``len(lam)`` beads (no padding);
  - trivial core: pad the beta-set to the minimal length ``N >= len(lam)``
    with ``N = ell - 1 (mod ell)``.

  A diagram built from ``N = ell - 1 (mod ell)`` beads has trivial core
  exactly when the column bead-counts are the staircase
  ``(q+1, ..., q+1, q)``, which is what ``from_quotient`` constructs — with
  the minimal such staircase covering the component lengths.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import EllOutOfRange, LengthMismatch, TooLarge
from .partitions import (
    Partition,
    _beta_set,
    first_column_hooks,
    format_partition,
    make_partition,
    parse_partition,
)

MultiPartition = tuple[Partition, ...]


@dataclass(frozen=True)
class BeadDiagram:
    """An ``ell``-column abacus: ``columns`` and the set of occupied positions."""

    columns: int
    beads: frozenset[int]


def abacus_from_partition(lam: Partition, ell: int) -> BeadDiagram:
    """Display ``lam`` on ``ell`` columns: beads at the first-column hooks;
    ``lam`` goes through ``make_partition`` there."""
    if ell < 1:
        raise EllOutOfRange(ell)
    return BeadDiagram(columns=ell, beads=frozenset(first_column_hooks(lam)))


def partition_from_abacus(diagram: BeadDiagram) -> Partition:
    """Read a diagram back to a partition (total; see module docstring)."""
    return _partition_from_positions(diagram.beads)


def _partition_from_positions(positions) -> Partition:
    decreasing = sorted(positions, reverse=True)
    k = len(decreasing)
    parts = tuple(p - (k - 1 - idx) for idx, p in enumerate(decreasing))
    return tuple(p for p in parts if p > 0)


def ell_core(lam: Partition, ell: int) -> Partition:
    """Slide all beads upwards in their columns, then read the diagram;
    ``lam`` goes through ``make_partition``."""
    return _ell_core(make_partition(lam), ell)


def _ell_core(lam: Partition, ell: int) -> Partition:
    """:func:`ell_core` of a validated ``lam``, in O(beads) for any ell."""
    if ell < 1:
        raise EllOutOfRange(ell)
    counts: dict[int, int] = {}
    for p in _beta_set(lam, len(lam)):
        counts[p % ell] = counts.get(p % ell, 0) + 1
    return _partition_from_positions(c + ell * r for c, k in counts.items() for r in range(k))


def has_trivial_core(lam: Partition, ell: int) -> bool:
    """Whether the ell-core is empty; ``lam`` goes through ``make_partition``."""
    return ell_core(lam, ell) == ()


def ell_quotient(lam: Partition, ell: int) -> MultiPartition:
    """The ell-tuple of column partitions (component ``c`` from column ``c``);
    ``lam`` goes through ``make_partition``; :class:`TooLarge` past what a
    tuple can hold."""
    lam = make_partition(lam)
    if ell > sys.maxsize:
        raise TooLarge(ell)
    n_beads = len(lam)
    if _ell_core(lam, ell) == ():
        n_beads += (ell - 1 - n_beads) % ell
    runners: dict[int, list[int]] = {}
    for p in _beta_set(lam, n_beads):
        runners.setdefault(p % ell, []).append(p // ell)
    return tuple(_partition_from_positions(runners.get(c, ())) for c in range(ell))


def from_quotient(quotient: MultiPartition, ell: int) -> Partition:
    """The unique trivial-ell-core partition of ``ell * weight`` with this quotient.

    Component ``c`` is placed on column ``c`` as a beta-set of length ``m_c``,
    where ``(m_0, ..., m_{ell-1}) = (q+1, ..., q+1, q)`` is the minimal
    staircase with ``m_c >= len(component c)``; staircase counts are exactly
    the trivial-core configurations, and minimality makes the map inverse to
    :func:`ell_quotient`.  Each component goes through ``make_partition``.
    """
    return _partition_from_positions(_staircase_beads(_make_multipartition(quotient, ell), ell))


def _staircase_beads(quotient: MultiPartition, ell: int) -> list[int]:
    """The bead positions of :func:`from_quotient`, decreasing, for a
    validated ``quotient``: component ``c`` as a beta-set of length ``m_c``
    on column ``c``, ``(m_0, ..., m_{ell-1})`` the minimal staircase: part
    ``i`` in row ``p_i + m_c - i``, padding in the rows below."""
    lengths = [len(component) for component in quotient]
    q = max([0] + [b - 1 for b in lengths[: ell - 1]] + [lengths[ell - 1]])
    beads: list[int] = []
    for c, component in enumerate(quotient):
        m = q if c == ell - 1 else q + 1
        if component:
            beads += [(p + m - i) * ell + c for i, p in enumerate(component, start=1)]
        beads += range(c, (m - len(component)) * ell, ell)
    beads.sort(reverse=True)
    return beads


def _make_multipartition(quotient, ell: int) -> MultiPartition:
    """``quotient`` checked as an ``ell``-multipartition, each component
    through ``make_partition``: :class:`EllOutOfRange` for ``ell < 1``, then
    :class:`LengthMismatch` unless it has ``ell`` components."""
    if ell < 1:
        raise EllOutOfRange(ell)
    if len(quotient) != ell:
        raise LengthMismatch((quotient, ell))
    return tuple(make_partition(component) for component in quotient)


def star_involution(quotient: MultiPartition) -> MultiPartition:
    """First component fixed, the remaining components reversed."""
    return quotient[:1] + quotient[:0:-1]


def format_multipartition(quotient: MultiPartition) -> str:
    """Text form: components joined by ``|``, empty component ``-``."""
    return "|".join(format_partition(component) for component in quotient)


def parse_multipartition(text: str) -> MultiPartition:
    return tuple(parse_partition(piece) for piece in text.split("|"))
