"""Exact presentations of centres of restricted rational Cherednik algebras.

The package computes, with exact rational arithmetic throughout:

* partition/abacus combinatorics (hooks, beta-sets, ell-cores, ell-quotients
  and the inverse quotient construction);
* symbolic Wronskians of Schubert-cell bases and the graded relation ideals
  they cut out;
* the equivalent direct combinatorial presentations (transversal monomials
  with Vandermonde-type coefficients), their wreath-product analogues, and a
  deterministic simplifier;
* Hilbert series/dimensions by closed formula on the (multi)partition, and
  by an independent linear-algebra oracle that checks it;
* the block decomposition of the full centre for the symmetric group and for
  its cyclic wreath products, assuming a generic deformation parameter.

The two computation routes (Wronskian determinant vs. direct combinatorics;
closed formulas vs. rank oracle) are deliberately independent and are
compared coefficient-by-coefficient by the suites in ``checks``, which the
acceptance tests and ``selftest`` both run.
"""

__version__ = "0.1.0"

from .abacus import (
    BeadDiagram, MultiPartition, abacus_from_partition, ell_core, ell_quotient,
    format_multipartition, from_quotient, has_trivial_core, parse_multipartition,
    partition_from_abacus, star_involution,
)
from .centre import (
    Block, CentrePresentation, block, centre_presentation, multipartitions_of,
)
from .errors import (
    CellOutOfDiagram, DomainError, EllOutOfRange, EmptyPartition, InexactDivision,
    InhomogeneousRelation, LengthMismatch, MalformedPresentation, NegativeDegreeGenerator,
    NegativePart, NegativeWeight, NonIntegral, NonSquare, NotWeaklyDecreasing,
    OracleTruncated, PadTooShort, RowOutOfRange, TooLarge, UnparsableLabel, ZeroPolynomial,
)
from .hilbert import (
    HilbertSeries, dimension_hook_formula, format_series,
    graded_dimensions_from_presentation, hilbert_series_formula, make_series,
    presentation_dimension,
)
from .partitions import (
    Partition, beta_set, cells, first_column_hooks, format_partition, hook_length,
    make_partition, parse_partition, partitions_of, row_hook_set, transpose, weight,
)
from .polyring import GenSym, MPoly, determinant, format_poly, weighted_degree
from .presentation import (
    GradedPresentation, PresentationMeta, TransversalMonomial, direct_presentation,
    format_label, negate_grading, presentation_document, quotient_ring_text,
    simplify, transversal_monomials, wreath_presentation,
)
from .wronski import (
    SchubertBasis, WronskiRelations, schubert_basis, wronski_relations, wronskian,
    wronskian_recursive,
)

__all__ = [
    # abacus
    "BeadDiagram", "MultiPartition", "abacus_from_partition", "ell_core",
    "ell_quotient", "format_multipartition", "from_quotient", "has_trivial_core",
    "parse_multipartition", "partition_from_abacus", "star_involution",
    # centre
    "Block", "CentrePresentation", "block", "centre_presentation",
    "multipartitions_of",
    # errors
    "CellOutOfDiagram", "DomainError", "EllOutOfRange", "EmptyPartition",
    "InexactDivision", "InhomogeneousRelation", "LengthMismatch",
    "MalformedPresentation", "NegativeDegreeGenerator",
    "NegativePart", "NegativeWeight", "NonIntegral", "NonSquare", "NotWeaklyDecreasing",
    "OracleTruncated", "PadTooShort", "RowOutOfRange", "TooLarge",
    "UnparsableLabel", "ZeroPolynomial",
    # hilbert
    "HilbertSeries", "dimension_hook_formula", "format_series",
    "graded_dimensions_from_presentation", "hilbert_series_formula",
    "make_series", "presentation_dimension",
    # partitions
    "Partition", "beta_set", "cells", "first_column_hooks", "format_partition",
    "hook_length", "make_partition", "parse_partition", "partitions_of",
    "row_hook_set", "transpose", "weight",
    # polyring
    "GenSym", "MPoly", "determinant", "format_poly", "weighted_degree",
    # presentation
    "GradedPresentation", "PresentationMeta", "TransversalMonomial",
    "direct_presentation", "format_label", "negate_grading",
    "presentation_document", "quotient_ring_text", "simplify",
    "transversal_monomials", "wreath_presentation",
    # wronski
    "SchubertBasis", "WronskiRelations", "schubert_basis", "wronski_relations",
    "wronskian", "wronskian_recursive",
]
