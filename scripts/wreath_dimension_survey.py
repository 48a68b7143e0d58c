#!/usr/bin/env python3
"""Tabulate wreath block series: rank oracle against the closed formula.

For each ell-multipartition q of n with 2 <= ell and n*ell <= budget, prints
the oracle dimension of the block presentation next to the value at q = 1
of the closed series ``prod (1 - q^{ell i}) / prod (1 - q^{ell h})`` over
the cells of all components of q (Gordon 2003, smooth case), and whether the
two whole series agree.  A label whose oracle raises ``OracleTruncated`` (it
finds the quotient infinite) shows ``-`` for the oracle and disagrees.  Exits
1 if any label disagrees.
"""

from __future__ import annotations

import argparse
import sys

from cherednik_centre import (
    format_multipartition,
    hilbert_series_formula,
    multipartitions_of,
    wreath_presentation,
)
from cherednik_centre.checks import oracle_series


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--budget", type=int, default=8, help="largest n*ell to survey"
    )
    args = parser.parse_args()

    disagreements = 0
    print(f"{'ell':>3} {'label':<16} {'oracle':>7} {'hook-formula':>13} agree")
    for ell in range(2, args.budget + 1):
        for n in range(1, args.budget // ell + 1):
            for q in multipartitions_of(n, ell):
                oracle = oracle_series(wreath_presentation(q, ell))
                formula = hilbert_series_formula(q, ell)
                disagreements += oracle != formula
                print(
                    f"{ell:>3} {format_multipartition(q):<16} "
                    f"{oracle.dimension() if oracle else '-':>7} "
                    f"{formula.dimension():>13} {'yes' if oracle == formula else 'NO'}"
                )
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
