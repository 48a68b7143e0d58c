#!/usr/bin/env python3
"""Tabulate wreath block dimensions: rank oracle against the hook formula.

For each ell-multipartition q of n with 2 <= ell and n*ell <= budget, prints
the oracle dimension of the block presentation next to
``n! / prod hooks`` over the cells of all components of q (Gordon 2003,
smooth case).  The two agree on every label up to n*ell <= 8, which
``tests/test_hilbert.py`` asserts.
"""

from __future__ import annotations

import argparse

from cherednik_centre import (
    format_multipartition,
    multipartitions_of,
    presentation_dimension,
    wreath_dimension_formula,
    wreath_presentation,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--budget", type=int, default=8, help="largest n*ell to survey"
    )
    args = parser.parse_args()

    print(f"{'ell':>3} {'label':<16} {'oracle':>7} {'hook-formula':>13} agree")
    for ell in range(2, args.budget + 1):
        for n in range(1, args.budget // ell + 1):
            for q in multipartitions_of(n, ell):
                dim = presentation_dimension(wreath_presentation(q, ell))
                formula = wreath_dimension_formula(q)
                print(
                    f"{ell:>3} {format_multipartition(q):<16} {dim:>7} "
                    f"{formula:>13} {'yes' if dim == formula else 'NO'}"
                )


if __name__ == "__main__":
    main()
