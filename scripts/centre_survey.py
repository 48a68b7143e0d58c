#!/usr/bin/env python3
"""Survey the block decomposition of the centre over a range of groups.

For each (n, ell) prints one row per block: label, simplified plus part, and
block dimension, followed by the total (which for ell = 1 is n!).
"""

from __future__ import annotations

import argparse

from cherednik_centre import centre_presentation, format_label, quotient_ring_text


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=4)
    parser.add_argument("--ell-max", type=int, default=2)
    parser.add_argument(
        "--budget",
        type=int,
        default=8,
        help="skip groups with n*ell above this (presentation cost grows quickly)",
    )
    args = parser.parse_args()

    for ell in range(1, args.ell_max + 1):
        for n in range(1, args.n_max + 1):
            if n * ell > args.budget:
                continue
            result = centre_presentation(n, ell, simplified=True)
            print(f"\n=== n={n}, ell={ell}: total dimension {result.total_dimension}")
            width = max(len(format_label(b.label)) for b in result.blocks)
            for b in result.blocks:
                print(
                    f"  {format_label(b.label):<{width}}  dim {b.dimension:>4}  "
                    f"plus {quotient_ring_text(b.plus_part)}"
                )


if __name__ == "__main__":
    main()
