#!/usr/bin/env python3
"""Walk through the full pipeline for one partition (default (3,2)).

Prints the Schubert-cell basis, the symbolic Wronskian relations, the direct
combinatorial relations (they must agree), the simplified quotient ring, and
the Hilbert series — everything exact.
"""

from __future__ import annotations

import argparse

from cherednik_centre import (
    direct_presentation,
    format_poly,
    format_series,
    hilbert_series_formula,
    parse_partition,
    quotient_ring_text,
    schubert_basis,
    simplify,
    weight,
    wronski_relations,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("partition", nargs="?", default="3,2")
    args = parser.parse_args()
    lam = parse_partition(args.partition)
    n = weight(lam)

    print(f"partition {lam}, weight {n}")
    print("\nSchubert-cell basis:")
    for i, poly in enumerate(schubert_basis(lam).polys, start=1):
        print(f"  f_{i}(u) = {format_poly(poly)}")

    oracle = wronski_relations(lam)
    print(f"\nWronskian leading u^{n} coefficient: {oracle.leading}")
    print("relations from the Wronskian:")
    for s in range(1, n + 1):
        print(f"  r_{s} = {oracle.relations.text(s - 1)}")

    built = direct_presentation(lam)
    agree = built.relations == oracle.relations
    print(f"\ndirect combinatorial construction agrees: {agree}")
    if not agree:
        raise SystemExit("the two routes disagree — this is a bug")

    reduced = simplify(built)
    print(f"simplified: {quotient_ring_text(reduced)}")

    series = hilbert_series_formula(lam)
    print(f"Hilbert series: {format_series(series)} (dimension {series.dimension()})")


if __name__ == "__main__":
    main()
