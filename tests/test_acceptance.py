"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Every check is exact — integer/rational equality with zero tolerance.  Each
criterion also carries a wall-clock budget; the budgets are asserted so a
performance regression fails loudly rather than silently eating CI time.

Run with ``pytest -v tests/test_acceptance.py`` for the per-criterion lines,
or ``-s`` to see the timing report as it happens.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

from cherednik_centre import (
    GenSym,
    beta_set,
    centre_presentation,
    checks,
    dimension_hook_formula,
    direct_presentation,
    ell_core,
    ell_quotient,
    from_quotient,
    hilbert_series_formula,
    hook_length,
    partitions_of,
    quotient_ring_text,
    row_hook_set,
    simplify,
    transpose,
    transversal_monomials,
    weighted_degree,
    wreath_presentation,
    wronski_relations,
)


class _criterion:
    """Time a criterion body and print its pass/fail line."""

    def __init__(self, number: int, title: str, budget_seconds: float):
        self.number = number
        self.title = title
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(
            f"criterion {self.number} {verdict} ({elapsed:.2f}s / "
            f"budget {self.budget:.0f}s): {self.title}"
        )
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def _coeff(rel, *symbols):
    key = (0, tuple(sorted((s, 1) for s in symbols)))
    return rel.get(key, Fraction(0))


def test_criterion_1_worked_example_coefficients():
    with _criterion(1, "worked-example relation coefficients for (3,2)", 1.0):
        result = wronski_relations((3, 2))
        r1, r2, r3, r4, r5 = result.relations
        assert _coeff(r1, GenSym(1, 1)) == 14400
        assert _coeff(r1, GenSym(2, 1)) == 30240
        assert _coeff(r2, GenSym(1, 1), GenSym(2, 1)) == 11520
        assert _coeff(r2, GenSym(2, 2)) == 10080
        assert _coeff(r3, GenSym(1, 3)) == -2880
        assert _coeff(r3, GenSym(1, 1), GenSym(2, 2)) == 4320
        assert _coeff(r4, GenSym(1, 4)) == -1440
        assert _coeff(r5, GenSym(1, 4), GenSym(2, 1)) == -288
        assert _coeff(r5, GenSym(1, 3), GenSym(2, 2)) == 288
        # leading u^5 coefficient, reported exactly as the determinant
        # computes it
        assert result.leading == 50400


def test_criterion_2_direct_construction_equals_wronskian_oracle():
    with _criterion(2, "direct = Wronskian coefficient-by-coefficient, n <= 6", 120.0):
        # the empty partition is compared too, by the suite and here
        assert direct_presentation(()).relations == wronski_relations(()).relations
        assert checks.direct_equals_wronskian(6) is None


def test_criterion_3_simplified_canonical_forms():
    with _criterion(3, "three simplified quotient-ring forms", 10.0):
        s = simplify(direct_presentation((3, 2)))
        assert quotient_ring_text(s) == "C[f1,1] / (f1,1^5)"
        assert [(g.degree, d) for g, d in s.generators] == [(1, 1)]

        w = simplify(wreath_presentation(ell_quotient((2, 2), 2), 2))
        assert quotient_ring_text(w) == "C[f1,2] / (f1,2^2)"

        t = simplify(wreath_presentation(((1, 1), (), (1,)), 3))
        assert quotient_ring_text(t) == "C[f2,3] / (f2,3^3)"


def test_criterion_4_abacus_pins_and_bijection():
    with _criterion(4, "abacus pins and quotient bijection (n<=5, ell<=4)", 10.0):
        assert ell_core((4, 2, 2), 3) == (1, 1)
        assert ell_quotient((4, 2, 2), 3) == ((1, 1), (), ())
        assert from_quotient(((3, 2), (1, 1), (2,)), 3) == (8, 5, 5, 5, 4)
        assert from_quotient(((1, 1), (), (1,)), 3) == (2, 2, 2, 2, 1)
        assert checks.abacus_bijection(5) is None


def test_criterion_5_hilbert_series_suite():
    with _criterion(5, "Hilbert formula/oracle/hook-dimension agreement", 120.0):
        assert hilbert_series_formula((3, 1)).coefficients == (1, 1, 1)
        assert checks.hilbert_formula_equals_oracle(6) is None
        for n in range(0, 9):
            assert sum(
                dimension_hook_formula(lam) ** 2 for lam in partitions_of(n)
            ) == math.factorial(n)
            for lam in partitions_of(n):
                assert hilbert_series_formula(lam) == hilbert_series_formula(
                    transpose(lam)
                )


def test_criterion_6_centre_assembly():
    with _criterion(6, "centre blocks for n=2 at ell=1 and ell=2", 5.0):
        plain = centre_presentation(2, 1)
        assert plain.total_dimension == 2
        assert [b.dimension for b in plain.blocks] == [1, 1]
        for b in plain.blocks:
            assert quotient_ring_text(simplify(b.plus_part)) == "C"

        wreath = centre_presentation(2, 2, simplified=True)
        assert wreath.total_dimension == 8
        nontrivial = [b for b in wreath.blocks if b.dimension > 1]
        assert len(nontrivial) == 1
        fat = nontrivial[0]
        assert fat.dimension == 4
        assert quotient_ring_text(fat.plus_part) == "C[f1,2] / (f1,2^2)"
        assert quotient_ring_text(fat.minus_part) == "C[g1,2] / (g1,2^2)"
        assert [d for _, d in fat.plus_part.generators] == [2]
        assert [d for _, d in fat.minus_part.generators] == [-2]


def test_criterion_7_property_suites():
    with _criterion(7, "structural identities (rows, relations, wreath)", 300.0):
        # row hook sets against cell hooks, and the shared-column shift
        for n in range(0, 13):
            for lam in partitions_of(n):
                beta = beta_set(lam, max(1, len(lam)))
                for i in range(1, len(lam) + 1):
                    hooks = {
                        hook_length(lam, (i, j))
                        for j in range(1, lam[i - 1] + 1)
                    }
                    assert len(hooks) == lam[i - 1]
                    assert row_hook_set(lam, i) == hooks
                    for k in range(i + 1, len(lam) + 1):
                        for j in range(1, lam[k - 1] + 1):
                            assert beta[i - 1] - hook_length(lam, (i, j)) == (
                                beta[k - 1] - hook_length(lam, (k, j))
                            )

        # relation structure: homogeneity, squarefreeness, linear placement,
        # and monomial support = transversal monomials (both directions)
        for n in range(1, 7):
            for lam in partitions_of(n):
                p = direct_presentation(lam)
                symbols = {g for g, _ in p.generators}
                expected_support: dict[int, set] = {
                    s: set() for s in range(1, n + 1)
                }
                for m in transversal_monomials(lam):
                    if m.degree:
                        expected_support[m.degree].add(
                            tuple(
                                sorted(
                                    (GenSym(i, hook_length(lam, (i, j))), 1)
                                    for i, j in m.cells
                                )
                            )
                        )
                for s, rel in enumerate(p.relations, start=1):
                    assert rel and weighted_degree(rel) == s
                    assert {mono[1] for mono in rel} == expected_support[s]
                    for _ue, gens in rel:
                        assert all(e == 1 for _g, e in gens)
                    linear = {
                        gens[0][0]
                        for _ue, gens in rel
                        if len(gens) == 1
                    }
                    assert linear == {g for g in symbols if g.degree == s}

        # wreath degrees, n relations in the generators alone, series
        # support and simplify invariance for all labels with n*ell <= 8
        # (2 <= ell <= 8)
        assert checks.wreath_support(8) is None
