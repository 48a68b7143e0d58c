"""The independent-route checks, shared by ``selftest`` and the acceptance gate.

Each suite computes one family of quantities by two (or three) independent
routes and returns ``None`` if they agree over its bounds, or a one-line
detail naming the first label where they do not (an oracle that raises
``OracleTruncated`` there disagrees).  Bounds are inclusive.
"""

from __future__ import annotations

from .abacus import (
    abacus_from_partition,
    ell_quotient,
    from_quotient,
    has_trivial_core,
    partition_from_abacus,
)
from .centre import multipartitions_of
from .errors import OracleTruncated
from .hilbert import (
    HilbertSeries,
    dimension_hook_formula,
    graded_dimensions_from_presentation,
    hilbert_series_formula,
)
from .partitions import beta_set, partitions_of, weight
from .polyring import PackedPolys
from .presentation import GradedPresentation, direct_presentation, simplify, wreath_presentation
from .wronski import SchubertBasis, wronski_relations, wronskian, wronskian_recursive


def _packed_form(relations, n: int) -> tuple | None:
    """The codec's ``(symbols, bases)`` if ``relations`` are ``n`` packed
    polynomials of lead 1 each, else ``None``."""
    packed = isinstance(relations, PackedPolys) and len(relations.polys) == n
    if packed and relations.leads == (1,) * n:
        return relations.radix.symbols, relations.radix.bases
    return None


def direct_equals_wronskian(n_max: int) -> str | None:
    """For n <= n_max, both routes give n relations packed on one codec
    (equal ``symbols`` and ``bases``) with lead 1 each, and the direct
    relations equal the Wronskian's code for code."""
    for n in range(0, n_max + 1):
        for lam in partitions_of(n):
            oracle = wronski_relations(lam).relations
            built = direct_presentation(lam).relations
            forms = {_packed_form(oracle, n), _packed_form(built, n)}
            if None in forms:
                return f"relation mismatch at {lam}: not {n} packed relations of lead 1"
            if len(forms) > 1:
                return f"relation mismatch at {lam}: the codecs differ"
            if oracle.polys != built.polys:
                return f"relation mismatch at {lam}"
    return None


def abacus_bijection(n_max: int) -> str | None:
    """Abacus round trip on the partitions of n <= n_max, and ``from_quotient``
    a bijection from the ell-multipartitions of n onto the partitions of
    n*ell with trivial ell-core, inverted by ``ell_quotient``; ell <= 4."""
    for ell in range(1, 5):
        for n in range(0, n_max + 1):
            for lam in partitions_of(n):
                if partition_from_abacus(abacus_from_partition(lam, ell)) != lam:
                    return f"roundtrip failed at {lam}, ell={ell}"
            images = []
            for q in multipartitions_of(n, ell):
                lam = from_quotient(q, ell)
                if weight(lam) != n * ell or not has_trivial_core(lam, ell):
                    return f"from_quotient broken at {q}, ell={ell}"
                if ell_quotient(lam, ell) != q:
                    return f"quotient inverse broken at {q}, ell={ell}"
                images.append(lam)
            trivial = [
                lam for lam in partitions_of(n * ell) if has_trivial_core(lam, ell)
            ]
            if sorted(images) != sorted(trivial):
                return f"bijection image mismatch at n={n}, ell={ell}"
    return None


def oracle_series(presentation: GradedPresentation) -> HilbertSeries | None:
    """The rank oracle's series of ``presentation``, or ``None`` (equal to
    no series) if the oracle raises ``OracleTruncated``."""
    try:
        return graded_dimensions_from_presentation(presentation)
    except OracleTruncated:
        return None


def hilbert_formula_equals_oracle(n_max: int) -> str | None:
    """Series formula = rank oracle, and its value at 1 = hook dimension."""
    for n in range(0, n_max + 1):
        for lam in partitions_of(n):
            series = hilbert_series_formula(lam)
            oracle = oracle_series(direct_presentation(lam))
            if series != oracle:
                return f"series mismatch at {lam}"
            if series.dimension() != dimension_hook_formula(lam):
                return f"dimension mismatch at {lam}"
    return None


def recursive_wronskian(n_max: int) -> str | None:
    """Determinant = recursion (up to the column-reversal sign) on the
    monomial bases ``u^d`` of the beta-sets, for n <= n_max."""
    for n in range(1, n_max + 1):
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        for lam in partitions_of(n):
            monomials = [{(d, ()): 1} for d in beta_set(lam, n)]
            det_route = wronskian(SchubertBasis((), tuple(monomials)))
            rec_route = wronskian_recursive(monomials[::-1])
            if det_route != {mono: sign * c for mono, c in rec_route.items()}:
                return f"recursive oracle mismatch at {lam}"
    return None


def wreath_support(total_max: int) -> str | None:
    """For every label with 2 <= ell and n*ell <= total_max: each generator
    listed at its symbol's degree (the oracle reads no other), generator
    degrees divisible by ell, n relations, the k-th of degree k*ell in the
    generators alone (read off its packed codes), the closed series formula
    equal to the oracle series, series supported in degrees divisible by
    ell, and ``simplify`` leaving the oracle series unchanged."""
    for ell in range(2, total_max + 1):
        for n in range(0, total_max // ell + 1):
            for q in multipartitions_of(n, ell):
                built = wreath_presentation(q, ell)
                for g, degree in built.generators:
                    if degree != g.degree:
                        return f"generator listed at degree {degree}, not {g.degree}, at {q}"
                    if degree % ell:
                        return f"generator degree not divisible at {q}"
                relations = built.relations
                if len(relations.polys) != n:
                    return f"{len(relations.polys)} relations, not {n}, at {q}"
                generators = {g for g, _ in built.generators}
                decode = relations.radix.decode
                for k, rel in enumerate(relations.polys, start=1):
                    for ue, gens in map(decode, rel):
                        if ue or any(s not in generators for s, _ in gens):
                            return f"relation {k} holds a non-generator at {q}"
                        if sum(s.degree * e for s, e in gens) != k * ell:
                            return f"relation {k} not of degree {k * ell} at {q}"
                series = oracle_series(built)
                if hilbert_series_formula(q, ell) != series:
                    return f"series formula mismatch at {q}"
                for d, c in enumerate(series.coefficients):
                    if c and d % ell:
                        return f"support violation at {q}, degree {d}"
                if oracle_series(simplify(built)) != series:
                    return f"simplify changed dimensions at {q}"
    return None
