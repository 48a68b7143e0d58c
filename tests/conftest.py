"""Shared strategies and hypothesis configuration.

The exact rank oracle gets slow in high degree, so the default deadline is
disabled; individual tests bound their own input sizes instead.
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings, strategies as st

from cherednik_centre import NegativePart, NotWeaklyDecreasing, UnparsableLabel, partitions_of

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=60,
)
settings.load_profile("exact")


# Labels that are not partitions, each with the error ``make_partition``
# raises on it; every entry point that takes a label must raise the same.
NON_PARTITIONS = [
    ((1, 2), NotWeaklyDecreasing),
    ((2, 1, 3), NotWeaklyDecreasing),
    ((-1,), NegativePart),
    ((1, -1), NegativePart),
    ((1.5,), UnparsableLabel),
    (((1,),), UnparsableLabel),
]


def partitions_up_to(n_max: int, n_min: int = 0):
    """Strategy drawing a partition of any weight in ``[n_min, n_max]``."""
    pool = [lam for n in range(n_min, n_max + 1) for lam in partitions_of(n)]
    return st.sampled_from(pool)


def multipartitions_up_to(n_max: int, ell_max: int, ell_min: int = 1):
    """Strategy drawing ``(quotient, ell)`` pairs with small total weight."""
    from cherednik_centre import multipartitions_of

    pool = [
        (q, ell)
        for ell in range(ell_min, ell_max + 1)
        for n in range(n_max + 1)
        for q in multipartitions_of(n, ell)
    ]
    return st.sampled_from(pool)
