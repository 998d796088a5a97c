"""Seeded random generation of group elements.

All sampled checks in the package draw from these helpers with an explicit
``random.Random`` instance so every run is reproducible.  The rules for each
descriptor are methods of its class in :mod:`ordalg.groups`; the scalar
rules they build on live here.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import (
    Ordering,
    QuadraticNumber,
    ScalarSubgroup,
    SubgroupKind,
    compare,
    pick_strictly_between,
)


def sample_scalar(H: ScalarSubgroup, rng, bound: int = 10):
    if H.kind is SubgroupKind.CYCLIC:
        return Fraction(rng.randint(-bound, bound), H.n)
    if H.kind is SubgroupKind.FULL_Q:
        return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
    return QuadraticNumber(
        Fraction(rng.randint(-bound, bound)), Fraction(rng.randint(-bound, bound)), H.d
    )


def sample_element(desc, rng, bound: int = 10):
    """A random element of the group, integer data bounded by ``bound``."""
    return desc.sample_element(rng, bound)


def sample_positive(desc, rng, bound: int = 10):
    """A random element of the positive cone."""
    return desc.sample_positive(rng, bound)


def _sample_scalar_between(H: ScalarSubgroup, lo, hi, rng, tries: int = 40):
    """A member of H in the closed interval [lo, hi] (lo <= hi assumed)."""
    if compare(lo, hi) is Ordering.EQ:
        return lo
    if H.kind is SubgroupKind.CYCLIC:
        k_lo = int(Fraction(lo) * H.n)
        k_hi = int(Fraction(hi) * H.n)
        return Fraction(rng.randint(k_lo, k_hi), H.n)
    if H.kind is SubgroupKind.FULL_Q:
        lo, hi = Fraction(lo), Fraction(hi)
        return lo + (hi - lo) * Fraction(rng.randint(0, 16), 16)
    # quadratic: pick a random sqrt(d)-coefficient, then an integer part inside
    for _ in range(tries):
        k = rng.randint(-8, 8)
        kb = QuadraticNumber(Fraction(0), Fraction(k), H.d)
        lo_m = (H.coerce(lo) - kb).floor() + 1
        hi_m = -((-(H.coerce(hi) - kb)).floor())  # ceil
        if lo_m <= hi_m - 1:
            m = rng.randint(lo_m, hi_m - 1)
            return QuadraticNumber(Fraction(m), Fraction(k), H.d)
    try:
        return pick_strictly_between(H, lo, hi)
    except Exception:
        return H.coerce(lo)


def sample_interval(desc, hi, rng, bound: int = 10):
    """A random element x with 0 <= x <= hi."""
    return desc.sample_interval(hi, rng, bound)
