"""The samplers as they were before their integer kernels and draw plans: the test-side reference.

``IntervalPea.sample`` draws through the descriptor's ``_sample_interval``
on its checked strong unit, and the scalar samplers find their windows by
integer arithmetic on numerators and denominators.  The versions kept here
draw through the checked ``sample_interval``, re-wrap every bound as a
``Fraction`` and find the quadratic window by ``QuadraticNumber``
arithmetic.  The tests require both to return equal values from the same
``random.Random`` calls, so every seeded sampled check keeps its draws.
The element and positive samplers here, which the lex tails draw from,
call ``randint`` as the package did before its samplers became plans of
``randrange`` calls.

The cyclic sampler here truncates lo*n and hi*n toward zero: that equals
ceil(lo*n) and floor(hi*n) only for bounds on the grid (1/n)Z, which are
the only ones to compare it on.
"""

import math
from fractions import Fraction

from ordalg import groups as g
from ordalg.errors import PreconditionError
from ordalg.scalars import Ordering, QuadraticNumber, compare, pick_strictly_between


def quadratic_floor(x: QuadraticNumber) -> int:
    """Exact floor of a + b*sqrt(d) by one isqrt bracket and one sign test."""
    a, b = x.a, x.b
    p, s = a.numerator, a.denominator
    r, q = b.numerator, b.denominator
    if r == 0:
        return p // s
    t = math.isqrt(r * r * x.d)
    c = (p * q + (t if r > 0 else -(t + 1)) * s) // (s * q) + 1
    return c if (x - c).sign() >= 0 else c - 1


def sample_between(H, lo, hi, rng):
    """A member of [lo, hi] for lo < hi, drawn the way each subgroup kind did."""
    kind, n = H.classify()
    if kind == "cyclic":
        k_lo = int(Fraction(lo) * n)
        k_hi = int(Fraction(hi) * n)
        k = rng.randint(k_lo, k_hi)
        return k if n == 1 else Fraction(k, n)
    if not hasattr(H, "d"):  # Q
        lo, hi = Fraction(lo), Fraction(hi)
        p, q, r, s = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        k = rng.randint(0, 16)
        return Fraction(16 * p * s + (r * q - p * s) * k, 16 * q * s)
    lo, hi = H.coerce(lo), H.coerce(hi)
    for _ in range(40):
        k = rng.randint(-8, 8)
        kb = QuadraticNumber(Fraction(0), Fraction(k), H.d)
        lo_m = -quadratic_floor(-(lo - kb))  # ceil
        hi_m = quadratic_floor(hi - kb)
        if lo_m <= hi_m:
            m = rng.randint(lo_m, hi_m)
            return QuadraticNumber(Fraction(m), Fraction(k), H.d)
    return pick_strictly_between(H, lo, hi)


def sample_element(desc, rng, bound):
    """A random element with integer data in [-bound, bound], drawn the way each descriptor did."""
    if isinstance(desc, g.Scalar):
        H = desc.H
        kind, n = H.classify()
        if kind == "cyclic":
            k = rng.randint(-bound, bound)
            return k if n == 1 else Fraction(k, n)
        if not hasattr(H, "d"):  # Q
            return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        return QuadraticNumber(rng.randint(-bound, bound), rng.randint(-bound, bound), H.d)
    if isinstance(desc, g.IntVector):
        return tuple(rng.randint(-bound, bound) for _ in range(desc.k))
    if isinstance(desc, g.AffineQ):
        a = Fraction(rng.randint(1, bound), rng.randint(1, bound))
        b = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        return (a, b)
    a, b = desc.parts
    return (sample_element(a, rng, bound), sample_element(b, rng, bound))


def sample_positive(desc, rng, bound):
    """A random element of the positive cone, drawn the way each descriptor did."""
    if isinstance(desc, g.IntVector):
        return tuple(rng.randint(0, bound) for _ in range(desc.k))
    if isinstance(desc, g.Product):
        a, b = desc.parts
        return (sample_positive(a, rng, bound), sample_positive(b, rng, bound))
    if isinstance(desc, g.Lex):
        top, bottom = desc.parts
        head = _flipped_element(top, rng, bound)
        if head == top.zero():
            return (head, sample_positive(bottom, rng, bound))
        return (head, sample_element(bottom, rng, bound))
    return _flipped_element(desc, rng, bound)


def _flipped_element(desc, rng, bound):
    """An element of a linearly ordered desc, negated when negative."""
    x = sample_element(desc, rng, bound)
    return x if desc._positive(x) else desc.neg(x)


def sample_interval(desc, hi, rng, bound=10):
    """A random x with 0 <= x <= hi, checking hi on every call."""
    zero = desc.zero()
    if hi == zero:
        return zero
    if not desc._positive(hi):
        raise PreconditionError("sample_interval needs 0 <= hi")
    return _sample_interval(desc, hi, rng, bound)


def _sample_head(desc, hi, rng, bound):
    if isinstance(desc, g.Scalar):
        return _sample_interval(desc, hi, rng, bound)
    return rng.choice([desc.zero(), hi])


def _sample_interval(desc, hi, rng, bound):
    if isinstance(desc, g.Scalar):
        zero = desc.H.zero()
        if compare(zero, hi) is Ordering.EQ:
            return zero
        return sample_between(desc.H, zero, hi, rng)
    if isinstance(desc, g.IntVector):
        return tuple(rng.randint(0, v) for v in hi)
    if isinstance(desc, g.AffineQ):
        return _sample_affine(hi, rng, bound)
    if isinstance(desc, g.Lex):
        top, bottom = desc.parts
        h_hi, t_hi = hi
        if h_hi == top.zero():
            return (h_hi, sample_interval(bottom, t_hi, rng, bound))
        s = _sample_head(top, h_hi, rng, bound)
        if s == top.zero():
            return (s, sample_positive(bottom, rng, bound))
        if s == h_hi:
            delta = sample_positive(bottom, rng, bound)
            return (s, bottom.add(t_hi, bottom.neg(delta)))
        return (s, sample_element(bottom, rng, bound))
    a, b = desc.parts  # Product
    return (sample_interval(a, hi[0], rng, bound), sample_interval(b, hi[1], rng, bound))


def _sample_affine(hi, rng, bound):
    a1, b1 = hi
    if a1 == 1:
        return (Fraction(1), b1 * Fraction(rng.randint(0, 16), 16))
    choice = rng.randint(0, 3)
    if choice == 0:
        return (Fraction(1), Fraction(0))
    if choice == 1:
        return hi
    if choice == 2:
        if rng.random() < 0.5:
            return (Fraction(1), Fraction(rng.randint(0, bound)))
        return (a1, b1 - Fraction(rng.randint(0, bound)))
    c = Fraction(1) + (a1 - 1) * Fraction(rng.randint(1, 15), 16)
    e = Fraction(rng.randint(-bound, bound), rng.randint(1, 4))
    return (c, e)
