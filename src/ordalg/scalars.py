"""Exact scalar subgroups of the real line.

Three kinds of subgroups containing 1 are supported: the cyclic groups
(1/n)Z, the full rationals Q, and the quadratic groups Z + Z*sqrt(d) for a
square-free d >= 2.  Values of Z = (1/1)Z are plain ``int`` and stay so
under int arithmetic; the other rational values are plain
``fractions.Fraction`` and quadratic values are :class:`QuadraticNumber`.
Every order decision is made exactly; no floating point is used anywhere.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainMismatchError, NoElementError, PreconditionError


class Ordering(enum.IntEnum):
    LT = -1
    EQ = 0
    GT = 1


def _is_square_free(d: int) -> bool:
    if d < 1:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


@functools.lru_cache(maxsize=256, typed=True)
def _check_d(d: int) -> None:
    """Validate d once; a bad d raises again on every call (errors are not cached)."""
    if d < 2 or math.isqrt(d) ** 2 == d:
        raise PreconditionError(f"d must be a non-square integer >= 2, got {d}")
    if not _is_square_free(d):
        raise PreconditionError(f"d must be square-free, got {d}")


def _sign(an: int, ad: int, bn: int, bd: int, d: int) -> int:
    """Sign of an/ad + (bn/bd)*sqrt(d) for ad, bd > 0 and a non-square d.

    The kernel of every quadratic order decision: integers only, and the
    fractions need not be in lowest terms.
    """
    if bn == 0:
        return (an > 0) - (an < 0)
    sb = 1 if bn > 0 else -1
    if an == 0 or (an > 0) == (bn > 0):
        return sb
    # opposite signs: compare a^2 with b^2*d cleared of denominators
    # (equality is impossible, d is not a square)
    u, v = an * bd, bn * ad
    lhs, rhs = u * u, v * v * d
    assert lhs != rhs, "sqrt(d) cannot be rational"
    return -sb if lhs > rhs else sb


@dataclass(frozen=True)
class QuadraticNumber:
    """Exact value a + b*sqrt(d) with rational a, b and a fixed non-square d."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        if type(self.a) is not Fraction:
            object.__setattr__(self, "a", Fraction(self.a))
        if type(self.b) is not Fraction:
            object.__setattr__(self, "b", Fraction(self.b))
        _check_d(self.d)

    def _check(self, other: "QuadraticNumber") -> "QuadraticNumber":
        if isinstance(other, (int, Fraction)):
            other = QuadraticNumber(Fraction(other), Fraction(0), self.d)
        if not isinstance(other, QuadraticNumber) or other.d != self.d:
            raise DomainMismatchError(f"mixed operands: sqrt({self.d}) vs {other!r}")
        return other

    def _cmp(self, other) -> int:
        """Sign of self - other, without building the difference."""
        a, b = self.a, self.b
        p, s, r, q = a.numerator, a.denominator, b.numerator, b.denominator
        if isinstance(other, QuadraticNumber):
            if other.d == self.d:
                oa, ob = other.a, other.b
                os, oq = oa.denominator, ob.denominator
                return _sign(p * os - oa.numerator * s, s * os,
                             r * oq - ob.numerator * q, q * oq, self.d)
        elif isinstance(other, (int, Fraction)):
            om = other.denominator
            return _sign(p * om - other.numerator * s, s * om, r, q, self.d)
        raise DomainMismatchError(f"mixed operands: sqrt({self.d}) vs {other!r}")

    def __add__(self, other):
        other = self._check(other)
        return QuadraticNumber(self.a + other.a, self.b + other.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return QuadraticNumber(self.a - other.a, self.b - other.b, self.d)

    def __neg__(self):
        return QuadraticNumber(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return QuadraticNumber(self.a * q, self.b * q, self.d)
        other = self._check(other)
        return QuadraticNumber(
            self.a * other.a + self.b * other.b * self.d,
            self.a * other.b + self.b * other.a,
            self.d,
        )

    __rmul__ = __mul__

    def sign(self) -> int:
        """Sign of a + b*sqrt(d), decided by exact case analysis on a and b."""
        a, b = self.a, self.b
        return _sign(a.numerator, a.denominator, b.numerator, b.denominator, self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self.d})"

    def floor(self) -> int:
        """Exact integer floor.

        For b = r/q in lowest terms and t = isqrt(r^2*d), |b|*sqrt(d) lies
        strictly between t/q and (t + 1)/q, so the value lies in an open
        interval (L, L + 1/q) and its floor is floor(L) or floor(L) + 1; one
        exact sign test against floor(L) + 1 decides.
        """
        a, b = self.a, self.b
        p, s = a.numerator, a.denominator
        r, q = b.numerator, b.denominator
        if r == 0:
            return p // s
        t = math.isqrt(r * r * self.d)
        # L = a + t/q for b > 0 and a - (t + 1)/q for b < 0
        c = (p * q + (t if r > 0 else -(t + 1)) * s) // (s * q) + 1
        return c if _sign(p - c * s, s, r, q, self.d) >= 0 else c - 1


_ZERO, _ONE = Fraction(0), Fraction(1)


class ScalarSubgroup:
    """A computable subgroup of the reals containing 1.

    Each kind is a private subclass -- (1/n)Z, Q and Z + Z*sqrt(d) -- built
    by the three constructors below.  Besides the value rules (the defaults
    here are those of the kinds with Fraction values) each one has
    ``pick_between(lo, hi)``, the deterministic witness for coerced lo < hi;
    ``grid(max_den, coeff_bound)``, a witness grid of [0, 1]; and the
    samplers ``sample(rng, bound)`` and ``sample_between(lo, hi, rng)``,
    a member of [lo, hi] for lo < hi.
    """

    is_dense = True

    @staticmethod
    def cyclic(n: int) -> "ScalarSubgroup":
        if n < 1:
            raise PreconditionError("cyclic order must be >= 1")
        return _Cyclic(n)

    @staticmethod
    def rationals() -> "ScalarSubgroup":
        return _Rationals()

    @staticmethod
    def quadratic(d: int) -> "ScalarSubgroup":
        _check_d(d)
        return _Quadratic(d)

    def zero(self):
        return _ZERO

    def one(self):
        return _ONE

    def coerce(self, x):
        """Convert ints/Fractions to this subgroup's value type (no membership check)."""
        if type(x) is Fraction:
            return x
        if isinstance(x, QuadraticNumber):
            if x.b == 0:
                return Fraction(x.a)
            raise DomainMismatchError(f"quadratic value in {self}")
        return Fraction(x)

    def contains(self, x) -> bool:
        if isinstance(x, QuadraticNumber):
            if x.b != 0:
                return False
            x = x.a
        return self.admits(Fraction(x))

    def admits(self, x) -> bool:
        """Whether ``Scalar.check_element`` takes a value already coerced here."""
        return True

    def classify(self):
        """Return ("cyclic", n) for (1/n)Z and ("dense", None) otherwise."""
        return ("dense", None)


@dataclass(frozen=True)
class _Cyclic(ScalarSubgroup):
    """(1/n)Z: the leftmost grid point is the witness, the grid is all of k/n.

    Values of Z (n = 1) are ``int``; those of (1/n)Z for n >= 2 are Fractions.
    """

    n: int
    is_dense = False

    def __str__(self):
        return "Z" if self.n == 1 else f"Z/{self.n}"

    def admits(self, x) -> bool:
        return self.n % x.denominator == 0

    def classify(self):
        return ("cyclic", self.n)

    def _point(self, k: int):
        """The value k/n: an int on Z, a Fraction otherwise."""
        return k if self.n == 1 else Fraction(k, self.n)

    def zero(self):
        return 0 if self.n == 1 else _ZERO

    def one(self):
        return 1 if self.n == 1 else _ONE

    def coerce(self, x):
        if self.n != 1:
            return super().coerce(x)
        if type(x) is int:
            return x
        x = super().coerce(x)
        return x.numerator if x.denominator == 1 else x

    def pick_between(self, lo, hi):
        n = self.n
        k = (lo * n).numerator // (lo * n).denominator + 1  # least k with k/n > lo
        t = self._point(k)
        if t < hi:
            return t
        raise NoElementError(f"no point of (1/{n})Z inside ({lo}, {hi})")

    def grid(self, max_den, coeff_bound):
        return [self._point(k) for k in range(self.n + 1)]

    def sample(self, rng, bound):
        return self._point(rng.randint(-bound, bound))

    def sample_between(self, lo, hi, rng):
        k_lo = int(Fraction(lo) * self.n)
        k_hi = int(Fraction(hi) * self.n)
        return self._point(rng.randint(k_lo, k_hi))


@dataclass(frozen=True)
class _Rationals(ScalarSubgroup):
    """Q: the smallest-denominator witness, a grid of fractions up to max_den."""

    def __str__(self):
        return "Q"

    def pick_between(self, lo, hi):
        return simplest_between(lo, hi)

    def grid(self, max_den, coeff_bound):
        return sorted({Fraction(p, q) for q in range(1, max_den + 1) for p in range(q + 1)})

    def sample(self, rng, bound):
        return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))

    def sample_between(self, lo, hi, rng):
        lo, hi = Fraction(lo), Fraction(hi)
        # lo + (hi - lo) * k/16 over the common denominator 16 * lo.d * hi.d
        p, q, r, s = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        k = rng.randint(0, 16)
        return Fraction(16 * p * s + (r * q - p * s) * k, 16 * q * s)


@dataclass(frozen=True)
class _Quadratic(ScalarSubgroup):
    """Z + Z*sqrt(d), with QuadraticNumber values; 0 and 1 are built once."""

    d: int
    _zero: QuadraticNumber = field(init=False, repr=False, compare=False)
    _one: QuadraticNumber = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_zero", QuadraticNumber(0, 0, self.d))
        object.__setattr__(self, "_one", QuadraticNumber(1, 0, self.d))

    def __str__(self):
        return f"Q[sqrt {self.d}]"

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def coerce(self, x):
        if isinstance(x, QuadraticNumber):
            if x.d != self.d:
                raise DomainMismatchError(f"sqrt({x.d}) value in Q[sqrt {self.d}]")
            return x
        return QuadraticNumber(Fraction(x), Fraction(0), self.d)

    def contains(self, x) -> bool:
        if isinstance(x, QuadraticNumber) and x.b == 0:
            x = x.a
        if not isinstance(x, QuadraticNumber):
            return isinstance(x, (int, Fraction)) and Fraction(x).denominator == 1
        if x.d != self.d:
            return False
        return x.a.denominator == 1 and x.b.denominator == 1

    def admits(self, x) -> bool:
        # Rational coefficients are still taken: whether Q[sqrt d] means
        # Z + Z*sqrt(d) or Q + Q*sqrt(d) for elements is not decided yet.
        return True

    def pick_between(self, lo, hi):
        """m + k*(sqrt(d) - floor(sqrt(d))) with the smallest k >= 0, then smallest |m|."""
        s = math.isqrt(self.d)
        beta = QuadraticNumber(Fraction(-s), Fraction(1), self.d)
        k = 0
        while True:
            kb = beta * k
            m = _smallest_abs_int(*_int_range_between(lo - kb, hi - kb))
            if m is not None:
                return QuadraticNumber(Fraction(m - k * s), Fraction(k), self.d)
            k += 1

    def grid(self, max_den, coeff_bound):
        zero, one = self.zero(), self.one()
        pts = []
        for k in range(-coeff_bound, coeff_bound + 1):
            kb = QuadraticNumber(Fraction(0), Fraction(k), self.d)
            m_lo = (zero - kb).floor()
            m_hi = (one - kb).floor() + 1
            for m in range(m_lo, m_hi + 1):
                x = QuadraticNumber(Fraction(m), Fraction(k), self.d)
                if (x - zero).sign() >= 0 and (x - one).sign() <= 0:
                    pts.append(x)
        pts.sort(key=functools.cmp_to_key(lambda u, v: (u - v).sign()))
        out = []
        for p in pts:
            if not out or (p - out[-1]).sign() != 0:
                out.append(p)
        return out

    def sample(self, rng, bound):
        return QuadraticNumber(
            Fraction(rng.randint(-bound, bound)), Fraction(rng.randint(-bound, bound)), self.d
        )

    def sample_between(self, lo, hi, rng):
        """A random sqrt(d)-coefficient, then an integer part inside; after 40 misses, the pick."""
        lo, hi = self.coerce(lo), self.coerce(hi)
        for _ in range(40):
            k = rng.randint(-8, 8)
            kb = QuadraticNumber(Fraction(0), Fraction(k), self.d)
            lo_m = (lo - kb).floor() + 1
            hi_m = -((-(hi - kb)).floor())  # ceil
            if lo_m <= hi_m - 1:
                m = rng.randint(lo_m, hi_m - 1)
                return QuadraticNumber(Fraction(m), Fraction(k), self.d)
        return pick_strictly_between(self, lo, hi)


_BY_SIGN = (Ordering.EQ, Ordering.GT, Ordering.LT)  # indexed by a sign -1, 0, 1


def compare(x, y) -> Ordering:
    """Exact order of two values of the same scalar domain.

    The domain is ``int``, ``Fraction`` and ``QuadraticNumber``: ints and
    Fractions are ordered by their numerators and denominators, and a
    quadratic operand decides by the sign of the difference of coefficients.
    Floats and strings are not scalar values.
    """
    if type(x) is int and type(y) is int:  # the values of Z
        return _BY_SIGN[(x > y) - (x < y)]
    if isinstance(x, QuadraticNumber):
        return _BY_SIGN[x._cmp(y)]
    if isinstance(y, QuadraticNumber):
        return _BY_SIGN[-y._cmp(x)]
    # denominators are positive, so cross-multiplying keeps the order
    u, v = x.numerator * y.denominator, y.numerator * x.denominator
    return _BY_SIGN[(u > v) - (u < v)]


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The smallest-denominator rational in the open interval (lo, hi).

    Among the integers (denominator 1) the one closest to zero is chosen;
    for every denominator >= 2 the minimal-denominator fraction is unique.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise PreconditionError(f"empty open interval ({lo}, {hi})")
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -_simplest_nonneg(-hi, -lo)
    return _simplest_nonneg(lo, hi)


def _simplest_nonneg(lo: Fraction, hi: Fraction) -> Fraction:
    # 0 <= lo < hi; Stern-Brocot / continued-fraction descent
    fl = lo.numerator // lo.denominator
    if fl + 1 < hi:
        return Fraction(fl + 1)
    lo2, hi2 = lo - fl, hi - fl  # 0 <= lo2 < hi2 <= 1
    if lo2 == 0:
        k = hi2.denominator // hi2.numerator + 1  # least integer > 1/hi2
        return fl + Fraction(1, k)
    return fl + 1 / _simplest_nonneg(1 / hi2, 1 / lo2)


def _int_range_between(lo, hi):
    """Inclusive range of integers m with lo < m < hi, exact endpoints."""
    if isinstance(lo, QuadraticNumber):
        m_lo = lo.floor() + 1
    else:
        m_lo = Fraction(lo).numerator // Fraction(lo).denominator + 1
    if isinstance(hi, QuadraticNumber):
        m_hi = -((-hi).floor()) - 1  # ceil(hi) - 1
    else:
        h = Fraction(hi)
        m_hi = -((-h).numerator // h.denominator) - 1
    return m_lo, m_hi


def _smallest_abs_int(m_lo: int, m_hi: int):
    """Integer of least absolute value in [m_lo, m_hi], or None if empty."""
    if m_lo > m_hi:
        return None
    if m_lo <= 0 <= m_hi:
        return 0
    return m_lo if m_lo > 0 else m_hi


def pick_strictly_between(H: ScalarSubgroup, lo, hi):
    """A deterministic element t of H with lo < t < hi.

    Q uses the smallest-denominator rule; cyclic groups take the leftmost
    grid point; quadratic groups take m + k*(sqrt(d) - floor(sqrt(d))) with
    smallest k >= 0 (so integers first) and then smallest |m|.
    """
    lo, hi = H.coerce(lo), H.coerce(hi)
    if compare(lo, hi) is not Ordering.LT:
        raise PreconditionError(f"empty open interval ({lo}, {hi})")
    return H.pick_between(lo, hi)


def grid_points(H: ScalarSubgroup, max_den: int = 6, coeff_bound: int = 4):
    """A sorted finite witness grid of [0,1] in H.

    Cyclic groups yield the full grid k/n; Q yields all fractions with
    denominator <= max_den; quadratic groups yield all m + k*sqrt(d) in [0,1]
    with |k| <= coeff_bound.
    """
    return H.grid(max_den, coeff_bound)


def format_scalar(x) -> str:
    if isinstance(x, QuadraticNumber):
        return str(x)
    return str(Fraction(x))
