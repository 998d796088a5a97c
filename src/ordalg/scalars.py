"""Exact scalar subgroups of the real line.

Three kinds of subgroups containing 1 are supported: the cyclic groups
(1/n)Z, the full rationals Q, and the quadratic groups Z + Z*sqrt(d) for a
square-free d >= 2.  Values of Z = (1/1)Z are plain ``int`` and stay so
under int arithmetic; the other rational values are plain
``fractions.Fraction``.  Quadratic values are :class:`QuadraticNumber`, whose
coefficients take the same canonical form: an ``int`` when integral and a
``Fraction`` otherwise.
Every order decision is one call of the integer kernel ``_order_sign``,
which ``compare`` wraps; no floating point is used anywhere.
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


def _floor(an: int, ad: int, bn: int, bd: int, d: int) -> int:
    """Exact floor of an/ad + (bn/bd)*sqrt(d) for ad, bd > 0 and a non-square d.

    For t = isqrt(bn^2*d), |bn|*sqrt(d) lies strictly between t and t + 1, so
    the value lies in an open interval (L, L + 1/bd) and its floor is
    floor(L) or floor(L) + 1; one exact sign test against floor(L) + 1
    decides.  Integers only, and the fractions need not be in lowest terms.
    """
    if bn == 0:
        return an // ad
    t = math.isqrt(bn * bn * d)
    # L = a + t/bd for b > 0 and a - (t + 1)/bd for b < 0
    c = (an * bd + (t if bn > 0 else -(t + 1)) * ad) // (ad * bd) + 1
    return c if _sign(an - c * ad, ad, bn, bd, d) >= 0 else c - 1


def _coefficient(v) -> int | Fraction:
    """A rational coefficient in canonical form: an ``int`` when integral."""
    if type(v) is int:
        return v
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


@dataclass(frozen=True)
class QuadraticNumber:
    """Exact value a + b*sqrt(d) with rational a, b and a fixed non-square d.

    Each coefficient is an ``int`` when it is integral and a ``Fraction``
    otherwise, so the values of Z + Z*sqrt(d) compute on ints.  An int and
    an equal Fraction compare and hash alike, so the form shows only in
    ``repr`` and in the coefficient types.
    """

    a: int | Fraction
    b: int | Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", _coefficient(self.a))
        object.__setattr__(self, "b", _coefficient(self.b))
        _check_d(self.d)

    def _check(self, other: "QuadraticNumber") -> "QuadraticNumber":
        if isinstance(other, (int, Fraction)):
            other = QuadraticNumber(other, 0, self.d)
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
        return _quadratic(self.a + other.a, self.b + other.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return _quadratic(self.a - other.a, self.b - other.b, self.d)

    def __neg__(self):
        return _quadratic(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _quadratic(self.a * other, self.b * other, self.d)
        other = self._check(other)
        return _quadratic(
            self.a * other.a + self.b * other.b * self.d,
            self.a * other.b + self.b * other.a,
            self.d,
        )

    __rmul__ = __mul__

    def sign(self) -> int:
        """Sign of a + b*sqrt(d), decided by exact case analysis on a and b."""
        a, b = self.a, self.b
        return _sign(a.numerator, a.denominator, b.numerator, b.denominator, self.d)

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
        """Exact integer floor, by the integer kernel ``_floor``."""
        a, b = self.a, self.b
        return _floor(a.numerator, a.denominator, b.numerator, b.denominator, self.d)


def _quadratic(a: int | Fraction, b: int | Fraction, d: int) -> QuadraticNumber:
    """a + b*sqrt(d) for int or Fraction coefficients and a checked d.

    The arithmetic of checked operands builds its results here: an integral
    Fraction becomes its numerator, and d is not checked again, so results
    equal, hash and print like the validating constructor's.
    """
    if type(a) is Fraction and a.denominator == 1:
        a = a.numerator
    if type(b) is Fraction and b.denominator == 1:
        b = b.numerator
    x = object.__new__(QuadraticNumber)
    x.__dict__.update(a=a, b=b, d=d)
    return x


_ZERO, _ONE = Fraction(0), Fraction(1)


class ScalarSubgroup:
    """A computable subgroup of the reals containing 1.

    Each kind is a private subclass -- (1/n)Z, Q and Z + Z*sqrt(d) -- built
    by the three constructors below.  Besides the value rules (the defaults
    here are those of the kinds with Fraction values) each one has
    ``pick_between(lo, hi)``, the deterministic witness for coerced lo < hi;
    ``grid(max_den, coeff_bound)``, a witness grid of [0, 1];
    ``sample(rng, bound)``, a value with integer data in [-bound, bound];
    and two draw plans.  A plan is built once from its bounds and then
    called as ``draw(rng)``, which does only the bounded integer draws
    (``rng.randrange``) and a lookup or one value build.
    ``_between_draw(lo, hi)`` draws a member of [lo, hi] for lo < hi, and
    ``sample_between(lo, hi, rng)`` builds it to draw once.
    ``_head_draw(hi)`` for 0 < hi draws as ``_between_draw(zero, hi)``
    does and returns ``(s, at_zero, at_hi)``: whether s is 0 and whether
    it is hi are read off the draw.
    """

    is_dense = True
    _divisible = False  # every element has an n-th part for every n: Q alone

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

    def sample_between(self, lo, hi, rng):
        return self._between_draw(lo, hi)(rng)


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
        return self._point(rng.randrange(2 * bound + 1) - bound)

    def _floor_index(self, x) -> int:
        """floor(x*n): the index k of the last grid point k/n <= x."""
        return x.numerator * self.n // x.denominator

    def _between_draw(self, lo, hi):
        k_lo, k_hi = -self._floor_index(-lo), self._floor_index(hi)
        if k_lo > k_hi:
            raise NoElementError(f"no point of (1/{self.n})Z inside [{lo}, {hi}]")
        point, width = self._point, k_hi - k_lo + 1
        return lambda rng: point(k_lo + rng.randrange(width))

    def _head_draw(self, hi):
        # hi > 0 lies on the grid at k_hi; the grid is never listed, so a
        # plan is O(1) however large k_hi is
        point, k_hi = self._point, self._floor_index(hi)
        width = k_hi + 1

        def draw(rng):
            k = rng.randrange(width)
            return point(k), k == 0, k == k_hi

        return draw


@dataclass(frozen=True)
class _Rationals(ScalarSubgroup):
    """Q: the smallest-denominator witness, a grid of fractions up to max_den."""

    _divisible = True

    def __str__(self):
        return "Q"

    def pick_between(self, lo, hi):
        return simplest_between(lo, hi)

    def grid(self, max_den, coeff_bound):
        return sorted({Fraction(p, q) for q in range(1, max_den + 1) for p in range(q + 1)})

    def sample(self, rng, bound):
        return Fraction(rng.randrange(2 * bound + 1) - bound, 1 + rng.randrange(bound))

    def _between_draw(self, lo, hi):
        # lo + (hi - lo) * k/16 over the common denominator 16 * lo.d * hi.d
        p, q, r, s = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        base, step, den = 16 * p * s, r * q - p * s, 16 * q * s
        return lambda rng: Fraction(base + step * rng.randrange(17), den)

    def _head_draw(self, hi):
        r, s = hi.numerator, hi.denominator
        heads = tuple((Fraction(r * k, 16 * s), k == 0, k == 16) for k in range(17))
        return lambda rng: heads[rng.randrange(17)]


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
        return QuadraticNumber(x, 0, self.d)

    def contains(self, x) -> bool:
        if isinstance(x, QuadraticNumber) and x.b == 0:
            x = x.a
        if not isinstance(x, QuadraticNumber):
            return isinstance(x, (int, Fraction)) and Fraction(x).denominator == 1
        if x.d != self.d:
            return False
        return x.a.denominator == 1 and x.b.denominator == 1

    def admits(self, x) -> bool:
        # a coefficient is an int exactly when it is integral
        return type(x.a) is int and type(x.b) is int

    def pick_between(self, lo, hi):
        """m + k*(sqrt(d) - floor(sqrt(d))) with the smallest k >= 0, then smallest |m|."""
        s = math.isqrt(self.d)
        beta = _quadratic(-s, 1, self.d)
        k = 0
        while True:
            kb = beta * k
            m = _smallest_abs_int(*_int_range_between(lo - kb, hi - kb))
            if m is not None:
                return _quadratic(m - k * s, k, self.d)
            k += 1

    def grid(self, max_den, coeff_bound):
        zero, one = self.zero(), self.one()
        pts = []
        for k in range(-coeff_bound, coeff_bound + 1):
            kb = _quadratic(0, k, self.d)
            m_lo = (zero - kb).floor()
            m_hi = (one - kb).floor() + 1
            for m in range(m_lo, m_hi + 1):
                x = _quadratic(m, k, self.d)
                if zero <= x <= one:
                    pts.append(x)
        # distinct (m, k) give distinct m + k*sqrt(d), so nothing repeats
        return sorted(pts)

    def sample(self, rng, bound):
        width = 2 * bound + 1
        return _quadratic(rng.randrange(width) - bound, rng.randrange(width) - bound, self.d)

    def _between_draw(self, lo, hi):
        """A random sqrt(d)-coefficient, then an integer part inside; after 40 misses, the pick.

        The plan holds the integer window of each coefficient k in -8..8.
        """
        lo, hi = self.coerce(lo), self.coerce(hi)
        d = self.d
        p, s, r, q = lo.a.numerator, lo.a.denominator, lo.b.numerator, lo.b.denominator
        hp, hs, hr, hq = hi.a.numerator, hi.a.denominator, hi.b.numerator, hi.b.denominator
        windows = []
        for k in range(-8, 9):
            # lo <= m + k*sqrt(d) <= hi for ceil(lo - k*sqrt(d)) <= m <= floor(hi - k*sqrt(d)),
            # where ceil(lo - k*sqrt(d)) = -floor(k*sqrt(d) - lo)
            m_lo = -_floor(-p, s, k * q - r, q, d)
            m_hi = _floor(hp, hs, hr - k * hq, hq, d)
            windows.append((m_lo, m_hi - m_lo + 1, k) if m_lo <= m_hi else None)
        windows = tuple(windows)

        def draw(rng):
            for _ in range(40):
                window = windows[rng.randrange(17)]
                if window is not None:
                    m_lo, width, k = window
                    return _quadratic(m_lo + rng.randrange(width), k, d)
            return pick_strictly_between(self, lo, hi)

        return draw

    def _head_draw(self, hi):
        # the ends are read off the drawn (m, k): zero is (0, 0), hi is (hi.a, hi.b)
        between, hi = self._between_draw(self._zero, hi), self.coerce(hi)
        zero, top = (0, 0), (hi.a, hi.b)

        def draw(rng):
            s = between(rng)
            return s, (s.a, s.b) == zero, (s.a, s.b) == top

        return draw


def _order_sign(x, y) -> int:
    """Sign of x - y (-1, 0 or 1): the one scalar order kernel of the package.

    Exact ints and Fractions cross-multiply their integer ratios, a quadratic
    operand goes to ``_cmp``, and the rest takes the numerator/denominator
    route: bools order as ints, and floats, strings and None raise AttributeError.
    """
    tx, ty = type(x), type(y)
    if tx is int and ty is int:  # the values of Z
        return (x > y) - (x < y)
    if (tx is int or tx is Fraction) and (ty is int or ty is Fraction):
        (p, q), (r, s) = x.as_integer_ratio(), y.as_integer_ratio()
        u, v = p * s, r * q  # denominators are positive, so the order is kept
        return (u > v) - (u < v)
    if isinstance(x, QuadraticNumber):
        return x._cmp(y)
    if isinstance(y, QuadraticNumber):
        return -y._cmp(x)
    u, v = x.numerator * y.denominator, y.numerator * x.denominator
    return (u > v) - (u < v)


_BY_SIGN = (Ordering.EQ, Ordering.GT, Ordering.LT)  # indexed by a sign -1, 0, 1


def compare(x, y) -> Ordering:
    """Exact order of two int, Fraction or QuadraticNumber values: ``_order_sign``'s."""
    return _BY_SIGN[_order_sign(x, y)]


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
    if _order_sign(lo, hi) >= 0:
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
