"""Descriptor-driven partially ordered groups.

A :class:`GroupDescriptor` is a composition tree built from three primitives
and two combinators:

* ``Scalar(H)``        -- a linearly ordered scalar subgroup of the reals,
* ``IntVector(k)``     -- Z^k with the componentwise order,
* ``AffineQ``          -- pairs (a, b), a a positive rational, b rational,
                          composed by (a,b)+(c,e) = (a*c, a*e+b); linearly
                          ordered lexicographically by its pairs, so that
                          its strict cone is {a > 1} or {a = 1, b > 0},
* ``Lex(top, bottom)`` -- the lexicographic product (top must be linear),
* ``Product(l, r)``    -- the direct product with componentwise order.

Elements are plain Python values mirroring the tree: ints for the scalars
of Z, Fractions for the other rational scalars and quadratic numbers for
``Q[sqrt d]`` (with int coefficients when integral, Fractions otherwise),
int tuples for ``IntVector``, pairs of Fractions for ``AffineQ`` and
2-tuples for the combinators.  All groups are written additively,
including the non-commutative ``AffineQ``.

Each descriptor class is the one place that knows its element format: shape
checks, arithmetic, order, commutation, sampling and formatting are its
methods.  ``Lex`` and ``Product`` share the componentwise rules
through a private pair base, which reads the two factors from ``parts``;
``Lex`` overrides only the rules that depend on the order.  The
differences ``sub_right`` (x - y) and ``sub_left`` (-y + x) and the
multiple ``scale`` (n x) are methods as well, each one step: a subtraction
or a multiplication on the scalars and Z^k, part by part on pairs, closed
forms for the differences on ``Aff``, whose ``scale`` doubles.  Callers
call the methods.  A module function stays only where it adds a rule to
them (``divide``, ``join``, ``lower_bound``, ``com_check``) or where
``perfbench`` counts a leaf op by wrapping it (``add``, ``neg``, ``leq``,
``sub_left``, ``check_element``, ``positive_cone_member``).  The
refinement solver takes meets and needs no directedness witness;
``lower_bound`` (with the ``lower_bound`` and ``a_positive_element``
methods behind it) stays for the paper's lex case tables in the tests, for
demo 02, and because ``perfbench`` counts it as a leaf op.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, fields
from fractions import Fraction

from .errors import ParseError, PreconditionError, ShapeError, UnsupportedError
from .scalars import (
    ScalarSubgroup,
    _order_sign,
    format_scalar,
    pick_strictly_between,
)


class GroupDescriptor:
    """Base class; the defaults are the rules most primitives share."""

    # -- structural predicates ----------------------------------------------
    # Every primitive is a torsion-free lattice, and so is every product and
    # every lex product of them (a linear head over a lattice bottom), so
    # only commutativity and linearity vary between descriptors.

    def is_abelian(self) -> bool:
        return True

    def is_linearly_ordered(self) -> bool:
        return True

    def is_lattice(self) -> bool:
        return True

    def is_directed(self) -> bool:
        return True

    def is_torsion_free(self) -> bool:
        return True

    # -- elements -------------------------------------------------------------

    def from_parsed(self, value):
        """Fit a parsed value tree (see ``parsing.parse_value``) to this group."""
        return self.check_element(value)

    def center_member(self, x) -> bool:
        """Membership in the center: x commutes with the cone, which generates the group."""
        return self._commutant(x) is None

    # -- arithmetic -------------------------------------------------------------
    # built from add and neg; descriptors with a one-step rule override them

    def sub_right(self, x, y):
        """x - y, i.e. x + (-y)."""
        return self.add(x, self.neg(y))

    def sub_left(self, y, x):
        """-y + x."""
        return self.add(self.neg(y), x)

    def scale(self, x, n: int):
        """n-fold sum of x (n may be negative)."""
        return _doubling(self, x, n)

    # -- order ----------------------------------------------------------------

    def _sign(self, x, y) -> int:
        """Sign of x - y in a total order (-1, 0 or 1); only valid on linearly ordered descriptors."""
        if x == y:
            return 0
        return -1 if self.leq(x, y) else 1

    def _positive(self, x) -> bool:
        """Whether 0 <= x, for a checked element x."""
        return self.leq(self.zero(), x)

    def meet(self, x, y):
        """Lattice meet (this default is the one of a total order)."""
        return x if self.leq(x, y) else y

    def a_positive_element(self):
        """A fixed strictly positive element of a linearly ordered descriptor."""
        raise UnsupportedError(f"{self} is not linearly ordered")

    def lower_bound(self, xs):
        """Deterministic lower bound of checked elements; lattices take the meet."""
        out = xs[0]
        for x in xs[1:]:
            out = self.meet(out, x)
        return out

    # -- sampling -------------------------------------------------------------
    # ``sample_element`` and ``sample_positive`` draw once.  Repeated draws
    # go through plans: ``_interval_draw(hi, bound)`` and a lex head's
    # ``_head_draw(hi)`` fix everything that depends only on their bounds
    # (head tables, integer windows, widths), and the plan's ``draw(rng)``
    # does only the bounded integer draws, as ``rng.randrange`` calls, and
    # a lookup or one value build.  ``IntervalPea`` keeps one interval plan
    # per bound; ``sample_interval`` builds one per call.  A lex plan draws
    # its tails with the bottom's ``sample_element`` and ``sample_positive``.

    def sample_positive(self, rng, bound: int = 10):
        """A random element of the positive cone (a total order flips negatives)."""
        x = self.sample_element(rng, bound)
        return x if self._positive(x) else self.neg(x)

    def sample_interval(self, hi, rng, bound: int = 10):
        """A random element x with 0 <= x <= hi."""
        zero = self.zero()
        if hi == zero:
            return zero
        if not self._positive(hi):
            raise PreconditionError("sample_interval needs 0 <= hi")
        return self._interval_draw(hi, bound)(rng)

    def _head_draw(self, hi):
        """The plan of a lex head s in [0, hi] for 0 < hi, drawn as ``(s, at_zero, at_hi)``.

        Here s is one of the two endpoints.
        """
        ends = ((self.zero(), True, False), (hi, False, True))
        return lambda rng: ends[rng.randrange(2)]

    # -- commutation ----------------------------------------------------------
    # Abelian descriptors keep these defaults; AffineQ and the pairs override.

    def _commutant(self, x):
        """A y >= 0 with x + y != y + x, or None when x is central."""
        return None

    def _central_below(self, hi=None):
        """None when every x in [0, hi] is central (hi = None: the whole cone).

        Otherwise a pair (x, y) with 0 <= x <= hi, y >= 0 and x + y != y + x.
        """
        return None

    def _commute(self, a, b):
        """``com_check`` on checked positive endpoints a and b, zero ones included."""
        return _HOLDS

    # -- exhaustive enumeration (the refinement oracle) -----------------------

    def iter_bounded(self, lowers, uppers, box: int):
        """Elements with data in [-box, box], above all lowers and below all uppers."""
        raise UnsupportedError(f"oracle enumeration unsupported on {self}")

    def _iter_heads(self, lowers, uppers, box: int):
        """The lex heads the oracle enumerates, in ascending order."""
        return sorted(
            self.iter_bounded(lowers, uppers, box),
            key=functools.cmp_to_key(self._sign),
        )


def _iter_signed(limit_lo: int, limit_hi: int):
    """0, 1, -1, 2, -2, ... clipped to [limit_lo, limit_hi]."""
    if limit_lo > limit_hi:
        return
    start = 0 if limit_lo <= 0 <= limit_hi else (limit_lo if limit_lo > 0 else limit_hi)
    yield start
    k = 1
    while True:
        emitted = False
        for cand in (start + k, start - k):
            if limit_lo <= cand <= limit_hi:
                yield cand
                emitted = True
        if not emitted and (start + k > limit_hi and start - k < limit_lo):
            return
        k += 1


@dataclass(frozen=True)
class Scalar(GroupDescriptor):
    H: ScalarSubgroup

    def __str__(self):
        return str(self.H)

    def check_element(self, x):
        H = self.H
        try:
            x = H.coerce(x)
        except (TypeError, ValueError):
            raise ShapeError(f"{x!r} is not a scalar of {self}")
        if not H.admits(x):
            raise ShapeError(f"{x} is not an element of {self}")
        return x

    def zero(self):
        return self.H.zero()

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def sub_right(self, x, y):
        return x - y

    def sub_left(self, y, x):
        return x - y

    def scale(self, x, n):
        return x * n

    def divide(self, x, n):
        H = self.H
        y = x * Fraction(1, n)
        return H.coerce(y) if H.contains(y) else None

    def _divisible(self, x) -> bool:
        """Whether x has an n-th part for every n >= 1: every x of Q, else only 0."""
        return self.H._divisible or x == self.H.zero()

    _sign = staticmethod(_order_sign)  # a lex head is compared in one call

    def leq(self, x, y) -> bool:
        return _order_sign(x, y) <= 0

    def _positive(self, x) -> bool:
        return _order_sign(x, self.H.zero()) >= 0

    def a_positive_element(self):
        H = self.H
        if H.is_dense:
            return pick_strictly_between(H, H.zero(), H.one())
        return H.one()

    def is_strong_unit(self, u) -> bool:
        """Whether u is positive and bounds every element up to a multiple."""
        return _order_sign(u, self.H.zero()) > 0

    def format_element(self, x) -> str:
        return format_scalar(x)

    def sample_element(self, rng, bound: int = 10):
        """A random element of the group, integer data bounded by ``bound``."""
        return self.H.sample(rng, bound)

    def _interval_draw(self, hi, bound):
        # callers pass hi > 0: a zero bound returns before it reaches here
        return self.H._between_draw(self.H.zero(), hi)

    def _head_draw(self, hi):
        # a scalar lex head is drawn like any scalar of [0, hi]
        return self.H._head_draw(hi)

    def _points(self, ks):
        """The grid values k/n of a discrete H for the indices ks: ints on Z."""
        n = self.H.n
        return ks if n == 1 else (Fraction(k, n) for k in ks)

    def _grid_range(self, lowers, uppers, box, what):
        if self.H.is_dense:
            raise UnsupportedError(f"oracle enumeration needs a discrete {what}")
        n = self.H.n
        lo = max([-box] + [math.ceil(l * n) for l in lowers])
        return lo, min([box] + [math.floor(u * n) for u in uppers])

    def iter_bounded(self, lowers, uppers, box):
        lo, hi = self._grid_range(lowers, uppers, box, "scalar")
        return self._points(_iter_signed(lo, hi))

    def _iter_heads(self, lowers, uppers, box):
        lo, hi = self._grid_range(lowers, uppers, box, "scalar head")
        return self._points(range(lo, hi + 1))


@dataclass(frozen=True)
class IntVector(GroupDescriptor):
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise PreconditionError("IntVector needs k >= 1")

    def __str__(self):
        return f"Z^{self.k}"

    def is_linearly_ordered(self) -> bool:
        return self.k == 1

    def check_element(self, x):
        if isinstance(x, int):
            x = (x,)
        if not (isinstance(x, tuple) and len(x) == self.k and all(isinstance(v, int) for v in x)):
            raise ShapeError(f"{x!r} is not an integer {self.k}-vector")
        return x

    def from_parsed(self, value):
        if isinstance(value, Fraction):
            value = (value,)
        if not isinstance(value, tuple):
            raise ParseError(f"expected an integer vector, got {value!r}")
        out = []
        for v in value:
            if not isinstance(v, Fraction) or v.denominator != 1:
                raise ParseError(f"expected integers in a vector, got {v!r}")
            out.append(int(v))
        return self.check_element(tuple(out))

    def zero(self):
        return (0,) * self.k

    def add(self, x, y):
        return tuple(map(operator.add, x, y))

    def neg(self, x):
        return tuple(map(operator.neg, x))

    def sub_right(self, x, y):
        return tuple(map(operator.sub, x, y))

    def sub_left(self, y, x):
        return tuple(map(operator.sub, x, y))

    def scale(self, x, n):
        return tuple(v * n for v in x)

    def divide(self, x, n):
        if all(v % n == 0 for v in x):
            return tuple(v // n for v in x)
        return None

    def _divisible(self, x) -> bool:
        return not any(x)

    def leq(self, x, y) -> bool:
        return all(map(operator.le, x, y))

    def _positive(self, x) -> bool:
        return min(x) >= 0

    def meet(self, x, y):
        return tuple(min(u, v) for u, v in zip(x, y))

    def a_positive_element(self):
        if self.k == 1:
            return (1,)
        return super().a_positive_element()

    def is_strong_unit(self, u) -> bool:
        return all(v >= 1 for v in u)

    def format_element(self, x) -> str:
        return "(" + ", ".join(str(v) for v in x) + ")"

    def sample_element(self, rng, bound: int = 10):
        return tuple([rng.randrange(2 * bound + 1) - bound for _ in range(self.k)])

    def sample_positive(self, rng, bound: int = 10):
        return tuple([rng.randrange(bound + 1) for _ in range(self.k)])

    def _interval_draw(self, hi, bound):
        widths = tuple(v + 1 for v in hi)
        return lambda rng: tuple(map(rng.randrange, widths))

    def iter_bounded(self, lowers, uppers, box):
        def rec(i):
            if i == self.k:
                yield ()
                return
            lo = max([-box] + [l[i] for l in lowers])
            for v in _iter_signed(lo, min([box] + [u[i] for u in uppers])):
                for rest in rec(i + 1):
                    yield (v,) + rest

        yield from rec(0)


@dataclass(frozen=True)
class AffineQ(GroupDescriptor):
    def __str__(self):
        return "Aff"

    def is_abelian(self) -> bool:
        return False

    def check_element(self, x):
        if not (isinstance(x, tuple) and len(x) == 2):
            raise ShapeError(f"{x!r} is not an affine pair")
        if not (type(x[0]) is type(x[1]) is Fraction):
            x = (_affine_component(x[0]), _affine_component(x[1]))
        if x[0] <= 0:
            raise ShapeError(f"affine pair needs a positive first component, got {x[0]}")
        return x

    def zero(self):
        return _AFF_ZERO

    def add(self, x, y):
        (a, b), (c, e) = x, y
        return (a * c, a * e + b)

    def neg(self, x):
        a, b = x
        return (1 / a, -b / a)

    # the two differences in closed form; scale keeps the doubling

    def sub_right(self, x, y):
        (c, e), (a, b) = x, y
        return (c / a, e - c * b / a)

    def sub_left(self, y, x):
        (a, b), (c, e) = y, x
        return (c / a, (e - b) / a)

    def divide(self, x, n):
        a, b = x
        c = _rational_nth_root(a, n)
        if c is None:
            return None
        s = sum(c**i for i in range(n))  # 1 + c + ... + c^(n-1)
        return (c, b / s)

    def _divisible(self, x) -> bool:
        # 1 is the only positive rational with a rational n-th root for every
        # n, and (1, b) = n * (1, b/n)
        return x[0] == 1

    def leq(self, x, y) -> bool:
        # For x = (a, b) and y = (c, e), y - x = (c/a, e - c*b/a) lies in the
        # cone {c/a > 1} or {c/a = 1, e - c*b/a >= 0}.  As a > 0, c/a > 1 iff
        # c > a, and c/a = 1 iff c = a, where the tail is e - b: so x <= y is
        # the lexicographic order of the pairs.
        return x <= y

    def _positive(self, x) -> bool:
        return x >= _AFF_ZERO

    def a_positive_element(self):
        return (Fraction(2), Fraction(0))

    # (a, b) + (c, e) = (c, e) + (a, b) exactly when b(1 - c) = e(1 - a), so
    # the center is {0}, the translations (1, b) commute with each other, and
    # (1, 1) and (2, 0) fail against every x off the translations and every
    # nonzero translation respectively

    def _commutant(self, x):
        a, b = x
        if a != 1:
            return (Fraction(1), Fraction(1))
        return None if b == 0 else (Fraction(2), Fraction(0))

    def _central_below(self, hi=None):
        hi = self.a_positive_element() if hi is None else hi
        y = self._commutant(hi)
        return None if y is None else (hi, y)

    def _commute(self, a, b):
        if a == _AFF_ZERO or b == _AFF_ZERO or a[0] == b[0] == 1:
            return _HOLDS
        if self.add(a, b) != self.add(b, a):
            return ComResult("fails", (a, b))
        # commuting endpoints off the translations have heads above 1, and
        # (1, 1) <= a fails against b
        return ComResult("fails", ((Fraction(1), Fraction(1)), b))

    def is_strong_unit(self, u) -> bool:
        return u[0] > 1

    def format_element(self, x) -> str:
        return f"({x[0]}, {x[1]})"

    def sample_element(self, rng, bound: int = 10):
        a = Fraction(1 + rng.randrange(bound), 1 + rng.randrange(bound))
        b = Fraction(rng.randrange(2 * bound + 1) - bound, 1 + rng.randrange(bound))
        return (a, b)

    def _interval_draw(self, hi, bound):
        a1, b1 = hi
        one = Fraction(1)
        if a1 == 1:  # [0, (1,b1)] = {(1, e): 0 <= e <= b1}
            return lambda rng: (one, b1 * Fraction(rng.randrange(17), 16))
        ends, step, width, wide = (_AFF_ZERO, hi), a1 - 1, bound + 1, 2 * bound + 1

        def draw(rng):
            choice = rng.randrange(4)
            if choice < 2:
                return ends[choice]
            if choice == 2:  # boundary heads
                if rng.random() < 0.5:
                    return (one, Fraction(rng.randrange(width)))
                return (a1, b1 - Fraction(rng.randrange(width)))
            # interior head 1 + (a1 - 1) * k/16 for k = 1..15: any tail is allowed
            c = one + step * Fraction(1 + rng.randrange(15), 16)
            return (c, Fraction(rng.randrange(wide) - bound, 1 + rng.randrange(4)))

        return draw


_AFF_ZERO = (Fraction(1), Fraction(0))


def _affine_component(v) -> Fraction:
    """An affine component as a Fraction; only ints and Fractions are rational here."""
    if type(v) is Fraction:
        return v
    if not isinstance(v, (int, Fraction)):
        raise ShapeError(f"affine pair needs rational components, got {v!r}")
    return Fraction(v)


def _rational_nth_root(q: Fraction, n: int):
    """Exact positive n-th root of a positive rational, or None."""
    q = Fraction(q)
    if q <= 0:
        return None
    p, d = _int_nth_root(q.numerator, n), _int_nth_root(q.denominator, n)
    if p is None or d is None:
        return None
    return Fraction(p, d)


def _int_nth_root(m: int, n: int):
    """The integer r with r**n == m (m >= 1), or None; exact at every size."""
    if n == 2:
        r = math.isqrt(m)
    else:
        # integer Newton iteration from above converges to floor(m ** (1/n))
        r = 1 << -(-m.bit_length() // n)
        while True:
            s = ((n - 1) * r + m // r ** (n - 1)) // n
            if s >= r:
                break
            r = s
    return r if r**n == m else None


class _Pair(GroupDescriptor):
    """Componentwise rules of a two-factor descriptor; ``parts`` holds the factors."""

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(getattr(self, f.name) for f in fields(self)))

    def __str__(self):
        a, b = self.parts
        return f"{self.syntax}({a}, {b})"

    def is_abelian(self) -> bool:
        a, b = self.parts
        return a.is_abelian() and b.is_abelian()

    def is_linearly_ordered(self) -> bool:
        return False

    def check_element(self, x):
        if not (isinstance(x, tuple) and len(x) == 2):
            raise ShapeError(f"{x!r} is not a {self.noun} pair")
        a, b = self.parts
        return (a.check_element(x[0]), b.check_element(x[1]))

    def from_parsed(self, value):
        if not (isinstance(value, tuple) and len(value) == 2):
            raise ParseError(f"expected a pair for {self}")
        a, b = self.parts
        return (a.from_parsed(value[0]), b.from_parsed(value[1]))

    def zero(self):
        a, b = self.parts
        return (a.zero(), b.zero())

    def add(self, x, y):
        a, b = self.parts
        return (a.add(x[0], y[0]), b.add(x[1], y[1]))

    def neg(self, x):
        a, b = self.parts
        return (a.neg(x[0]), b.neg(x[1]))

    def sub_right(self, x, y):
        a, b = self.parts
        return (a.sub_right(x[0], y[0]), b.sub_right(x[1], y[1]))

    def sub_left(self, y, x):
        a, b = self.parts
        return (a.sub_left(y[0], x[0]), b.sub_left(y[1], x[1]))

    def scale(self, x, n):
        a, b = self.parts
        return (a.scale(x[0], n), b.scale(x[1], n))

    def divide(self, x, n):
        a, b = self.parts
        left, right = a.divide(x[0], n), b.divide(x[1], n)
        return None if left is None or right is None else (left, right)

    def _divisible(self, x) -> bool:
        a, b = self.parts
        return a._divisible(x[0]) and b._divisible(x[1])

    def leq(self, x, y) -> bool:
        a, b = self.parts
        return a.leq(x[0], y[0]) and b.leq(x[1], y[1])

    def _positive(self, x) -> bool:
        a, b = self.parts
        return a._positive(x[0]) and b._positive(x[1])

    def meet(self, x, y):
        a, b = self.parts
        return (a.meet(x[0], y[0]), b.meet(x[1], y[1]))

    def _pad(self, i, xs):
        """Each x of part i as an element, with zero in the other part."""
        a, b = self.parts
        return tuple((x, b.zero()) if i == 0 else (a.zero(), x) for x in xs)

    def _commutant(self, x):
        # the elements commute exactly when both parts do, and a part's
        # witness padded with zero is positive in both orders
        for i, part in enumerate(self.parts):
            y = part._commutant(x[i])
            if y is not None:
                return self._pad(i, [y])[0]
        return None

    def is_strong_unit(self, u) -> bool:
        a, b = self.parts
        return a.is_strong_unit(u[0]) and b.is_strong_unit(u[1])

    def format_element(self, x) -> str:
        a, b = self.parts
        return f"({a.format_element(x[0])}, {b.format_element(x[1])})"

    def sample_element(self, rng, bound: int = 10):
        a, b = self.parts
        return (a.sample_element(rng, bound), b.sample_element(rng, bound))

    def sample_positive(self, rng, bound: int = 10):
        a, b = self.parts
        return (a.sample_positive(rng, bound), b.sample_positive(rng, bound))

    def _interval_draw(self, hi, bound):
        # each part of a positive hi is positive in the product order; a zero
        # part draws nothing, as a randrange(1) would still consume rng bits
        a, b = self.parts
        h0, h1 = hi
        za, zb = a.zero(), b.zero()
        left = (lambda rng: za) if h0 == za else a._interval_draw(h0, bound)
        right = (lambda rng: zb) if h1 == zb else b._interval_draw(h1, bound)
        return lambda rng: (left(rng), right(rng))

    def iter_bounded(self, lowers, uppers, box):
        a, b = self.parts
        for left in a.iter_bounded([l[0] for l in lowers], [u[0] for u in uppers], box):
            for right in b.iter_bounded([l[1] for l in lowers], [u[1] for u in uppers], box):
                yield (left, right)


@dataclass(frozen=True)
class Lex(_Pair):
    top: GroupDescriptor
    bottom: GroupDescriptor

    syntax = noun = "lex"

    def __post_init__(self):
        if not self.top.is_linearly_ordered():
            raise PreconditionError("lex head must be linearly ordered")
        super().__post_init__()

    def is_linearly_ordered(self) -> bool:
        return self.bottom.is_linearly_ordered()  # the head is linear already

    def leq(self, x, y) -> bool:
        top, bottom = self.parts
        c = top._sign(x[0], y[0])
        if c == 0:
            return bottom.leq(x[1], y[1])
        return c < 0

    def _positive(self, x) -> bool:
        top, bottom = self.parts
        c = top._sign(top.zero(), x[0])
        if c == 0:
            return bottom._positive(x[1])
        return c < 0

    def meet(self, x, y):
        top, bottom = self.parts
        c = top._sign(x[0], y[0])
        if c == 0:
            return (x[0], bottom.meet(x[1], y[1]))
        return x if c < 0 else y

    def a_positive_element(self):
        top, bottom = self.parts
        return (top.a_positive_element(), bottom.zero())

    def lower_bound(self, xs):
        """The bottom's bound under one shared head, else (min head - delta, 0).

        delta is a fixed positive element of the head: 1 on discrete scalars.
        """
        top, bottom = self.parts
        head_min = xs[0][0]
        for x in xs[1:]:
            if top._sign(x[0], head_min) < 0:
                head_min = x[0]
        if all(x[0] == head_min for x in xs):
            return (head_min, bottom.lower_bound([x[1] for x in xs]))
        delta = top.a_positive_element()
        return (top.sub_right(head_min, delta), bottom.zero())

    def is_strong_unit(self, u) -> bool:
        # multiples of a head strong unit eventually strictly dominate any head
        return self.top.is_strong_unit(u[0])

    def sample_positive(self, rng, bound: int = 10):
        top, bottom = self.parts
        head = top.sample_element(rng, bound)
        if not top._positive(head):
            head = top.neg(head)
        if head == top.zero():
            return (head, bottom.sample_positive(rng, bound))
        return (head, bottom.sample_element(rng, bound))

    def _interval_draw(self, hi, bound):
        top, bottom = self.parts
        h_hi, t_hi = hi
        if h_hi == top.zero():
            # the tail alone is drawn; t_hi > 0, as hi is positive and nonzero
            tail = bottom._interval_draw(t_hi, bound)
            return lambda rng: (h_hi, tail(rng))
        head = top._head_draw(h_hi)
        positive, element = bottom.sample_positive, bottom.sample_element
        sub_right = bottom.sub_right

        def draw(rng):
            # the head draw says which end it hit: head values are not compared
            s, at_zero, at_hi = head(rng)
            if at_hi:  # tail must be <= hi tail: hi_tail - positive
                return (s, sub_right(t_hi, positive(rng, bound)))
            return (s, positive(rng, bound) if at_zero else element(rng, bound))

        return draw

    def iter_bounded(self, lowers, uppers, box):
        top, bottom = self.parts
        for h in top._iter_heads([l[0] for l in lowers], [u[0] for u in uppers], box):
            # a bound constrains the tail only under its own head
            tail_lowers = [l[1] for l in lowers if l[0] == h]
            tail_uppers = [u[1] for u in uppers if u[0] == h]
            for t in bottom.iter_bounded(tail_lowers, tail_uppers, box):
                yield (h, t)

    # An interval [0, (h, t)] with h > 0 holds (0, y) for every y >= 0 of the
    # bottom, and that cone generates the bottom; with h = 0 it is {0} x [0, t].

    def _lift(self, x, hi):
        """A head x of [0, hi[0]] as an element of [0, hi]: hi itself at the top head."""
        return hi if hi is not None and x == hi[0] else (x, self.bottom.zero())

    def _central_below(self, hi=None):
        top, bottom = self.parts
        if hi is not None and hi[0] == top.zero():
            found = bottom._central_below(hi[1])
            return None if found is None else self._pad(1, found)
        found = top._central_below(None if hi is None else hi[0])
        if found is not None:
            x, y = found
            return (self._lift(x, hi), (y, bottom.zero()))
        found = bottom._central_below()
        return None if found is None else self._pad(1, found)

    def _commute(self, a, b):
        top, bottom = self.parts
        zt = top.zero()
        if a[0] == zt and b[0] == zt:
            # both intervals lie in {0} x bottom+, so the bottom decides
            res = bottom._commute(a[1], b[1])
            return res if res.holds else ComResult("fails", self._pad(1, res.witness))
        if a[0] == zt or b[0] == zt:
            # the zero-headed interval must be central in the bottom
            found = bottom._central_below((a if a[0] == zt else b)[1])
            if found is None:
                return _HOLDS
            x, y = self._pad(1, found)
            return ComResult("fails", (x, y) if a[0] == zt else (y, x))
        res = top._commute(a[0], b[0])
        if not res.holds:
            x, y = res.witness
            return ComResult("fails", (self._lift(x, a), self._lift(y, b)))
        found = bottom._central_below()
        return _HOLDS if found is None else ComResult("fails", self._pad(1, found))


@dataclass(frozen=True)
class Product(_Pair):
    left: GroupDescriptor
    right: GroupDescriptor

    syntax, noun = "prod", "product"

    # elements commute exactly when each part's components do, and the order
    # is componentwise: every rule is decided part by part

    def _central_below(self, hi=None):
        for i, part in enumerate(self.parts):
            found = part._central_below(None if hi is None else hi[i])
            if found is not None:
                return self._pad(i, found)
        return None

    def _commute(self, a, b):
        for i, part in enumerate(self.parts):
            res = part._commute(a[i], b[i])
            if not res.holds:
                return ComResult("fails", self._pad(i, res.witness))
        return _HOLDS


ZZ = Scalar(ScalarSubgroup.cyclic(1))
QQ = Scalar(ScalarSubgroup.rationals())


# ---------------------------------------------------------------------------
# element shape and arithmetic


def check_element(desc, x):
    """Validate that x is shaped per desc; returns the canonical value."""
    return desc.check_element(x)


def add(desc, x, y):
    return desc.add(x, y)


def neg(desc, x):
    return desc.neg(x)


def sub_left(desc, y, x):
    """-y + x."""
    return desc.sub_left(y, x)


def _doubling(desc, x, n: int):
    """n-fold sum of x (n may be negative), by binary doubling.

    O(log n) additions; powers of one x commute, so the value equals the
    left-to-right sum by associativity, in non-abelian groups too.
    """
    if n < 0:
        return desc.neg(_doubling(desc, x, -n))
    acc = desc.zero()
    while n:
        if n & 1:
            acc = desc.add(acc, x)
        n >>= 1
        if n:
            x = desc.add(x, x)
    return acc


def divide(desc, x, n: int):
    """The unique y with n*y = x, or None when x is not n-divisible."""
    if n < 1:
        raise PreconditionError("divisor must be >= 1")
    if n == 1:
        return x
    return desc.divide(x, n)


# ---------------------------------------------------------------------------
# order


def leq(desc, x, y) -> bool:
    return desc.leq(x, y)


def positive_cone_member(desc, x) -> bool:
    return desc._positive(x)


def join(desc, x, y):
    return desc.neg(desc.meet(desc.neg(x), desc.neg(y)))


def lower_bound(desc, xs):
    """A deterministic element below every member of xs (desc must be directed).

    Lattices return the meet.  For lex pairs whose heads differ the bound is
    (min head - delta, 0) with delta = 1 for discrete scalar heads and a fixed
    positive element otherwise.
    """
    if not xs:
        raise PreconditionError("lower_bound of an empty list")
    xs = [desc.check_element(x) for x in xs]
    if not desc.is_directed():
        raise UnsupportedError(f"{desc} is not directed")
    return desc.lower_bound(xs)


# ---------------------------------------------------------------------------
# commutation


@dataclass(frozen=True)
class ComResult:
    status: str  # "holds" or "fails"
    witness: tuple | None = None  # for "fails": x in [0, a], y in [0, b], x + y != y + x

    @property
    def holds(self):
        return self.status == "holds"


_HOLDS = ComResult("holds")


def com_check(desc, a, b) -> ComResult:
    """Do all x in [0,a] and y in [0,b] commute?  Decided exactly.

    Abelian descriptors and disjoint endpoints decide it at once: every
    descriptor is an l-group, so a ^ b = 0 (a zero endpoint included) makes
    every such x and y disjoint, and disjoint elements commute.  Otherwise
    each descriptor class applies its rule, and a failure carries a
    constructed witness pair.  ``Aff`` holds exactly when both heads are 1
    (translations commute).  A product is decided part by part, a failing
    part's witness padded with zeros.  A lex pair with zero heads is decided
    by its bottom.  Against a nonzero head, whose interval holds the whole
    cone of the bottom (and so generates it), a zero-headed interval must be
    central in the bottom.  Two nonzero heads need the heads' intervals to
    commute and the bottom to be Abelian.
    """
    a = desc.check_element(a)
    b = desc.check_element(b)
    if not positive_cone_member(desc, a) or not positive_cone_member(desc, b):
        raise PreconditionError("com_check needs positive endpoints")
    if desc.is_abelian() or desc.meet(a, b) == desc.zero():
        return _HOLDS
    return desc._commute(a, b)
