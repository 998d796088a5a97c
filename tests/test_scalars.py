"""Exact scalar subgroup arithmetic and order."""

import math
import random
from fractions import Fraction

import pytest

from ordalg.errors import DomainMismatchError, NoElementError, PreconditionError
from ordalg.scalars import (
    Ordering,
    QuadraticNumber,
    ScalarSubgroup,
    compare,
    grid_points,
    pick_strictly_between,
    simplest_between,
)

Q = ScalarSubgroup.rationals()
Z = ScalarSubgroup.cyclic(1)
Z3 = ScalarSubgroup.cyclic(3)
QS2 = ScalarSubgroup.quadratic(2)


def q2(a, b):
    return QuadraticNumber(Fraction(a), Fraction(b), 2)


def test_compare_reflexive():
    assert compare(Fraction(3, 4), Fraction(3, 4)) is Ordering.EQ


def test_compare_integer_case_in_quadratic():
    assert compare(q2(1, 0), q2(0, 0)) is Ordering.GT


def test_compare_sign_via_squaring():
    # -1 + sqrt(2) > 0 because (1*sqrt(2))^2 = 2 > 1 = 1^2
    assert 1 * 1 < 1 * 1 * 2  # the independent sign oracle
    assert compare(q2(-1, 1), q2(0, 0)) is Ordering.GT
    # mirrored: 1 - sqrt(2) < 0 because 1^2 = 1 < 2
    assert q2(1, -1).sign() == -1


def test_compare_mixed_domains_rejected():
    with pytest.raises(DomainMismatchError):
        QuadraticNumber(Fraction(0), Fraction(1), 2) + QuadraticNumber(
            Fraction(0), Fraction(1), 3
        )


def test_classify():
    assert ScalarSubgroup.cyclic(4).classify() == ("cyclic", 4)
    assert Q.classify() == ("dense", None)
    assert QS2.classify() == ("dense", None)


def test_quadratic_denseness_witnesses():
    # powers of (sqrt(2) - 1) exhibit members of (0, 1/2^k)
    x = q2(-1, 1)
    power = q2(1, 0)
    for k in range(1, 11):
        power = power * x
        assert QS2.contains(power)
        assert power.sign() == 1
        assert (power - Fraction(1, 2**k)).sign() == -1


def test_simplest_between_half():
    assert simplest_between(Fraction(0), Fraction(1)) == Fraction(1, 2)


@pytest.mark.parametrize(
    "lo,hi,expect",
    [
        (Fraction(1, 3), Fraction(1, 2), Fraction(2, 5)),
        (Fraction(-1), Fraction(1), Fraction(0)),
        (Fraction(5, 2), Fraction(9, 2), Fraction(3)),
        (Fraction(-7, 2), Fraction(-5, 2), Fraction(-3)),
    ],
)
def test_simplest_between_cases(lo, hi, expect):
    got = simplest_between(lo, hi)
    assert lo < got < hi
    assert got == expect


def test_simplest_between_is_minimal_denominator():
    rng = random.Random(7)
    for _ in range(200):
        lo = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        hi = lo + Fraction(rng.randint(1, 30), rng.randint(1, 40))
        got = simplest_between(lo, hi)
        assert lo < got < hi
        # brute-force oracle over denominators below the answer's
        for q in range(1, got.denominator):
            p_lo = (lo * q).numerator // (lo * q).denominator + 1
            p_hi = -((-hi * q).numerator // (hi * q).denominator) - 1
            assert p_lo > p_hi, f"denominator {q} fits inside ({lo}, {hi})"


def test_pick_between_rationals():
    assert pick_strictly_between(Q, 0, 1) == Fraction(1, 2)


def test_pick_between_cyclic():
    assert pick_strictly_between(Z3, 0, Fraction(1, 2)) == Fraction(1, 3)


def test_pick_between_cyclic_empty():
    with pytest.raises(NoElementError):
        pick_strictly_between(ScalarSubgroup.cyclic(2), 0, Fraction(1, 4))


def test_pick_between_quadratic():
    t = pick_strictly_between(QS2, q2(0, 0), q2(1, 0))
    assert QS2.contains(t)
    assert (t - q2(0, 0)).sign() == 1 and (t - q2(1, 0)).sign() == -1
    # smallest-k rule: sqrt(2) - 1 is the k=1 witness inside (0, 1)
    assert t == q2(-1, 1)


def test_pick_between_quadratic_prefers_integers():
    t = pick_strictly_between(QS2, q2(1, 0), q2(4, 0))
    assert t == q2(2, 0)


@pytest.mark.parametrize("H", [Z, Z3, Q, QS2])
def test_group_laws_random(H):
    rng = random.Random(11)

    def sample():
        if H == QS2:
            return QuadraticNumber(
                Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)), H.d
            )
        if not H.is_dense:
            return Fraction(rng.randint(-20, 20), H.n)
        return Fraction(rng.randint(-20, 20), rng.randint(1, 12))

    for _ in range(300):
        x, y, z = sample(), sample(), sample()
        assert H.contains(x) and H.contains(y)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x + H.zero() == x
        assert x + (-x) == H.zero()
        # translation invariance of the order
        if compare(x, y) is not Ordering.GT:
            assert compare(x + z, y + z) is not Ordering.GT


@pytest.mark.parametrize("H", [Q, QS2])
def test_dense_pick_always_succeeds(H):
    rng = random.Random(13)
    for _ in range(100):
        lo = Fraction(rng.randint(-100, 100), rng.randint(1, 1000))
        width = Fraction(rng.randint(1, 50), rng.randint(1, 1000))
        a, b = H.coerce(lo), H.coerce(lo + width)
        t = pick_strictly_between(H, a, b)
        assert H.contains(t)
        assert compare(a, t) is Ordering.LT and compare(t, b) is Ordering.LT


def test_canonical_form_stable():
    rng = random.Random(17)
    for H in (Z, Z3, Q, QS2):
        for _ in range(1000):
            if H == QS2:
                x = QuadraticNumber(
                    Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                    Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                    H.d,
                )
                assert (x + (-x)).is_zero()
            else:
                x = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
                s = x + (-x)
                assert s == 0 and s.denominator == 1


def test_grid_points_cyclic():
    assert grid_points(ScalarSubgroup.cyclic(4)) == [Fraction(k, 4) for k in range(5)]


def test_grid_points_sorted_and_member():
    for H in (Q, QS2):
        pts = grid_points(H, max_den=5, coeff_bound=3)
        assert all(H.contains(p) for p in pts)
        for u, v in zip(pts, pts[1:]):
            assert compare(u, v) is Ordering.LT
        assert compare(pts[0], H.zero()) is Ordering.EQ
        assert compare(pts[-1], H.one()) is Ordering.EQ


# ---------------------------------------------------------------------------
# the exact kernels against slow references


def _ref_sign(a, b, d):
    """Sign of a + b*sqrt(d) by the case analysis on Fraction squares."""
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        return 0 if a == 0 else (1 if a > 0 else -1)
    if a == 0 or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    lhs, rhs = a * a, b * b * d
    assert lhs != rhs
    if a > 0:
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1


def _ref_compare_sign(x, y):
    """Sign of x - y: a Fraction difference, or the sign of the coefficient differences."""
    if not isinstance(x, QuadraticNumber) and not isinstance(y, QuadraticNumber):
        diff = Fraction(x) - Fraction(y)
        return 0 if diff == 0 else (1 if diff > 0 else -1)
    d = x.d if isinstance(x, QuadraticNumber) else y.d
    xa, xb = (x.a, x.b) if isinstance(x, QuadraticNumber) else (Fraction(x), 0)
    ya, yb = (y.a, y.b) if isinstance(y, QuadraticNumber) else (Fraction(y), 0)
    return _ref_sign(xa - ya, xb - yb, d)


def _ref_floor(x):
    """Integer floor by bracketing and bisection with exact sign tests."""
    bound = abs(x.a) + abs(x.b) * (math.isqrt(x.d) + 1) + 1
    lo = -(bound.numerator // bound.denominator + 2)
    hi = -lo
    while hi - lo > 1:  # lo <= x < hi
        mid = (lo + hi) // 2
        if _ref_sign(x.a - mid, x.b, x.d) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


DS = (2, 3, 5, 6, 7, 10)
# p^2 - d*q^2 = +-1, so p - q*sqrt(d) = +-1/(p + q*sqrt(d)) is within 1/(2p) of 0
PELL = {2: [(3, 2), (7, 5), (17, 12), (99, 70)], 3: [(2, 1), (7, 4), (26, 15)],
        5: [(2, 1), (9, 4), (161, 72)], 6: [(5, 2), (49, 20)], 7: [(8, 3), (127, 48)],
        10: [(3, 1), (19, 6), (721, 228)]}


def _sample_scalar(rng, d):
    def rat():
        return Fraction(rng.randint(-60, 60), rng.randint(1, 12))

    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-8, 8)
    if kind == 1:
        return rat()
    return QuadraticNumber(rat(), rng.choice([Fraction(0), rat()]), d)


def test_compare_matches_the_sign_of_the_difference():
    rng = random.Random(71)
    members = {-1: Ordering.LT, 0: Ordering.EQ, 1: Ordering.GT}
    for _ in range(3000):
        d = rng.choice(DS)
        x = _sample_scalar(rng, d)
        y = x if rng.random() < 0.1 else _sample_scalar(rng, d)
        s = _ref_compare_sign(x, y)
        assert compare(x, y) is members[s]
        assert compare(y, x) is members[-s]
        if isinstance(x, QuadraticNumber):
            assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0)
            assert (x - y).sign() == s


def test_floor_matches_bisection():
    rng = random.Random(73)
    cases = []
    for d in DS:
        cases += [QuadraticNumber(m, 0, d) for m in (-3, 0, 5)]  # b = 0, exact integers
        cases += [QuadraticNumber(Fraction(7, 3), 0, d), QuadraticNumber(Fraction(-7, 3), 0, d)]
        for p, q in PELL[d]:
            for m in (-2, 0, 3):
                for k in (1, 5):  # just below or just above the integer m
                    cases.append(QuadraticNumber(Fraction(m) + Fraction(p, k), Fraction(-q, k), d))
                    cases.append(QuadraticNumber(Fraction(m) - Fraction(p, k), Fraction(q, k), d))
        for _ in range(150):
            cases.append(QuadraticNumber(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 97)),
                                         Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 97)), d))
    near = 0  # irrational values within 1/100 below an integer
    for x in cases:
        f = x.floor()
        assert f == _ref_floor(x), x
        if x.b != 0 and _ref_sign(x.a - f - Fraction(99, 100), x.b, x.d) > 0:
            near += 1
    assert near >= len(DS)


def test_bad_d_raises_on_every_construction():
    QuadraticNumber(0, 0, 2)  # a valid d, now validated once
    for d in (0, 1, 4, 8, 12):
        for _ in range(2):
            with pytest.raises(PreconditionError):
                QuadraticNumber(0, 0, d)


def test_compare_rejects_mixed_square_roots():
    for x, y in ((q2(1, 1), QuadraticNumber(1, 1, 3)), (QuadraticNumber(1, 1, 3), q2(1, 1))):
        with pytest.raises(DomainMismatchError):
            compare(x, y)


def test_rational_values_are_shared_not_copied():
    x = Fraction(3, 7)
    assert Q.coerce(x) is x and Z3.coerce(x) is x
    assert Q.zero() is Z3.zero() and Q.one() is Z3.one()
    assert type(Z.zero()) is int and Z.zero() == 0


def test_quadratic_zero_and_one_are_built_once():
    assert QS2.zero() is QS2.zero() and QS2.one() is QS2.one()
    assert QS2.zero() == QuadraticNumber(0, 0, 2) and QS2.one() == QuadraticNumber(1, 0, 2)
    # the cached values stay out of equality, hashing and repr
    other = ScalarSubgroup.quadratic(2)
    assert other == QS2 and hash(other) == hash(QS2) and repr(other) == repr(QS2)
    assert ScalarSubgroup.quadratic(3) != QS2
