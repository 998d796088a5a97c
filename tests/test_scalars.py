"""Exact scalar subgroup arithmetic and order."""

import random
from fractions import Fraction

import pytest

from ordalg.errors import DomainMismatchError, NoElementError
from ordalg.scalars import (
    Ordering,
    QuadraticNumber,
    ScalarSubgroup,
    classify,
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
    assert classify(ScalarSubgroup.cyclic(4)) == ("cyclic", 4)
    assert classify(Q) == ("dense", None)
    assert classify(QS2) == ("dense", None)


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
