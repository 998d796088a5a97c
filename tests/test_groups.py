"""Descriptor-driven po-group arithmetic, order and commutation probes."""

import random
from fractions import Fraction

import pytest

from ordalg import groups as g
from ordalg.errors import PreconditionError, ShapeError
from ordalg.pea import IntervalPea
from ordalg.sampling import sample_element, sample_positive
from ordalg.scalars import QuadraticNumber, ScalarSubgroup
from test_properties import discrete_descriptor, grid_coords

import com_reference as search

Z = g.ZZ
Q = g.QQ
Z2 = g.IntVector(2)
AFF = g.AffineQ()
LEX_ZZ = g.Lex(Z, Z)
LEX_QZ = g.Lex(Q, Z)

ALL_DESCS = [
    Z,
    Q,
    g.Scalar(ScalarSubgroup.cyclic(3)),
    g.Scalar(ScalarSubgroup.quadratic(2)),
    Z2,
    AFF,
    LEX_ZZ,
    LEX_QZ,
    g.Lex(Z, AFF),
    g.Lex(g.Scalar(ScalarSubgroup.quadratic(2)), Z2),
    g.Product(Z2, Z),
    g.Lex(Z, g.Product(Z, Z2)),
]


def f(x):
    return Fraction(x)


def test_intvector_add():
    assert g.add(Z2, (1, 2), (3, -5)) == (4, -3)


def test_affine_composition_noncommutative():
    x, y = (f(2), f(1)), (f(3), f(0))
    assert g.add(AFF, x, y) == (f(6), f(1))
    assert g.add(AFF, y, x) == (f(6), f(3))


def test_lex_neg_componentwise():
    assert g.neg(LEX_QZ, (Fraction(1, 2), f(7))) == (Fraction(-1, 2), f(-7))


def test_lex_head_decides():
    assert g.leq(LEX_ZZ, (f(1), f(5)), (f(2), f(-100)))


def test_lex_equal_heads_tail_decides():
    assert not g.leq(LEX_ZZ, (f(0), f(3)), (f(0), f(1)))


def test_product_order_incomparable():
    assert not g.leq(Z2, (1, 0), (0, 1))
    assert not g.leq(Z2, (0, 1), (1, 0))


def test_lex_cone_explicit_form():
    # {(0, a): a >= 0} union {(n, a): n > 0}
    assert g.positive_cone_member(LEX_ZZ, (f(0), f(3)))
    assert g.positive_cone_member(LEX_ZZ, (f(1), f(-5)))
    assert not g.positive_cone_member(LEX_ZZ, (f(0), f(-1)))


@pytest.mark.parametrize("desc", ALL_DESCS)
def test_cone_membership_equals_leq_zero(desc):
    rng = random.Random(3)
    zero = desc.zero()
    for _ in range(100):
        x = sample_element(desc, rng, 6)
        assert g.positive_cone_member(desc, x) == g.leq(desc, zero, x)


def test_lex_cone_two_case_description_sampled():
    rng = random.Random(5)
    for desc in (LEX_ZZ, LEX_QZ, g.Lex(Z, Z2)):
        zero_t = desc.top.zero()
        for _ in range(200):
            x = sample_element(desc, rng, 8)
            h, t = x
            expected = (
                h == zero_t and g.positive_cone_member(desc.bottom, t)
            ) or (h != zero_t and g.leq(desc.top, zero_t, h))
            assert g.positive_cone_member(desc, x) == expected


def test_lower_bound_meet_on_vectors():
    assert g.lower_bound(Z2, [(1, 5), (3, 2)]) == (1, 2)


def test_lower_bound_total_order():
    assert g.lower_bound(Q, [Fraction(1, 2), Fraction(-1, 3)]) == Fraction(-1, 3)


def test_lower_bound_lex_heads_differ():
    got = g.lower_bound(LEX_ZZ, [(f(0), f(4)), (f(1), f(-7))])
    assert got == (f(-1), f(0))
    assert g.leq(LEX_ZZ, got, (f(0), f(4)))
    assert g.leq(LEX_ZZ, got, (f(1), f(-7)))


@pytest.mark.parametrize("desc", [d for d in ALL_DESCS if d.is_directed()])
def test_lower_bound_below_all_inputs(desc):
    rng = random.Random(7)
    for _ in range(60):
        xs = [sample_element(desc, rng, 6) for _ in range(rng.randint(1, 4))]
        lb = g.lower_bound(desc, xs)
        for x in xs:
            assert g.leq(desc, lb, x)


def test_center_abelian():
    assert Z2.center_member((5, -2))


def test_center_affine():
    assert AFF.center_member((f(1), f(0)))
    assert not AFF.center_member((f(2), f(0)))
    # conjugation oracle: (2,0) fails against (1,1)
    lhs = g.add(AFF, (f(2), f(0)), (f(1), f(1)))
    rhs = g.add(AFF, (f(1), f(1)), (f(2), f(0)))
    assert lhs != rhs and lhs[0] == f(2)


def test_com_abelian_immediate():
    res = g.com_check(Z2, (1, 1), (2, 0))
    assert res.holds and res.witness is None


def test_com_affine_witness():
    res = g.com_check(AFF, (f(2), f(0)), (f(2), f(1)))
    assert res.status == "fails"
    assert res.witness == ((f(2), f(0)), (f(2), f(1)))


def test_com_lex_abelian_holds():
    res = g.com_check(LEX_ZZ, (f(0), f(2)), (f(0), f(3)))
    assert res.holds


def test_com_disjoint_endpoints_hold():
    # a ^ b = 0 in prod(Aff, Aff), so every pair below them is disjoint and commutes,
    # although neither interval is finite
    desc = g.Product(AFF, AFF)
    res = g.com_check(desc, ((f(2), f(0)), (f(1), f(0))), ((f(1), f(0)), (f(2), f(0))))
    assert res.holds


def test_com_product_holds_part_by_part():
    # the Aff part has a zero endpoint and the lex part is Abelian, so every
    # pair commutes, although the product as a whole is neither
    desc = g.Product(AFF, LEX_QZ)
    res = g.com_check(desc, ((Fraction(3, 2), f(-2)), (f(1), f(0))), ((f(1), f(0)), (f(2), f(3))))
    assert res.holds


def test_com_product_failure_witness_is_padded_with_zeros():
    desc = g.Product(Z, AFF)
    res = g.com_check(desc, (f(1), (f(2), f(0))), (f(1), (f(1), f(1))))
    assert res.status == "fails"
    x, y = res.witness
    assert x == (0, (f(2), f(0))) and y == (0, (f(1), f(1)))
    assert g.add(desc, x, y) != g.add(desc, y, x)


def test_com_lex_zero_heads_decided_by_the_bottom():
    # both intervals lie in {0} x lex(Z, Z)+, which is Abelian, although the
    # intervals themselves are infinite
    desc = g.Lex(AFF, LEX_ZZ)
    zero_head = (f(1), f(0))
    res = g.com_check(desc, (zero_head, (f(1), f(0))), (zero_head, (f(2), f(5))))
    assert res.holds


def test_com_lex_zero_heads_lift_the_bottom_witness():
    desc = g.Lex(Z, AFF)
    res = g.com_check(desc, (f(0), (f(2), f(0))), (f(0), (f(2), f(1))))
    assert res.status == "fails"
    assert res.witness == ((0, (f(2), f(0))), (0, (f(2), f(1))))


def test_com_affine_translations_commute():
    # [0, (1, b)] holds translations only, which the search cannot decide
    assert g.com_check(AFF, (f(1), f(2)), (f(1), f(3))).holds
    assert g.com_check(g.Lex(Z, AFF), (0, (f(1), f(1))), (0, (f(1), f(3)))).holds
    assert search.searched_com_check(AFF, (f(1), f(2)), (f(1), f(3)))[0] == "inconclusive"


def test_com_affine_commuting_endpoints_fail_below():
    # (3, 0) commutes with itself, but (1, 1) <= (3, 0) does not
    res = g.com_check(AFF, (f(3), f(0)), (f(3), f(0)))
    assert res == g.ComResult("fails", ((f(1), f(1)), (f(3), f(0))))


def test_com_lex_nonzero_heads_lift_the_head_witness():
    # ((1, 1), 0) <= ((3, 0), 0), which the search does not draw, and a head
    # witness at the top head keeps the endpoint's tail
    desc = g.Lex(AFF, Z)
    a, b = ((f(3), f(0)), 0), ((f(3), f(0)), 1)
    res = g.com_check(desc, a, b)
    assert res == g.ComResult("fails", (((f(1), f(1)), 0), b))
    assert search.searched_com_check(desc, a, b)[0] == "inconclusive"


def test_com_lex_nonzero_heads_need_an_abelian_bottom():
    desc = g.Lex(Z, AFF)
    res = g.com_check(desc, (1, (f(1), f(0))), (2, (f(5), f(-3))))
    assert res == g.ComResult("fails", ((0, (f(2), f(0))), (0, (f(1), f(1)))))


def test_com_central_endpoint_over_a_non_central_interval():
    # (1, (1, 0)) is central in lex(Z, Aff), but [0, (1, (1, 0))] holds
    # (0, (2, 0)); against a nonzero head the whole interval must be central
    desc = g.Lex(Z, g.Lex(Z, AFF))
    a = (0, (1, (f(1), f(0))))
    assert desc.center_member(a)
    b = (1, (0, (f(1), f(0))))
    x, y = (0, (0, (f(2), f(0)))), (0, (0, (f(1), f(1))))
    assert g.com_check(desc, a, b) == g.ComResult("fails", (x, y))
    assert g.com_check(desc, b, a) == g.ComResult("fails", (y, x))


NON_ABELIAN = {
    str(desc): desc
    for desc in (
        AFF,
        g.Lex(Z, AFF),
        g.Lex(Q, AFF),
        g.Lex(AFF, Z),
        g.Lex(AFF, AFF),
        g.Lex(AFF, g.Lex(Z, AFF)),
        g.Product(AFF, Z),
        g.Product(AFF, AFF),
        g.Lex(Z, g.Product(AFF, Z)),
        g.Lex(Z, g.Lex(Z, AFF)),
        g.Product(g.Lex(Z, AFF), Z2),
        g.Lex(LEX_ZZ, AFF),
    )
}


def endpoint(desc, rng):
    """A positive element, with zero lex heads and translations of Aff often."""
    if isinstance(desc, g.Product):
        return tuple(endpoint(part, rng) for part in desc.parts)
    if isinstance(desc, g.Lex):
        top, bottom = desc.parts
        if rng.random() < 0.5:
            return (top.zero(), endpoint(bottom, rng))
        head = endpoint(top, rng)
        return (top.a_positive_element() if head == top.zero() else head, sample_element(bottom, rng, 4))
    if isinstance(desc, g.AffineQ) and rng.random() < 0.5:
        return (f(1), f(rng.randint(0, 3)))
    return sample_positive(desc, rng, 4)


def in_interval(desc, x, hi):
    return desc._positive(x) and desc.leq(x, hi)


def fails_to_commute(desc, x, y):
    return desc.add(x, y) != desc.add(y, x)


@pytest.mark.parametrize("name", NON_ABELIAN)
def test_com_check_exact_rule_against_the_search(name):
    # no sampled witness meets an exact "holds", every exact witness lies in
    # its intervals and fails to commute, and every decided search verdict
    # is the exact one; the centre test answers by a checked witness too
    desc = NON_ABELIAN[name]
    rng = random.Random(name)
    seen = {"holds": 0, "fails": 0, "inconclusive": 0}
    for _ in range(200):
        a, b = endpoint(desc, rng), endpoint(desc, rng)
        res = g.com_check(desc, a, b)
        status, witness = search.searched_com_check(desc, a, b, draws=60, seed=rng.random())
        seen[status] += 1
        assert status in (res.status, "inconclusive"), (a, b, witness)
        if res.holds:
            assert res.witness is None
            continue
        assert res.status == "fails"
        x, y = res.witness
        assert in_interval(desc, x, a) and in_interval(desc, y, b)
        assert fails_to_commute(desc, x, y)
        for z in (a, b):
            y = desc._commutant(z)
            assert desc.center_member(z) == (y is None)
            if y is not None:
                assert desc._positive(y) and fails_to_commute(desc, z, y)
    assert seen["holds"] and seen["fails"]


def test_com_requires_positive():
    with pytest.raises(PreconditionError):
        g.com_check(Z2, (-1, 0), (1, 1))


@pytest.mark.parametrize("desc", ALL_DESCS)
def test_order_translation_invariance(desc):
    rng = random.Random(9)
    for _ in range(250):
        x, y, z, w = (sample_element(desc, rng, 5) for _ in range(4))
        if g.leq(desc, x, y):
            lhs = g.add(desc, g.add(desc, z, x), w)
            rhs = g.add(desc, g.add(desc, z, y), w)
            assert g.leq(desc, lhs, rhs)


@pytest.mark.parametrize("desc", ALL_DESCS)
def test_group_axioms_sampled(desc):
    rng = random.Random(13)
    zero = desc.zero()
    for _ in range(150):
        x, y, z = (sample_element(desc, rng, 5) for _ in range(3))
        assert g.add(desc, g.add(desc, x, y), z) == g.add(desc, x, g.add(desc, y, z))
        assert g.add(desc, x, zero) == x and g.add(desc, zero, x) == x
        assert g.add(desc, x, g.neg(desc, x)) == zero
        assert g.add(desc, g.neg(desc, x), x) == zero


@pytest.mark.parametrize("desc", ALL_DESCS)
def test_structural_predicate_consistency(desc):
    if desc.is_linearly_ordered():
        assert desc.is_lattice()
    if desc.is_lattice():
        assert desc.is_directed()
    assert desc.is_torsion_free()


@pytest.mark.parametrize("desc", ALL_DESCS)
def test_torsion_freeness_sampled(desc):
    rng = random.Random(15)
    zero = desc.zero()
    for _ in range(40):
        x = sample_element(desc, rng, 5)
        if x == zero:
            continue
        for n in range(1, 11):
            assert desc.scale(x, n) != zero


def test_lex_head_must_be_linear():
    with pytest.raises(PreconditionError):
        g.Lex(Z2, Z)


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        g.check_element(Z2, (1, 2, 3))
    with pytest.raises(ShapeError):
        g.check_element(AFF, (f(0), f(1)))  # nonpositive first component


@pytest.mark.parametrize(
    "bad", [0.5, "1/2", QuadraticNumber(f(0), f(1), 2)], ids=["float", "string", "sqrt 2"]
)
def test_affine_components_must_be_ints_or_fractions(bad):
    # Fraction(...) used to accept floats and strings here
    for pair in ((bad, f(0)), (f(1), bad)):
        with pytest.raises(ShapeError, match="rational components"):
            g.check_element(AFF, pair)
    with pytest.raises(ShapeError):
        g.check_element(g.Lex(Z, AFF), (0, (f(1), bad)))


def test_affine_check_element_keeps_fraction_pairs():
    x = (Fraction(3, 2), Fraction(-1, 3))
    assert g.check_element(AFF, x) is x
    mixed = g.check_element(AFF, (2, Fraction(1, 2)))
    assert mixed == (f(2), Fraction(1, 2))
    assert all(type(v) is Fraction for v in mixed)
    assert AFF.zero() is AFF.zero()


def test_affine_cone_conjugation_invariant():
    rng = random.Random(21)
    for _ in range(200):
        p = sample_positive(AFF, rng, 6)
        h = sample_element(AFF, rng, 6)
        conj = g.add(AFF, g.add(AFF, h, p), g.neg(AFF, h))
        assert g.positive_cone_member(AFF, conj)


def test_meet_is_greatest_lower_bound_sampled():
    rng = random.Random(23)
    for desc in (Z2, LEX_ZZ, g.Product(Z2, Z), g.Lex(Q, Z2)):
        for _ in range(80):
            x, y = sample_element(desc, rng, 5), sample_element(desc, rng, 5)
            m = desc.meet(x, y)
            assert g.leq(desc, m, x) and g.leq(desc, m, y)
            z = sample_element(desc, rng, 5)
            if g.leq(desc, z, x) and g.leq(desc, z, y):
                assert g.leq(desc, z, m)


def test_divide_exact():
    assert g.divide(Z2, (4, -6), 2) == (2, -3)
    assert g.divide(Z2, (3, 2), 2) is None
    assert g.divide(Q, Fraction(1), 3) == Fraction(1, 3)
    assert g.divide(Z, Fraction(1), 3) is None
    # affine pairs: (4, 3)/2 = (2, 1) since (2,1)+(2,1) = (4, 3)
    got = g.divide(AFF, (f(4), f(3)), 2)
    assert got == (f(2), f(1))
    assert g.add(AFF, got, got) == (f(4), f(3))


def test_divide_affine_exact_roots_at_any_size():
    # square and cube roots past float precision, and past the float range
    big = 2**70 + 3
    assert g.divide(AFF, (f(big**2), f(0)), 2) == (f(big), f(0))
    c = 5505982976679047
    assert g.divide(AFF, (f(c**3), f(0)), 3) == (f(c), f(0))
    assert g.divide(AFF, (f(10**400), f(0)), 2) == (f(10**200), f(0))
    assert g.divide(AFF, (f(c**3 + 1), f(0)), 3) is None
    assert g.divide(AFF, (Fraction(big**2, 9), f(1)), 2) == (Fraction(big, 3), Fraction(3, big + 3))


def test_cyclic_scalars_reject_non_members():
    with pytest.raises(ShapeError):
        g.check_element(Z, Fraction(1, 2))
    with pytest.raises(ShapeError):
        g.check_element(g.Scalar(ScalarSubgroup.cyclic(4)), Fraction(1, 3))
    assert g.check_element(g.Scalar(ScalarSubgroup.cyclic(4)), Fraction(3, 2)) == Fraction(3, 2)
    assert g.check_element(Q, Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(ShapeError):
        g.check_element(LEX_ZZ, (Fraction(1, 2), f(0)))


def test_constructors_raise_package_errors():
    with pytest.raises(PreconditionError):
        g.IntVector(0)
    with pytest.raises(PreconditionError):
        ScalarSubgroup.cyclic(0)
    with pytest.raises(PreconditionError):
        ScalarSubgroup.quadratic(4)


def test_strong_unit_checks():
    assert Z2.is_strong_unit((1, 1))
    assert not Z2.is_strong_unit((1, 0))
    assert LEX_ZZ.is_strong_unit((f(1), f(-9)))
    assert not LEX_ZZ.is_strong_unit((f(0), f(5)))
    assert AFF.is_strong_unit((f(2), f(0)))
    assert not AFF.is_strong_unit((f(1), f(3)))
    IntervalPea(LEX_QZ, (f(1), f(0)))
    with pytest.raises(PreconditionError, match="strong unit"):
        IntervalPea(Z2, (1, 0))


def test_iter_bounded_lowers_filter_the_unbounded_walk():
    # lower bounds cut the walk to the elements above them, in the same order
    rng = random.Random(700)
    checked = 0
    while checked < 60:
        desc = discrete_descriptor(rng, rng.randint(0, 3))
        zero = desc.zero()
        if len(grid_coords(desc, zero)) > 4:
            continue
        for _ in range(3):
            lowers = [sample_element(desc, rng, 2) for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.5:
                lowers.append(zero)
            uppers = [sample_element(desc, rng, 3) for _ in range(rng.randint(0, 2))]
            walk = desc.iter_bounded([], uppers, 2)
            expected = [x for x in walk if all(g.leq(desc, l, x) for l in lowers)]
            assert list(desc.iter_bounded(lowers, uppers, 2)) == expected
        checked += 1
