"""Seeded property checks over random descriptor trees of depth <= 3.

Every tree is built from all five descriptor classes with stdlib ``random``;
the checks are the group laws, the order axioms, the order against its
definition (x <= y when y + (-x) lies in each descriptor's cone), the
positivity test against 0 <= x, the element-format round trips, the
interval sampler's bounds, and that every strong unit is positive and
nonzero.  ``scale`` equals the repeated
sum, ``divide`` inverts it, and the exact n-th root round trips on values of
100 to 400 bits.  The six scalar groups are also checked for membership of
every sample and of strictly-between picks.  On discrete trees (the ones the exhaustive oracle
enumerates), at every level, the oracle finds a table wherever the constructive solver does,
and the solver answers wherever the oracle finds a table.  The paper's lex case tables
(``lex_tables``) verify on every tree at the levels they answer.
"""

import random
from fractions import Fraction

import pytest

from ordalg import groups as g
from ordalg.errors import PreconditionError
from ordalg.parsing import parse_element
from ordalg.pea import IntervalPea
from ordalg.riesz import rdp_decompose, rdp_oracle_search, rdp_table_verify
from ordalg.sampling import sample_element, sample_interval, sample_positive
from ordalg.scalars import (
    Ordering,
    QuadraticNumber,
    ScalarSubgroup,
    compare,
    pick_strictly_between,
)

from lex_tables import case_table, uses_case_table
from reference_oracle import verified_oracle_search

SCALARS = [
    g.ZZ,
    g.QQ,
    g.Scalar(ScalarSubgroup.cyclic(2)),
    g.Scalar(ScalarSubgroup.cyclic(3)),
    g.Scalar(ScalarSubgroup.quadratic(2)),
    g.Scalar(ScalarSubgroup.quadratic(3)),
]


def random_descriptor(rng, depth, linear=False):
    """A random descriptor tree; ``linear`` keeps it linearly ordered (lex heads)."""
    if depth > 0 and rng.random() < 0.7:
        kind = "lex" if linear else rng.choice(["lex", "prod"])
    else:
        kind = rng.choice(["scalar", "vector", "affine"])
    if kind == "scalar":
        return rng.choice(SCALARS)
    if kind == "vector":
        return g.IntVector(1 if linear else rng.randint(1, 3))
    if kind == "affine":
        return g.AffineQ()
    if kind == "lex":
        head = random_descriptor(rng, depth - 1, linear=True)
        return g.Lex(head, random_descriptor(rng, depth - 1, linear=linear))
    return g.Product(random_descriptor(rng, depth - 1), random_descriptor(rng, depth - 1))


def trees(seed, count=60):
    rng = random.Random(seed)
    return [random_descriptor(rng, rng.randint(0, 3)) for _ in range(count)]


TREES = trees(2024)

DISCRETE = [g.ZZ, g.Scalar(ScalarSubgroup.cyclic(2)), g.Scalar(ScalarSubgroup.cyclic(3))]


def discrete_head(rng, depth):
    """A linearly ordered discrete tree: a discrete scalar, Z^1, or a lex of two such."""
    if depth > 0 and rng.random() < 0.4:
        return g.Lex(discrete_head(rng, depth - 1), discrete_head(rng, depth - 1))
    return rng.choice(DISCRETE + [g.IntVector(1)])


def discrete_descriptor(rng, depth):
    """A random tree the oracle enumerates: discrete scalars, Z^k, prod, lex over a discrete head."""
    if depth > 0 and rng.random() < 0.75:
        if rng.random() < 0.5:
            return g.Lex(discrete_head(rng, depth - 1), discrete_descriptor(rng, depth - 1))
        return g.Product(discrete_descriptor(rng, depth - 1), discrete_descriptor(rng, depth - 1))
    if rng.random() < 0.5:
        return rng.choice(DISCRETE)
    return g.IntVector(rng.randint(1, 3))


def grid_coords(desc, x):
    """The integer coordinates the oracle's box bounds: k for k/n in (1/n)Z."""
    if isinstance(desc, g.Scalar):
        return [int(x * desc.H.n)]
    if isinstance(desc, g.IntVector):
        return list(x)
    a, b = desc.parts
    return grid_coords(a, x[0]) + grid_coords(b, x[1])


def test_trees_cover_every_descriptor_class():
    seen = set()

    def walk(desc):
        seen.add(type(desc))
        for part in vars(desc).values():
            if isinstance(part, g.GroupDescriptor):
                walk(part)

    for desc in TREES:
        walk(desc)
    assert seen == {g.Scalar, g.IntVector, g.AffineQ, g.Lex, g.Product}


@pytest.mark.parametrize("seed", range(4))
def test_group_laws(seed):
    rng = random.Random(seed)
    for desc in TREES:
        zero = desc.zero()
        for _ in range(6):
            x, y, z = (sample_element(desc, rng, 4) for _ in range(3))
            assert g.add(desc, g.add(desc, x, y), z) == g.add(desc, x, g.add(desc, y, z))
            assert g.add(desc, x, zero) == x == g.add(desc, zero, x)
            assert g.add(desc, x, g.neg(desc, x)) == zero == g.add(desc, g.neg(desc, x), x)
            if desc.is_abelian():
                assert g.add(desc, x, y) == g.add(desc, y, x)


@pytest.mark.parametrize("seed", range(4))
def test_order_axioms(seed):
    rng = random.Random(100 + seed)
    for desc in TREES:
        for _ in range(6):
            x, y, z, w = (sample_element(desc, rng, 2) for _ in range(4))
            assert g.leq(desc, x, x)
            if g.leq(desc, x, y) and g.leq(desc, y, x):
                assert x == y
            if g.leq(desc, x, y) and g.leq(desc, y, z):
                assert g.leq(desc, x, z)
            # a chain x <= x + p <= x + p + q exercises transitivity every time
            up = g.add(desc, x, sample_positive(desc, rng, 3))
            top = g.add(desc, up, sample_positive(desc, rng, 3))
            assert g.leq(desc, x, up) and g.leq(desc, up, top) and g.leq(desc, x, top)
            if g.leq(desc, x, y):
                lhs = g.add(desc, g.add(desc, z, x), w)
                rhs = g.add(desc, g.add(desc, z, y), w)
                assert g.leq(desc, lhs, rhs)


def in_cone(desc, x):
    """0 <= x by each descriptor's cone, the reference for the order by comparison."""
    if isinstance(desc, g.Scalar):
        return compare(x, desc.H.zero()) is not Ordering.LT
    if isinstance(desc, g.IntVector):
        return all(v >= 0 for v in x)
    if isinstance(desc, g.AffineQ):
        a, b = x
        return a > 1 or (a == 1 and b >= 0)
    top, bottom = desc.parts
    if isinstance(desc, g.Lex):
        if x[0] == top.zero():
            return in_cone(bottom, x[1])
        return in_cone(top, x[0])
    return in_cone(top, x[0]) and in_cone(bottom, x[1])


def cone_leq(desc, x, y):
    """x <= y by the definition: y + (-x) lies in the positive cone."""
    return in_cone(desc, g.add(desc, y, g.neg(desc, x)))


def lex_parts(desc):
    """(head, bottom) of every lex node in a descriptor tree."""
    if isinstance(desc, g.Lex):
        yield desc.parts
    for part in getattr(desc, "parts", ()):
        yield from lex_parts(part)


def test_order_trees_have_quadratic_and_affine_heads_and_bottoms():
    quadratic = ScalarSubgroup.quadratic(2), ScalarSubgroup.quadratic(3)
    kinds = set()
    for desc in TREES:
        for pair in lex_parts(desc):
            for side, part in zip(("head", "bottom"), pair):
                if isinstance(part, g.AffineQ):
                    kinds.add((side, "Aff"))
                if isinstance(part, g.Scalar) and part.H in quadratic:
                    kinds.add((side, "quadratic"))
    assert kinds == {(s, k) for s in ("head", "bottom") for k in ("Aff", "quadratic")}


def test_affine_order_is_the_cone_of_differences():
    # heads from a small pool, so that about one pair in four shares its head
    aff = g.AffineQ()
    heads = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
    rng = random.Random(700)
    outcomes = set()
    for _ in range(2000):
        x, y = ((rng.choice(heads), Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in "xy")
        got = g.leq(aff, x, y)
        assert got == cone_leq(aff, x, y)
        if x[0] == y[0]:
            outcomes.add((x[1] == y[1], got))
    assert outcomes == {(True, True), (False, True), (False, False)}


@pytest.mark.parametrize("seed", range(4))
def test_order_matches_the_cone_of_differences(seed):
    rng = random.Random(700 + seed)
    for desc in TREES:
        for _ in range(6):
            x, y = sample_element(desc, rng, 2), sample_element(desc, rng, 2)
            up = g.add(desc, x, sample_positive(desc, rng, 2))
            for u, v in ((x, y), (y, x), (x, x), (x, up), (up, x)):
                assert g.leq(desc, u, v) == cone_leq(desc, u, v)


@pytest.mark.parametrize("seed", range(4))
def test_positive_cone_member_is_zero_below(seed):
    rng = random.Random(750 + seed)
    for desc in TREES:
        zero = desc.zero()
        for _ in range(6):
            p = sample_positive(desc, rng, 3)
            for x in (p, g.neg(desc, p), zero, sample_element(desc, rng, 3)):
                assert g.positive_cone_member(desc, x) == g.leq(desc, zero, x) == in_cone(desc, x)
            assert g.positive_cone_member(desc, p)


@pytest.mark.parametrize("seed", range(2))
def test_element_format_round_trips(seed):
    rng = random.Random(200 + seed)
    for desc in TREES:
        for _ in range(5):
            x = sample_element(desc, rng, 6)
            checked = g.check_element(desc, x)
            assert g.check_element(desc, checked) == checked == x
            assert parse_element(desc, desc.format_element(x)) == x


@pytest.mark.parametrize("seed", range(2))
def test_divide_inverts_scale(seed):
    rng = random.Random(300 + seed)
    for desc in TREES:
        for _ in range(4):
            x = sample_element(desc, rng, 5)
            for n in (2, 3):
                assert g.divide(desc, g.scale(desc, x, n), n) == x


SCALE_DESCRIPTORS = [
    g.ZZ,
    g.Scalar(ScalarSubgroup.cyclic(3)),
    g.QQ,
    g.Scalar(ScalarSubgroup.quadratic(2)),
    g.IntVector(2),
    g.AffineQ(),
    g.Lex(g.QQ, g.AffineQ()),
    g.Product(g.IntVector(2), g.Scalar(ScalarSubgroup.quadratic(2))),
]


@pytest.mark.parametrize("desc", SCALE_DESCRIPTORS, ids=str)
def test_scale_by_doubling_equals_the_repeated_sum(desc):
    rng = random.Random(f"scale-{desc}")
    for _ in range(6):
        x = sample_element(desc, rng, 5)
        total = desc.zero()
        for n in range(18):
            assert g.scale(desc, x, n) == total
            assert g.scale(desc, x, -n) == g.neg(desc, total)
            total = g.add(desc, total, x)


def test_scale_reaches_large_factors():
    assert g.scale(g.ZZ, Fraction(3), 10**12) == 3 * 10**12
    assert g.scale(g.IntVector(2), (1, -2), -(10**15)) == (-(10**15), 2 * 10**15)


def big_int(rng):
    """A random integer of 100 to 400 bits, of either sign."""
    bits = rng.randint(100, 400)
    return rng.choice((1, -1)) * (rng.getrandbits(bits) | 1 << (bits - 1))


def big_element(desc, rng):
    """A value of desc whose numerators and denominators have 100 to 400 bits."""
    if isinstance(desc, g.AffineQ):
        head = Fraction(abs(big_int(rng)), abs(big_int(rng)))
        return (head, Fraction(big_int(rng), abs(big_int(rng))))
    H = desc.H
    if H == ScalarSubgroup.quadratic(2):
        return QuadraticNumber(Fraction(big_int(rng)), Fraction(big_int(rng)), 2)
    if H == ScalarSubgroup.rationals():
        return Fraction(big_int(rng), abs(big_int(rng)))
    return Fraction(big_int(rng), H.n)


BIG_DESCRIPTORS = [g.AffineQ(), *SCALARS[:3], SCALARS[4]]


@pytest.mark.parametrize("desc", BIG_DESCRIPTORS, ids=str)
def test_divide_inverts_scale_on_big_values(desc):
    rng = random.Random(f"big-{desc}")
    for _ in range(20):
        x = big_element(desc, rng)
        for n in (2, 3, 5):
            assert g.divide(desc, g.scale(desc, x, n), n) == x


def test_affine_nth_root_round_trip_on_big_values():
    # (a, 0) is n-divisible in Aff exactly when a has a rational n-th root
    aff = g.AffineQ()
    rng = random.Random(505)
    for _ in range(30):
        p, q = abs(big_int(rng)), abs(big_int(rng))
        for n in (2, 3, 5):
            root = Fraction(p, q)
            assert g.divide(aff, (root**n, Fraction(0)), n) == (root, Fraction(0))
            # p^n + 1 and q^n - 1 lie strictly between consecutive n-th powers
            assert g.divide(aff, (Fraction(p**n + 1), Fraction(0)), n) is None
            assert g.divide(aff, (Fraction(1, q**n - 1), Fraction(0)), n) is None


@pytest.mark.parametrize("seed", range(2))
def test_sample_interval_stays_inside(seed):
    rng = random.Random(400 + seed)
    for desc in TREES:
        zero = desc.zero()
        for _ in range(5):
            hi = sample_positive(desc, rng, 5)
            x = sample_interval(desc, hi, rng, 5)
            assert g.leq(desc, zero, x) and g.leq(desc, x, hi)


def test_scalar_samples_and_picks_are_members():
    rng = random.Random(500)
    for desc in SCALARS:
        H = desc.H
        for _ in range(40):
            x = sample_element(desc, rng, 6)
            p = sample_positive(desc, rng, 6)
            y = sample_interval(desc, p, rng, 6)
            assert H.contains(x) and H.contains(p) and H.contains(y)
            if compare(p, H.zero()) is Ordering.GT:
                # (x, x + 2p) holds a point of every subgroup, x + p among them
                hi = x + p + p
                t = pick_strictly_between(H, x, hi)
                assert H.contains(t)
                assert compare(x, t) is Ordering.LT and compare(t, hi) is Ordering.LT


def test_quadratic_interval_sampler_falls_back_to_the_pick():
    # no m + k*sqrt(2) with |k| <= 8 lies in (0, 17 - 12*sqrt(2)], about 0.029,
    # so every random try misses
    desc = g.Scalar(ScalarSubgroup.quadratic(2))
    H, hi = desc.H, desc.check_element(QuadraticNumber(17, -12, 2))
    x = sample_interval(desc, hi, random.Random(7))
    assert H.contains(x)
    assert compare(H.zero(), x) is Ordering.LT and compare(x, hi) is Ordering.LT
    # an empty interval raises instead of searching forever
    with pytest.raises(PreconditionError):
        sample_interval(desc, desc.check_element(-1), random.Random(7))


@pytest.mark.parametrize(
    "desc, hi",
    [
        (g.Scalar(ScalarSubgroup.cyclic(2)), -1),
        (g.QQ, Fraction(-1, 2)),
        (g.Scalar(ScalarSubgroup.quadratic(2)), -1),
    ],
    ids=["Z/2", "Q", "Q[sqrt 2]"],
)
def test_sample_interval_rejects_a_negative_bound(desc, hi):
    with pytest.raises(PreconditionError, match="0 <= hi"):
        sample_interval(desc, desc.check_element(hi), random.Random(1))


def test_sample_interval_rejects_bounds_outside_the_cone():
    rng = random.Random(600)
    for desc in TREES:
        zero = desc.zero()
        hi = g.neg(desc, sample_positive(desc, rng, 5))
        if hi != zero:
            with pytest.raises(PreconditionError):
                sample_interval(desc, hi, rng, 5)


def strong_unit(desc, rng):
    """A random strong unit of desc: the first positive sample that is one."""
    for _ in range(1000):
        u = sample_positive(desc, rng, 5)
        if desc.is_strong_unit(u):
            return u
    raise AssertionError(f"no strong unit drawn in {desc}")


def test_strong_units_are_positive_and_nonzero():
    # IntervalPea.sample draws below its unit without checking it again
    rng = random.Random(700)
    weak = 0
    for desc in TREES:
        zero = desc.zero()
        for _ in range(8):
            u = strong_unit(desc, rng)
            assert u != zero and desc._positive(u), (desc, u)
        with pytest.raises(PreconditionError, match="strong unit"):
            IntervalPea(desc, zero)
        for _ in range(8):
            p = sample_positive(desc, rng, 5)
            if not desc.is_strong_unit(p):
                weak += 1
                with pytest.raises(PreconditionError, match="strong unit"):
                    IntervalPea(desc, p)
    assert weak >= 40


@pytest.mark.parametrize("level", ["rdp0", "rdp", "rdp1", "rdp2"])
def test_oracle_finds_a_table_wherever_the_solver_does(level):
    # both directions: the solver answers every instance with a verified
    # table, so it answers wherever the oracle finds one, and its c11 lies in
    # the oracle's window once the box holds c11.  The oracle checks a found
    # table for the side condition only, so it must return what the
    # reference that verifies every candidate in full returns, and its table
    # must verify.  At rdp2 the only table has c11 = a1 ^ b1, the top of the
    # window, so both walk all of it; five grid coordinates, as at the other
    # levels, keep the two walks at about three seconds.
    side = {"rdp0": {None}, "rdp": {None}, "rdp1": {"holds"}, "rdp2": {"holds"}}
    rng = random.Random(800)
    checked = non_scalar_heads = partial_lex = 0
    while checked < 300:
        desc = discrete_descriptor(rng, rng.randint(1, 3))
        if len(grid_coords(desc, desc.zero())) > 5:
            continue
        non_scalar_heads += any(not isinstance(h, g.Scalar) for h, _ in lex_parts(desc))
        partial_lex += isinstance(desc, g.Lex) and not desc.is_linearly_ordered()
        a1, a2 = sample_positive(desc, rng, 4), sample_positive(desc, rng, 4)
        total = g.add(desc, a1, a2)
        b1 = sample_interval(desc, total, rng, 4)
        b2 = g.sub_left(desc, b1, total)
        table = rdp_decompose(desc, a1, a2, b1, b2, level=level)
        assert rdp_table_verify(desc, a1, a2, b1, b2, table, level=level).ok
        box = max(abs(k) for k in grid_coords(desc, table.c11))
        oracle = rdp_oracle_search(desc, a1, a2, b1, b2, level=level, box=box)
        assert oracle.found
        assert oracle == verified_oracle_search(desc, a1, a2, b1, b2, level=level, box=box)
        res = rdp_table_verify(desc, a1, a2, b1, b2, oracle.table, level=level)
        assert res.ok and res.side_condition in side[level]
        checked += 1
    assert non_scalar_heads >= 30 and partial_lex >= 30


def refinement_instance(desc, rng, bound):
    """Positive a1, a2 and a random split of their sum into b1 + b2."""
    a1, a2 = sample_positive(desc, rng, bound), sample_positive(desc, rng, bound)
    total = g.add(desc, a1, a2)
    b1 = sample_interval(desc, total, rng, bound)
    return a1, a2, b1, g.sub_left(desc, b1, total)


def answered_by_case_table(desc, level):
    """Whether some lex node of the tree takes the paper's case analysis at this level."""
    if uses_case_table(desc, level):
        return True
    return any(answered_by_case_table(part, level) for part in getattr(desc, "parts", ()))


@pytest.mark.parametrize("level", ["rdp0", "rdp", "rdp1"])
def test_paper_case_tables_verify_on_every_tree(level):
    # at rdp1 the case analysis answers only lex nodes over an Abelian bottom;
    # a tree without one would only repeat the solver's table
    rng = random.Random(f"case-{level}")
    checked = differ = 0
    for desc in TREES:
        if not answered_by_case_table(desc, level):
            continue
        for _ in range(10):
            inst = refinement_instance(desc, rng, 6)
            table = case_table(desc, *inst, level=level)
            assert rdp_table_verify(desc, *inst, table, level=level).ok
            differ += table.entries() != rdp_decompose(desc, *inst, level=level).entries()
            checked += 1
    assert checked >= 150 and differ >= 10
