"""Value types at the scalar leaves: Z holds ``int``, the other rationals ``Fraction``.

Inputs are given with Fraction leaves, as the parser produces them; every
rule that returns an element must hand back exact ``int`` values at each
leaf of the subgroup Z, and ``Fraction`` values at each leaf of (1/n)Z for
n >= 2 and of Q, through the group operations, the samplers, the
constructive solver and the exhaustive oracle.
"""

import random
from fractions import Fraction

import pytest

from ordalg import groups as g
from ordalg.parsing import parse_element
from ordalg.riesz import rdp_decompose, rdp_oracle_search
from ordalg.sampling import sample_element, sample_interval, sample_positive
from ordalg.scalars import ScalarSubgroup, grid_points, pick_strictly_between
from test_riesz import random_instance

Z, Q = g.ZZ, g.QQ
Z2 = g.IntVector(2)
AFF = g.AffineQ()
DESCS = {
    "Z": Z,
    "lex(Z, Z)": g.Lex(Z, Z),
    "lex(Z, Z^2)": g.Lex(Z, Z2),
    "prod(Z, Z^2)": g.Product(Z, Z2),
    "lex(Q, Z)": g.Lex(Q, Z),
    "lex(Z, Aff)": g.Lex(Z, AFF),
}
# the trees the oracle enumerates
DISCRETE = ("Z", "lex(Z, Z)", "lex(Z, Z^2)", "prod(Z, Z^2)")


def scalar_leaves(desc, x):
    """(H, value) for every scalar leaf of x."""
    if isinstance(desc, g.Scalar):
        yield desc.H, x
    elif isinstance(desc, (g.Lex, g.Product)):
        for part, v in zip(desc.parts, x):
            yield from scalar_leaves(part, v)


def assert_value_types(desc, *xs):
    for x in xs:
        for H, v in scalar_leaves(desc, x):
            want = int if H == ScalarSubgroup.cyclic(1) else Fraction
            assert type(v) is want, (str(desc), x)


def as_fractions(desc, x):
    """x with every scalar leaf turned into a Fraction, as parsed values are."""
    if isinstance(desc, g.Scalar):
        return Fraction(x)
    if isinstance(desc, (g.Lex, g.Product)):
        return tuple(as_fractions(part, v) for part, v in zip(desc.parts, x))
    return x


@pytest.mark.parametrize("name", DESCS)
def test_z_leaves_stay_int_through_group_operations(name):
    desc = DESCS[name]
    rng = random.Random(131)
    zero = desc.zero()
    assert_value_types(desc, zero, desc.a_positive_element() if desc.is_linearly_ordered() else zero)
    for _ in range(40):
        x, y = sample_element(desc, rng, 6), sample_element(desc, rng, 6)
        p = sample_positive(desc, rng, 6)
        assert_value_types(desc, x, y, p, sample_interval(desc, p, rng, 6))
        x = g.check_element(desc, as_fractions(desc, x))
        y = g.check_element(desc, as_fractions(desc, y))
        assert_value_types(desc, x, y, parse_element(desc, desc.format_element(x)))
        assert_value_types(
            desc,
            g.add(desc, x, y),
            g.neg(desc, x),
            g.sub_left(desc, x, y),
            desc.meet(x, y),
            g.lower_bound(desc, [x, y]),
            *(desc.scale(x, n) for n in range(-3, 4)),
            *(g.divide(desc, desc.scale(x, n), n) for n in (1, 2, 3)),
        )
        if name in DISCRETE:
            walk = desc.iter_bounded([zero], [g.add(desc, p, p)], 3)
            assert_value_types(desc, *(v for _, v in zip(range(50), walk)))


def test_scalar_rules_return_int_on_z_and_fractions_elsewhere():
    rng = random.Random(7)
    lo, hi = Fraction(-3, 2), Fraction(7, 3)
    for H, want in (
        (ScalarSubgroup.cyclic(1), int),
        (ScalarSubgroup.cyclic(2), Fraction),
        (ScalarSubgroup.cyclic(3), Fraction),
        (ScalarSubgroup.rationals(), Fraction),
    ):
        desc = g.Scalar(H)
        values = [H.zero(), H.one(), H.coerce(1), H.coerce(Fraction(4)), g.check_element(desc, 2)]
        values += [pick_strictly_between(H, lo, hi), pick_strictly_between(H, 0, 1 + H.one())]
        values += grid_points(H) + [H.sample(rng, 5) for _ in range(20)]
        values += [H.sample_between(0, 3, rng) for _ in range(20)]
        values += [g.divide(desc, H.coerce(6), 3), desc.a_positive_element()]
        assert all(type(v) is want for v in values), (str(H), values)
    # non-integer values of (1/n)Z and Q are Fractions, and Z keeps them out
    assert Z.divide(3, 2) is None
    assert g.check_element(g.Scalar(ScalarSubgroup.cyclic(2)), Fraction(1, 2)) == Fraction(1, 2)
    assert type(g.divide(Q, Q.H.coerce(1), 3)) is Fraction


@pytest.mark.parametrize("name", DESCS)
@pytest.mark.parametrize("level", ["rdp0", "rdp", "rdp1", "rdp2"])
def test_z_leaves_are_int_in_solver_tables(name, level):
    desc = DESCS[name]
    rng = random.Random(17)
    for _ in range(25):
        inst = [as_fractions(desc, v) for v in random_instance(desc, rng, 6)]
        assert_value_types(desc, *rdp_decompose(desc, *inst, level=level).entries())


def test_z_leaves_are_int_on_the_dense_head_path():
    # all four heads strictly positive in Q: the instance is solved inside
    # lex(Z, Z) after scaling the heads to integers
    desc = DESCS["lex(Q, Z)"]
    q = Fraction
    a1, a2, b1 = (q(1, 2), q(3)), (q(1, 3), q(-1)), (q(1, 4), q(5))
    b2 = g.sub_left(desc, b1, g.add(desc, a1, a2))
    table = rdp_decompose(desc, a1, a2, b1, b2, level="rdp")
    assert all(c[0] > 0 for c in (a1, a2, b1, b2))
    assert_value_types(desc, *table.entries())


@pytest.mark.parametrize("name", DISCRETE)
def test_z_leaves_are_int_in_oracle_tables(name):
    desc = DESCS[name]
    rng = random.Random(23)
    for _ in range(20):
        inst = [as_fractions(desc, v) for v in random_instance(desc, rng, 4)]
        res = rdp_oracle_search(desc, *inst, box=30)
        assert res.found
        assert_value_types(desc, *res.table.entries())
