"""Riesz decomposition tables, interpolation and the exhaustive oracle."""

import random
from fractions import Fraction

import pytest

from ordalg import groups as g
from ordalg.errors import PreconditionError, ShapeError, UnsupportedError
from ordalg.riesz import (
    DecompositionTable,
    check_instance,
    rdp_decompose,
    rdp_oracle_search,
    rdp_table_verify,
    rip_interpolate,
)
from ordalg.sampling import sample_interval, sample_positive
from ordalg.scalars import QuadraticNumber, ScalarSubgroup

from lex_tables import case_table
from reference_oracle import verified_oracle_search
from test_properties import TREES

Z = g.ZZ
Q = g.QQ
Z2 = g.IntVector(2)
AFF = g.AffineQ()
LEX_ZZ = g.Lex(Z, Z)
LEX_QZ2 = g.Lex(Q, Z2)
LEX_S2Z2 = g.Lex(g.Scalar(ScalarSubgroup.quadratic(2)), Z2)


def f(x):
    return Fraction(x)


def random_instance(desc, rng, bound=10):
    """Positive a1, a2 and a random split of their sum into b1 + b2."""
    a1 = sample_positive(desc, rng, bound)
    a2 = sample_positive(desc, rng, bound)
    total = g.add(desc, a1, a2)
    b1 = sample_interval(desc, total, rng, bound)
    b2 = g.sub_left(desc, b1, total)  # -b1 + total
    return a1, a2, b1, b2


def test_lex_case_table_matches_head_positive_construction():
    a1, a2 = (f(3), f(7)), (f(0), f(4))
    b1, b2 = (f(1), f(2)), (f(2), f(9))
    table = case_table(LEX_ZZ, a1, a2, b1, b2)
    assert table.entries() == ((f(1), f(2)), (f(2), f(5)), (f(0), f(0)), (f(0), f(4)))
    # four-sum oracle, computed independently of the construction
    assert g.add(LEX_ZZ, table.c11, table.c12) == a1
    assert g.add(LEX_ZZ, table.c21, table.c22) == a2
    assert g.add(LEX_ZZ, table.c11, table.c21) == b1
    assert g.add(LEX_ZZ, table.c12, table.c22) == b2


def test_degenerate_instance_any_descriptor():
    for desc in (Z2, LEX_ZZ, AFF):
        rng = random.Random(1)
        x = sample_positive(desc, rng, 5)
        zero = desc.zero()
        table = rdp_decompose(desc, x, zero, x, zero)
        assert table.c11 == x
        assert table.c12 == zero and table.c21 == zero and table.c22 == zero


def test_lex_zero_second_heads_uses_directedness_witness():
    a1, a2 = (f(1), f(2)), (f(0), f(3))
    b1, b2 = (f(1), f(5)), (f(0), f(0))
    # d = min(2, 5) = 2 in the bottom copy of the integers
    assert g.lower_bound(Z, [f(2), f(5)]) == f(2)
    table = case_table(LEX_ZZ, a1, a2, b1, b2)
    assert table.entries() == ((f(1), f(2)), (f(0), f(0)), (f(0), f(3)), (f(0), f(0)))


def test_verify_accepts_case_table_and_rejects_corruption():
    a1, a2 = (f(3), f(7)), (f(0), f(4))
    b1, b2 = (f(1), f(2)), (f(2), f(9))
    table = case_table(LEX_ZZ, a1, a2, b1, b2)
    ok = rdp_table_verify(LEX_ZZ, a1, a2, b1, b2, table)
    assert ok.ok
    bad = DecompositionTable(table.c11, (f(2), f(4)), table.c21, table.c22, "rdp")
    res = rdp_table_verify(LEX_ZZ, a1, a2, b1, b2, bad)
    assert not res.ok and res.reason == "row 1 sum"



def test_verify_rejects_non_member_entries():
    # four halves sum correctly to (1, 0), but 1/2 is not an integer head
    half = (Fraction(1, 2), f(0))
    one = (f(1), f(0))
    table = DecompositionTable(half, half, half, half, "rdp")
    res = rdp_table_verify(LEX_ZZ, one, one, one, one, table)
    assert not res.ok
    assert res.reason == "c11 is not an element of lex(Z, Z)"

def test_affine_min_table_is_rdp2():
    a1, a2 = (f(2), f(0)), (f(3), f(1))
    b1 = (f(3), f(1))
    b2 = g.sub_left(AFF, b1, g.add(AFF, a1, a2))  # -b1 + (a1 + a2)
    assert b2 == (f(2), Fraction(1, 3))
    table = rdp_decompose(AFF, a1, a2, b1, b2, level="rdp2")
    res = rdp_table_verify(AFF, a1, a2, b1, b2, table, level="rdp2")
    assert res.ok
    assert AFF.meet(table.c12, table.c21) == AFF.zero()


def test_sum_mismatch_rejected():
    with pytest.raises(PreconditionError):
        check_instance(Z2, (1, 0), (0, 1), (1, 1), (1, 1))


def test_nonpositive_rejected():
    with pytest.raises(PreconditionError):
        rdp_decompose(Z2, (-1, 0), (1, 1), (0, 1), (0, 0))


def test_non_members_of_z_rejected():
    half, third = Fraction(1, 2), Fraction(1, 3)
    with pytest.raises(ShapeError):
        rdp_decompose(LEX_ZZ, (half, f(0)), (half, f(0)), (third, f(0)), (1 - third, f(0)),
                      level="rdp1")


@pytest.mark.parametrize(
    "desc,seed,rounds",
    [
        (Z2, 31, 300),
        (LEX_ZZ, 33, 300),
        (g.Lex(Z, Z2), 35, 200),
        (AFF, 37, 200),
        (g.Product(Z2, Z), 39, 150),
        (g.Lex(Z, AFF), 41, 150),
        (LEX_QZ2, 43, 150),
        (LEX_S2Z2, 45, 80),
        (g.Lex(Z, g.Product(Z, Z2)), 47, 100),
    ],
)
def test_decompose_soundness_randomized(desc, seed, rounds):
    rng = random.Random(seed)
    for _ in range(rounds):
        a1, a2, b1, b2 = random_instance(desc, rng, 8)
        table = rdp_decompose(desc, a1, a2, b1, b2)
        assert rdp_table_verify(desc, a1, a2, b1, b2, table).ok


def test_abelian_tables_certify_rdp1():
    rng = random.Random(51)
    for desc in (LEX_ZZ, g.Lex(Z, Z2), LEX_QZ2):
        for _ in range(150):
            a1, a2, b1, b2 = random_instance(desc, rng, 8)
            table = rdp_decompose(desc, a1, a2, b1, b2, level="rdp1")
            res = rdp_table_verify(desc, a1, a2, b1, b2, table, level="rdp1")
            assert res.ok and res.side_condition == "holds"


def test_quadratic_dense_heads():
    rng = random.Random(55)
    for _ in range(40):
        a1, a2, b1, b2 = random_instance(LEX_S2Z2, rng, 5)
        table = rdp_decompose(LEX_S2Z2, a1, a2, b1, b2, level="rdp1")
        res = rdp_table_verify(LEX_S2Z2, a1, a2, b1, b2, table, level="rdp1")
        assert res.ok and res.side_condition == "holds"


def test_linear_min_tables_have_zero_meet():
    # on total orders the meet table is the min refinement; lattice orders
    # (a partial lex bottom, a product, a non-Abelian lex bottom) share it,
    # and so does every seeded property tree at every level, where the
    # table verifies with the level's side condition holding
    rng = random.Random(57)
    for desc in (
        Z,
        Q,
        AFF,
        g.Scalar(ScalarSubgroup.quadratic(2)),
        g.Lex(Z, Z2),
        g.Product(Z, Z2),
        g.Lex(Z, g.Product(AFF, Z)),
    ):
        for _ in range(100):
            a1, a2, b1, b2 = random_instance(desc, rng, 9)
            table = rdp_decompose(desc, a1, a2, b1, b2, level="rdp2")
            assert desc.meet(table.c12, table.c21) == desc.zero()
    for desc in TREES:
        for level in ("rdp0", "rdp", "rdp1", "rdp2"):
            for _ in range(3):
                a1, a2, b1, b2 = random_instance(desc, rng, 6)
                table = rdp_decompose(desc, a1, a2, b1, b2, level=level)
                assert desc.meet(table.c12, table.c21) == desc.zero()
                res = rdp_table_verify(desc, a1, a2, b1, b2, table, level=level)
                assert res.ok
                assert res.side_condition == ("holds" if level in ("rdp1", "rdp2") else None)


def test_lex_rdp2_on_partial_bottom_gets_a_verified_table():
    desc = g.Lex(Z, Z2)
    a1, a2 = (f(1), (0, 0)), (f(0), (1, 1))
    b1, b2 = (f(1), (1, 1)), (f(0), (0, 0))
    table = rdp_decompose(desc, a1, a2, b1, b2, level="rdp2")
    # c11 = a1 ^ b1 = (1, (0, 0)) leaves the whole tail gap to c21
    assert table.entries() == (a1, (f(0), (0, 0)), (f(0), (1, 1)), (f(0), (0, 0)))
    res = rdp_table_verify(desc, a1, a2, b1, b2, table, level="rdp2")
    assert res.ok and res.side_condition == "holds"


def test_lex_rdp1_on_non_abelian_partial_bottom_holds():
    rng = random.Random(58)
    desc = g.Lex(Z, g.Product(AFF, Z))
    for _ in range(60):
        a1, a2, b1, b2 = random_instance(desc, rng, 6)
        table = rdp_decompose(desc, a1, a2, b1, b2, level="rdp1")
        res = rdp_table_verify(desc, a1, a2, b1, b2, table, level="rdp1")
        assert res.ok and res.side_condition == "holds"


def test_rdp0_level_accepted():
    table = rdp_decompose(Z2, (1, 2), (3, 0), (2, 1), (2, 1), level="rdp0")
    assert rdp_table_verify(Z2, (1, 2), (3, 0), (2, 1), (2, 1), table, level="rdp0").ok


def test_lex_affine_rdp1_uses_min_refinement():
    desc = g.Lex(Z, AFF)
    a1 = (f(2), (f(2), f(0)))
    a2 = (f(1), (f(3), f(1)))
    b1 = (f(1), (f(2), f(1)))
    total = g.add(desc, a1, a2)
    b2 = g.sub_left(desc, b1, total)
    table = rdp_decompose(desc, a1, a2, b1, b2, level="rdp1")
    res = rdp_table_verify(desc, a1, a2, b1, b2, table, level="rdp1")
    assert res.ok and res.side_condition == "holds"
    zero = desc.zero()
    assert table.c12 == zero or table.c21 == zero


def test_rdp1_certification_of_commuting_translations_holds():
    # off-diagonal entries bounded by commuting affine translations: every
    # pair below them commutes, although the intervals are infinite
    desc = g.Lex(Z, AFF)
    c11 = (f(0), (f(1), f(1)))
    c12 = (f(0), (f(1), f(2)))
    c21 = (f(0), (f(1), f(3)))
    c22 = (f(1), (f(2), f(5)))
    a1 = g.add(desc, c11, c12)
    a2 = g.add(desc, c21, c22)
    b1 = g.add(desc, c11, c21)
    b2 = g.add(desc, c12, c22)
    assert g.add(desc, a1, a2) == g.add(desc, b1, b2)
    table = DecompositionTable(c11, c12, c21, c22, "rdp1")
    res = rdp_table_verify(desc, a1, a2, b1, b2, table, level="rdp1")
    assert res.ok and res.side_condition == "holds"


def test_rdp1_product_side_condition_decided_per_part():
    # the case table of a seeded instance whose rdp1 verdict was
    # "inconclusive" while the product was sampled as a whole: the first part
    # is Abelian and the second part's c21 is zero, so each part's pair
    # commutes, although the first part's c12 ^ c21 = c21 = (0, (3, 0)) is not zero
    desc = g.Product(g.Lex(Q, g.IntVector(2)), g.Lex(Q, AFF))
    q = Fraction
    a1 = ((q(3, 2), (0, 4)), (q(1, 3), (q(1, 2), q(0))))
    a2 = ((q(5, 4), (1, 3)), (q(0), (q(5), q(-5, 2))))
    b1 = ((q(11, 64), (3, 3)), (q(1, 8), (q(1), q(1, 3))))
    b2 = ((q(165, 64), (-2, 4)), (q(5, 24), (q(5, 2), q(-19, 12))))
    c11 = ((q(11, 64), (0, 3)), (q(1, 8), (q(1), q(1, 3))))
    c12 = ((q(85, 64), (0, 1)), (q(5, 24), (q(1, 2), q(-1, 3))))
    c21 = ((q(0), (3, 0)), (q(0), (q(1), q(0))))
    c22 = ((q(5, 4), (-2, 3)), (q(0), (q(5), q(-5, 2))))
    table = DecompositionTable(c11, c12, c21, c22, "rdp1")
    assert case_table(desc, a1, a2, b1, b2, level="rdp1") == table
    assert desc.meet(c12, c21) != desc.zero()
    res = rdp_table_verify(desc, a1, a2, b1, b2, table, level="rdp1")
    assert res.ok and res.side_condition == "holds"


def test_rdp1_certification_detects_noncommuting_table():
    # the case table at rdp for this instance has genuinely non-commuting
    # off-diagonal entries; the solver's meet table has disjoint ones
    desc = g.Lex(Z, AFF)
    a1 = (f(2), (f(2), f(0)))
    a2 = (f(1), (f(3), f(1)))
    b1 = (f(1), (f(2), f(1)))
    total = g.add(desc, a1, a2)
    b2 = g.sub_left(desc, b1, total)
    table = case_table(desc, a1, a2, b1, b2, level="rdp")
    res = rdp_table_verify(desc, a1, a2, b1, b2, table, level="rdp1")
    assert not res.ok and "com" in res.reason
    table = rdp_decompose(desc, a1, a2, b1, b2, level="rdp1")
    res = rdp_table_verify(desc, a1, a2, b1, b2, table, level="rdp1")
    assert res.ok and res.side_condition == "holds"


def test_oracle_not_found_within_box():
    # every witness needs a tail coordinate beyond the box
    a1 = (f(1), f(50))
    a2 = (f(0), f(0))
    b1 = (f(1), f(50))
    b2 = (f(0), f(0))
    res = rdp_oracle_search(LEX_ZZ, a1, a2, b1, b2, box=10)
    assert not res.found
    assert rdp_oracle_search(LEX_ZZ, a1, a2, b1, b2, box=60).found


def test_oracle_agreement_lex_zz():
    rng = random.Random(59)
    for _ in range(200):
        a1, a2, b1, b2 = random_instance(LEX_ZZ, rng, 10)
        table = rdp_decompose(LEX_ZZ, a1, a2, b1, b2)
        assert rdp_table_verify(LEX_ZZ, a1, a2, b1, b2, table).ok
        oracle = rdp_oracle_search(LEX_ZZ, a1, a2, b1, b2, box=45)
        assert oracle.found


def test_oracle_agreement_lex_zz2():
    rng = random.Random(61)
    desc = g.Lex(Z, Z2)
    for _ in range(100):
        a1, a2, b1, b2 = random_instance(desc, rng, 5)
        table = rdp_decompose(desc, a1, a2, b1, b2)
        assert rdp_table_verify(desc, a1, a2, b1, b2, table).ok
        assert rdp_oracle_search(desc, a1, a2, b1, b2, box=15).found


WINDOW_DESCS = [
    Z,
    g.Scalar(ScalarSubgroup.cyclic(2)),
    Z2,
    LEX_ZZ,
    g.Lex(g.Scalar(ScalarSubgroup.cyclic(3)), Z),
    g.Lex(Z, Z2),
    g.Product(Z, g.Scalar(ScalarSubgroup.cyclic(2))),
    g.Lex(Z, LEX_ZZ),
    g.Product(LEX_ZZ, Z),
]


def test_oracle_window_returns_the_zero_window_table():
    rng = random.Random(71)
    outcomes = set()
    for desc in WINDOW_DESCS:
        for _ in range(8):
            a1, a2, b1, b2 = random_instance(desc, rng, 4)
            for level in ("rdp", "rdp1", "rdp2"):
                for box in (2, 6):
                    res = rdp_oracle_search(desc, a1, a2, b1, b2, level=level, box=box)
                    assert res == verified_oracle_search(
                        desc, a1, a2, b1, b2, level=level, box=box, from_zero=True
                    )
                    outcomes.add(res.found)
    assert outcomes == {True, False}


def test_oracle_finds_a_deep_head():
    # every c11 has head 50, so the window starts there
    a1, a2, b1, b2 = (f(50), f(3)), (f(0), f(7)), (f(50), f(5)), (f(0), f(5))
    res = rdp_oracle_search(LEX_ZZ, a1, a2, b1, b2, box=60)
    assert res.found and res.table.c11 == (f(50), f(0))


def test_oracle_swap_instance():
    res = rdp_oracle_search(Z2, (1, 0), (0, 1), (0, 1), (1, 0))
    assert res.found
    assert res.table.c11 == (0, 0)


def test_oracle_rejects_dense():
    with pytest.raises(UnsupportedError):
        rdp_oracle_search(Q, f(1), f(1), f(1), f(1))


def test_interpolate_total_order():
    assert rip_interpolate(Q, f(0), Fraction(1, 3), Fraction(1, 2), f(2)) == Fraction(1, 3)


def test_interpolate_vectors():
    c = rip_interpolate(Z2, (0, 1), (1, 0), (2, 1), (1, 2))
    assert c == (1, 1)
    for lo in ((0, 1), (1, 0)):
        assert g.leq(Z2, lo, c)
    for hi in ((2, 1), (1, 2)):
        assert g.leq(Z2, c, hi)


def test_interpolate_lex_head_gap():
    c = rip_interpolate(g.Lex(Q, Z), (f(0), f(5)), (f(0), f(7)), (f(1), f(-3)), (f(1), f(-9)))
    assert c == (Fraction(1, 2), f(0))


def test_interpolate_precondition():
    with pytest.raises(PreconditionError):
        rip_interpolate(Z2, (5, 5), (0, 0), (1, 1), (2, 2))


def test_interpolate_randomized_bounds():
    rng = random.Random(63)
    for desc in (Z2, LEX_ZZ, g.Lex(Q, Z2), AFF):
        for _ in range(80):
            a1 = sample_positive(desc, rng, 5)
            a2 = sample_positive(desc, rng, 5)
            up = g.add(desc, g.join(desc, a1, a2), sample_positive(desc, rng, 3))
            b1 = up
            b2 = g.add(desc, up, sample_positive(desc, rng, 3))
            c = rip_interpolate(desc, a1, a2, b1, b2)
            assert g.leq(desc, a1, c) and g.leq(desc, a2, c)
            assert g.leq(desc, c, b1) and g.leq(desc, c, b2)
