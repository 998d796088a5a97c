"""Finite and interval pseudo effect algebras."""

import random
from fractions import Fraction

import pytest

from ordalg import groups as g
from ordalg.errors import PreconditionError
from ordalg.pea import (
    FinitePea,
    IntervalPea,
    boolean_algebra,
    check_interval_axioms_sampled,
    check_pea_axioms,
    cyclic_elements,
    cyclic_exchange_check,
    finite_chain,
    ideals_enumerate,
    infinitesimals,
    is_symmetric,
)
from ordalg.scalars import ScalarSubgroup
from ordalg.states import FiniteState, states_finite

Z = g.ZZ
Q = g.QQ
AFF = g.AffineQ()


def f(x):
    return Fraction(x)


def chain_table(n):
    return {(i, j): i + j for i in range(n + 1) for j in range(n + 1) if i + j <= n}


def test_chain_c3_valid():
    verdict = check_pea_axioms(3, 0, 2, chain_table(2))
    assert verdict.valid


def test_boolean_4_valid():
    E = boolean_algebra(2)
    assert E.size == 4


def test_missing_complement_fails_pe2():
    table = chain_table(2)
    del table[(1, 1)]  # drop a + a = 1, leaving a with no complement
    verdict = check_pea_axioms(3, 0, 2, table)
    assert not verdict.valid
    assert verdict.failure.axiom == "PE2"
    assert verdict.failure.witness == (1,)


def test_chain_derived_negations():
    E = finite_chain(2)  # 0 < a < 1 with a + a = 1
    assert E.lneg(1) == 1 and E.rneg(1) == 1


def test_interval_lex_negation():
    E = IntervalPea(g.Lex(Q, Z), (f(1), f(0)))
    got = E.lneg((Fraction(1, 3), f(5)))
    assert got == (Fraction(2, 3), f(-5))


def test_lneg_of_zero_is_one():
    for E in (finite_chain(3), boolean_algebra(2)):
        assert E.lneg(E.zero) == E.one
    EI = IntervalPea(g.Lex(Q, Z), (f(1), f(0)))
    assert EI.lneg(EI.zero) == EI.one


def test_derived_order_agrees_both_sides():
    for E in (finite_chain(4), boolean_algebra(3)):
        for a in E.elements():
            for b in E.elements():
                right = any(E.add(a, c) == b for c in E.elements())
                assert E.leq(a, b) == right
        assert all(E.leq(E.zero, a) and E.leq(a, E.one) for a in E.elements())


# tables that skip the axiom check, each tripping one self-check of FinitePea
SELF_CHECK_FAILURES = [
    (2, {(0, 0): 0, (0, 1): 0, (1, 0): 1}, "derived order lost its bounds"),
    (2, {(0, 0): 0, (0, 1): 1, (1, 0): 0}, r"derived order not antisymmetric at \(0, 1\)"),
    (2, {(0, 0): 1, (0, 1): 0, (1, 0): 1}, r"left/right order disagree at \(0, 0\)"),
    (2, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}, "left cancellation fails at 1"),
    (3, {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (1, 1): 2, (2, 0): 2, (2, 1): 2},
     "right cancellation fails at 1"),
]


@pytest.mark.parametrize("size, table, message", SELF_CHECK_FAILURES)
def test_self_checks_name_the_failure(size, table, message):
    with pytest.raises(AssertionError, match=message):
        FinitePea(size, 0, size - 1, table, _validated=True)


def test_ideals_of_chain():
    E = finite_chain(2)
    report = ideals_enumerate(E)
    sets = {info.members for info in report.ideals}
    assert sets == {frozenset({0}), frozenset({0, 1, 2})}
    assert report.radical == frozenset({0})
    maximal = [info.members for info in report.ideals if info.maximal]
    assert maximal == [frozenset({0})]


def test_ideals_of_boolean_square():
    E = boolean_algebra(2)  # elements 0, 1=x, 2=x', 3=1
    report = ideals_enumerate(E)
    sets = {info.members for info in report.ideals}
    assert sets == {
        frozenset({0}),
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({0, 1, 2, 3}),
    }
    assert report.radical == frozenset({0})


def test_zero_ideal_always_present():
    for E in (finite_chain(3), boolean_algebra(3)):
        report = ideals_enumerate(E)
        assert frozenset({E.zero}) in {i.members for i in report.ideals}


def test_infinitesimals_finite():
    assert infinitesimals(finite_chain(2)) == {0}
    assert infinitesimals(boolean_algebra(2)) == {0}


def test_infinitesimals_symbolic():
    E = IntervalPea(g.Lex(Z, Z), (f(1), f(0)))
    info = infinitesimals(E)
    assert info.contains((f(0), f(5)))
    assert not info.contains((f(1), f(0)))
    assert not info.contains((f(0), f(-2)))


def test_states_chain_unique():
    E = finite_chain(2)
    vertices = states_finite(E)
    assert len(vertices) == 1
    assert vertices[0].values == (Fraction(0), Fraction(1, 2), Fraction(1))


def test_states_boolean_square_two_extremal():
    E = boolean_algebra(2)
    vertices = states_finite(E)
    assert len(vertices) == 2
    values = {v.values for v in vertices}
    assert values == {
        (Fraction(0), Fraction(0), Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(0), Fraction(1)),
    }


def test_states_trivial_algebra():
    E = finite_chain(1)  # only 0 and 1
    vertices = states_finite(E)
    assert len(vertices) == 1
    assert vertices[0].values == (Fraction(0), Fraction(1))


def test_states_boolean_cube_three_extremal():
    vertices = states_finite(boolean_algebra(3))
    assert len(vertices) == 3


def test_state_negation_identity_and_kernel_normal():
    for E in (finite_chain(3), boolean_algebra(2), boolean_algebra(3)):
        report = ideals_enumerate(E)
        normal_ideals = {i.members for i in report.ideals if i.normal}
        for s in states_finite(E):
            for a in E.elements():
                assert s(E.lneg(a)) == 1 - s(a)
            assert s.kernel() in normal_ideals


def test_interval_axioms_sampled():
    rng = random.Random(5)
    H2 = ScalarSubgroup.quadratic(2)
    cases = [
        IntervalPea(g.Lex(Q, Z), (f(1), f(0))),
        IntervalPea(g.Lex(Z, g.IntVector(2)), (f(1), (0, 0))),
        IntervalPea(g.Lex(Z, AFF), (f(1), (f(2), f(0)))),
        IntervalPea(g.IntVector(2), (2, 3)),
        IntervalPea(g.Lex(g.Scalar(H2), Z), (H2.one(), f(0))),
    ]
    for E in cases:
        assert check_interval_axioms_sampled(E, rng) is None


def test_cyclic_elements_chain():
    E = IntervalPea(g.ZZ, Fraction(2))  # Gamma(Z, 2): the 3-element chain
    found = cyclic_elements(E, 2)
    assert len(found) == 1
    assert found[0].element == f(1) and found[0].strong


def test_cyclic_elements_lex_rationals():
    E = IntervalPea(g.Lex(Q, Z), (f(1), f(0)))
    found = cyclic_elements(E, 3)
    assert len(found) == 1
    assert found[0].element == (Fraction(1, 3), f(0))
    assert found[0].strong


def test_cyclic_elements_quadratic_head_empty():
    H = ScalarSubgroup.quadratic(2)
    E = IntervalPea(g.Lex(g.Scalar(H), Z), (H.one(), f(0)))
    assert cyclic_elements(E, 2) == []
    only = cyclic_elements(E, 1)
    assert len(only) == 1 and only[0].element == E.one


def test_symmetry_boolean():
    assert is_symmetric(boolean_algebra(2)).symmetric


def test_symmetry_lex_affine_depends_on_unit_tail():
    bad = IntervalPea(g.Lex(Z, AFF), (f(1), (f(2), f(0))))
    verdict = is_symmetric(bad)
    assert not verdict.symmetric
    x = verdict.witness
    assert bad.lneg(x) != bad.rneg(x)
    good = IntervalPea(g.Lex(Z, AFF), (f(1), (f(1), f(0))))
    assert is_symmetric(good).symmetric


def test_cyclic_exchange_finite_exhaustive():
    E = finite_chain(2)
    verdict = cyclic_exchange_check(E, 1)
    assert verdict.holds and verdict.exhaustive


def test_cyclic_exchange_one():
    E = finite_chain(3)
    verdict = cyclic_exchange_check(E, E.one)
    assert verdict.holds


def test_cyclic_exchange_interval_sampled():
    E = IntervalPea(g.Lex(Q, Z), (f(1), f(0)))
    verdict = cyclic_exchange_check(E, (Fraction(1, 2), f(0)), samples=200)
    assert verdict.holds


def test_exchange_requires_cyclic():
    E = IntervalPea(g.Lex(Q, Z), (f(1), f(0)))
    with pytest.raises(PreconditionError):
        cyclic_exchange_check(E, (Fraction(1, 3), f(5)), max_order=8)
