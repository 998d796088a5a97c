"""Slice decompositions, their laws, and perfectness classification."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from ordalg import decomp, states
from ordalg import groups as g
from ordalg.decomp import (
    CyclicSystem,
    FiniteDecomposition,
    LexDecomposition,
    PerfectReport,
    check_ordered,
    check_type_i,
    classify_perfect,
    decomposition_from_state,
    find_cyclic_system,
    state_from_decomposition,
)
from ordalg.errors import PreconditionError
from ordalg.pea import (
    FinitePea,
    IntervalPea,
    SymmetryVerdict,
    boolean_algebra,
    check_pea_axioms,
    cyclic_elements,
    finite_chain,
    ideals_enumerate,
    is_symmetric,
)
from ordalg.scalars import Ordering, QuadraticNumber, ScalarSubgroup, compare, grid_points
from ordalg.states import FiniteState, FirstCoordinateState, states_finite

import finite_slices as ref
from lex_probes import lex_type_ii_violation
from test_pea import cycle_table, hsum_table, mutate, relabel, stock_algebras, stock_tables
from test_states import horizontal_sum

Z = g.ZZ
Q = g.QQ
AFF = g.AffineQ()
H2 = ScalarSubgroup.cyclic(2)
H4 = ScalarSubgroup.cyclic(4)
HQ = ScalarSubgroup.rationals()
HR2 = ScalarSubgroup.quadratic(2)


def f(x):
    return Fraction(x)


def lex_pea(H, bottom, g0):
    return IntervalPea(g.Lex(g.Scalar(H), bottom), (H.one(), g0))


def test_chain_state_preimages():
    E = finite_chain(2)
    s = states_finite(E)[0]
    D = decomposition_from_state(E, s, H2)
    assert D.proper
    assert dict(D.slices) == {
        Fraction(0): frozenset({0}),
        Fraction(1, 2): frozenset({1}),
        Fraction(1): frozenset({2}),
    }


def test_state_outside_subgroup_is_error():
    E = finite_chain(2)
    s = states_finite(E)[0]  # s(a) = 1/2
    with pytest.raises(PreconditionError) as err:
        decomposition_from_state(E, s, ScalarSubgroup.cyclic(1))
    assert "1/2" in str(err.value)


def test_subset_variant_needs_flag():
    E = boolean_algebra(2)
    s = states_finite(E)[0]  # values {0, 1} only
    with pytest.raises(PreconditionError):
        decomposition_from_state(E, s, H2)
    D = decomposition_from_state(E, s, H2, allow_subset=True)
    assert not D.proper


def test_round_trip_finite():
    for E, H in ((finite_chain(2), H2), (finite_chain(4), H4), (boolean_algebra(2), ScalarSubgroup.cyclic(1))):
        for s in states_finite(E):
            try:
                D = decomposition_from_state(E, s, H)
            except PreconditionError:
                continue
            s2 = state_from_decomposition(E, D)
            assert s2.values == s.values


def test_lex_symbolic_decomposition():
    E = lex_pea(HQ, Z, f(0))
    D = decomposition_from_state(E, FirstCoordinateState(E), HQ)
    assert D.proper
    assert lex_type_ii_violation(D, random.Random(1)) is None
    s = state_from_decomposition(E, D)
    assert s((Fraction(1, 3), f(7))) == Fraction(1, 3)


def test_lex_wrong_subgroup_error():
    E = lex_pea(HQ, Z, f(0))
    with pytest.raises(PreconditionError):
        decomposition_from_state(E, FirstCoordinateState(E), ScalarSubgroup.cyclic(1))


def test_broken_decomposition_rejected():
    E = finite_chain(2)
    bad = FiniteDecomposition(
        H2,
        E,
        (
            (Fraction(0), frozenset({0, 1})),
            (Fraction(1, 2), frozenset()),
            (Fraction(1), frozenset({2})),
        ),
        True,
    )
    with pytest.raises(PreconditionError):
        state_from_decomposition(E, bad)


def test_check_ordered_finite_chain():
    E = finite_chain(2)
    D = decomposition_from_state(E, states_finite(E)[0], H2)
    report = check_ordered(E, D)
    assert report.ordered
    assert report.e0_matches_infinitesimals
    assert report.e0_normal
    assert report.slice_additivity_ok
    assert report.no_oversum_ok


def test_check_ordered_boolean_fails():
    E = boolean_algebra(2)
    s = states_finite(E)[0]
    D = decomposition_from_state(E, s, ScalarSubgroup.cyclic(1), allow_subset=True)
    # atoms with state one-half would be needed; with {0,1} values, the
    # nontrivial kernel makes slices incomparable
    report = check_ordered(E, D)
    assert not report.ordered


def test_check_ordered_lex_canonical():
    for E in (lex_pea(ScalarSubgroup.cyclic(1), Z, f(0)), lex_pea(HQ, Z, f(0))):
        D = decomposition_from_state(E, FirstCoordinateState(E), E.head_subgroup)
        report = check_ordered(E, D)
        assert report.ordered and report.defined_iff_ordered_agrees
        assert report.e0_matches_infinitesimals
        assert report.e0_normal
        assert report.slice_additivity_ok
        assert report.no_oversum_ok


def test_type_i_finite():
    E = finite_chain(2)
    D = decomposition_from_state(E, states_finite(E)[0], H2)
    report = check_type_i(E, D)
    assert report.is_type_i and report.e0_idempotent


def test_type_i_boolean_two_maximal_ideals():
    E = boolean_algebra(2)
    D = decomposition_from_state(
        E, states_finite(E)[0], ScalarSubgroup.cyclic(1), allow_subset=True
    )
    report = check_type_i(E, D)
    assert not report.e0_unique_maximal


def test_type_i_lex_probe():
    for E in (
        lex_pea(ScalarSubgroup.cyclic(1), Z, f(0)),
        lex_pea(HQ, Z, f(0)),
        lex_pea(H4, g.IntVector(2), (0, 0)),
        lex_pea(ScalarSubgroup.quadratic(2), Z, f(0)),
        lex_pea(ScalarSubgroup.cyclic(1), AFF, (f(2), f(0))),
    ):
        D = decomposition_from_state(E, FirstCoordinateState(E), E.head_subgroup)
        report = check_type_i(E, D)
        assert report.is_type_i, (E, report)


def test_cyclic_system_canonical():
    E = lex_pea(HQ, Z, f(0))
    D = decomposition_from_state(E, FirstCoordinateState(E), HQ)
    cyc = find_cyclic_system(E, D)
    assert cyc is not None and cyc.strong
    entries = dict(cyc.entries)
    assert entries[Fraction(1, 2)] == (Fraction(1, 2), f(0))


def test_cyclic_system_translated_unit():
    H = H4
    E = lex_pea(H, Z, f(4))
    D = decomposition_from_state(E, FirstCoordinateState(E), H)
    cyc = find_cyclic_system(E, D)
    assert cyc is not None and cyc.strong
    entries = dict(cyc.entries)
    assert entries[Fraction(1, 4)] == (Fraction(1, 4), f(1))
    assert entries[Fraction(1)] == E.one


def test_cyclic_system_of_an_empty_slice_is_none():
    # gamma(lex(Z/2, Z), (1, 0)) read over Z/4 has empty slices at 1/4 and
    # 3/4: no element of E has those heads, so there is no c_t there
    E = lex_pea(ScalarSubgroup.cyclic(2), Z, 0)
    D = decomposition_from_state(E, FirstCoordinateState(E), H4, allow_subset=True)
    assert not D.proper
    assert find_cyclic_system(E, D) is None
    assert find_cyclic_system(E, D, strong=True) is None
    assert classify_perfect(E, H4).missing_slice == Fraction(1, 4)


def cyclic_system_by_scan(E, D, strong=False):
    """The lex branch of ``find_cyclic_system`` as it once was: each entry is
    checked to lie in E, and additivity on grid pairs by a scan of all
    entries.  The package takes both from the construction of c_t.  A head
    outside the head subgroup is an empty slice (``E.contains`` reads the
    order alone), so it has no c_t.  Over Q the entries c_{1/n} past the
    grid are checked up to n = 128."""
    E, H = D.pea, D.H
    # over Q every c_{1/n} = (1/n, g0/n) is needed, also past the grid
    if H == HQ and any(
        decomp._integral_action(E.tail_group, E.tail_unit, Fraction(1, n)) is None
        for n in range(1, 129)
    ):
        return None
    entries = []
    all_strong = True
    for t in D.grid:
        tail = decomp._integral_action(E.tail_group, E.tail_unit, t)
        if tail is None:
            return None
        c = (t, tail)
        if not (E.head_subgroup.contains(t) and E.contains(c)):
            return None
        entries.append((t, c))
        if not E.group.center_member(c):
            all_strong = False
    for s, cs in entries:
        for t, ct in entries:
            total = H.coerce(s) + H.coerce(t)
            if compare(total, H.one()) is Ordering.GT:
                continue
            match = [cv for tv, cv in entries if compare(tv, total) is Ordering.EQ]
            if match and E.add(cs, ct) != match[0]:
                return None
    if strong and not all_strong:
        return None
    return CyclicSystem(tuple(entries), all_strong)


Z2 = g.IntVector(2)
PROD_Z_AFF = g.Product(Z, AFF)
LEX_Z_AFF = g.Lex(Z, AFF)


def seeded_lex_decompositions(rng, count):
    """Lex intervals over Q, Z/n and Q[sqrt 2] heads (Z/n also read over a
    finer grid) and Z, Z^2, Aff, prod(Z, Aff) and lex(Z, Aff) tails, with
    central and non-central Aff units; some units are not divisible."""
    aff = lambda: rng.choice(((f(1), f(0)), (f(2), f(0)), (f(64), f(rng.randint(-3, 3)))))
    units = {
        Z: lambda: f(rng.choice((0, 60, -120, rng.randint(-3, 3)))),
        Z2: lambda: (rng.choice((0, 60, rng.randint(-3, 3))), rng.choice((0, -60, 1))),
        AFF: aff,
        PROD_Z_AFF: lambda: (rng.choice((0, 60, rng.randint(-3, 3))), aff()),
        LEX_Z_AFF: lambda: (rng.choice((0, 60, rng.randint(-3, 3))), aff()),
    }
    for _ in range(count):
        head = rng.choice((HQ, HR2, *(ScalarSubgroup.cyclic(n) for n in range(1, 7))))
        G = rng.choice(tuple(units))
        E = lex_pea(head, G, units[G]())
        H, allow = head, False
        if not head.is_dense and rng.random() < 0.3:
            H, allow = ScalarSubgroup.cyclic(head.n * rng.randint(2, 3)), True
        yield decomposition_from_state(E, FirstCoordinateState(E), H, allow_subset=allow)


def test_keyed_cyclic_system_check_agrees_with_the_scan():
    # find_cyclic_system builds c_t = (t, t*g0) without checking it; the scan
    # reference checks membership and additivity and must find the same family
    outcomes = {"system": 0, "strong": 0, "none": 0}
    for D in seeded_lex_decompositions(random.Random(1010), 60):
        for strong in (False, True):
            got = find_cyclic_system(D.pea, D, strong=strong)
            assert got == cyclic_system_by_scan(D.pea, D, strong=strong), (D.pea, D.H, strong)
            outcomes["none" if got is None else "strong" if got.strong else "system"] += 1
    assert min(outcomes.values()) >= 5, outcomes


def test_integral_action_is_additive_inside_the_interval():
    # the reason the package skips the reference's checks: where t*g0 exists
    # for s and t it exists for s + t and is the sum, and (t, t*g0) lies in
    # [0, (1, g0)]
    pairs = 0
    for D in seeded_lex_decompositions(random.Random(1011), 60):
        E, G, g0 = D.pea, D.pea.tail_group, D.pea.tail_unit
        tau = {t: decomp._integral_action(G, g0, t) for t in D.grid}
        for t, tail in tau.items():
            assert tail is None or E.contains((t, tail))
        for s, t in itertools.product(D.grid, repeat=2):
            total = D.H.coerce(s) + D.H.coerce(t)
            if tau[s] is None or tau[t] is None or compare(total, D.H.one()) is Ordering.GT:
                continue
            assert g.add(G, tau[s], tau[t]) == decomp._integral_action(G, g0, total), (E, s, t)
            pairs += 1
    assert pairs >= 500, pairs


def test_scan_reference_rejects_a_twisted_action(monkeypatch):
    # shifting one grid entry off t*g0 breaks membership or additivity, and the
    # reference sees it: its checks are not vacuous on these cases
    shifts = {Z: f(1), Z2: (1, 0), AFF: (f(1), f(1)), PROD_Z_AFF: (1, (f(1), f(1))),
              LEX_Z_AFF: (1, (f(1), f(1)))}
    action = decomp._integral_action
    twist = {}

    def twisted(G, g0, t):
        tail = action(G, g0, t)
        if tail is not None and twist["at"] == t:
            tail = g.add(G, tail, shifts[G])
        return tail

    monkeypatch.setattr(decomp, "_integral_action", twisted)
    rejected = 0
    for D in seeded_lex_decompositions(random.Random(1012), 60):
        twist["at"] = None
        if cyclic_system_by_scan(D.pea, D) is None:
            continue
        twist["at"] = random.Random(len(D.grid)).choice(D.grid)
        assert cyclic_system_by_scan(D.pea, D) is None, (D.pea, D.H, twist)
        rejected += 1
    assert rejected >= 10, rejected


def test_classify_strong_q_perfect():
    E = lex_pea(HQ, g.IntVector(2), (0, 0))
    report = classify_perfect(E, HQ)
    assert report.is_h_perfect
    assert report.directness
    assert report.strong_cyclic
    assert report.one_divisible and report.strong_one_divisible
    assert report.torsion_free
    assert report.is_strong_h_perfect


@pytest.mark.parametrize(
    "head, H, G, g0",
    [
        (HQ, HQ, g.IntVector(2), (0, 0)),
        (ScalarSubgroup.quadratic(2), ScalarSubgroup.quadratic(2), g.IntVector(2), (0, 0)),
        (H4, ScalarSubgroup.cyclic(4), Z, f(0)),
        (H2, H4, Z, f(0)),  # a missing slice
        (ScalarSubgroup.cyclic(1), HQ, AFF, (f(2), f(0))),
    ],
    ids=["Q", "Q[sqrt 2]", "Z/4", "Z/2 over Z/4", "Z over Q"],
)
def test_lex_classification_builds_one_grid_per_subgroup(monkeypatch, head, H, G, g0):
    calls = {}
    for cls in {type(head), type(H)}:
        def counting(self, max_den, coeff_bound, grid=cls.grid):
            calls[self] = calls.get(self, 0) + 1
            return grid(self, max_den, coeff_bound)

        monkeypatch.setattr(cls, "grid", counting)
    classify_perfect(lex_pea(head, G, g0), H)
    assert calls and max(calls.values()) == 1, calls


def test_classify_missing_slice():
    E = lex_pea(ScalarSubgroup.cyclic(1), Z, f(0))
    report = classify_perfect(E, HQ)
    assert not report.is_h_perfect
    # a fractional slice index with no members witnesses the failure, and the
    # cyclic-element search fails at the matching order
    assert report.missing_slice is not None
    assert not ScalarSubgroup.cyclic(1).contains(report.missing_slice)
    from ordalg.pea import cyclic_elements

    assert cyclic_elements(E, 3) == []


@pytest.mark.parametrize("H, E, expected", [
    (HQ, lex_pea(HQ, Z, f(0)), []),  # a divisible unit: a root of every order
    (HQ, lex_pea(ScalarSubgroup.cyclic(1), Z, f(0)), [1, 2]),  # a missing slice
    # the 4-chain's cyclic-system search reads order 3; its roots come from
    # walking the multiples of each element
    (ScalarSubgroup.cyclic(3), finite_chain(3), [3]),
    (HQ, lex_pea(HQ, Z, f(720)), [1, 2, 3, 4, 5, 6, 7]),  # 7 does not divide 720
    (ScalarSubgroup.cyclic(60), lex_pea(ScalarSubgroup.cyclic(60), Z, f(0)), list(range(1, 8))),
    # a unit off the center has no strong root, so order 1 fails unread
    (ScalarSubgroup.cyclic(1), lex_pea(ScalarSubgroup.cyclic(1), AFF, (f(2), f(0))), []),
])
def test_classify_reads_each_cyclic_element_list_once(monkeypatch, H, E, expected):
    # a lex interval with a central unit that is not divisible reads one list
    # per order, from 1 up to the first order without a root
    orders = []
    real = decomp.cyclic_elements

    def counting(E, n):
        orders.append(n)
        return real(E, n)

    monkeypatch.setattr(decomp, "cyclic_elements", counting)
    classify_perfect(E, H)
    assert orders == expected


def test_classify_translated_unit_divisibility_failure():
    E = lex_pea(HQ, Z, f(1))
    report = classify_perfect(E, HQ)
    assert not report.strong_one_divisible
    assert report.first_divisibility_failure == 2
    assert not report.is_strong_h_perfect


def test_classify_affine_tail_unit_matters():
    H1 = ScalarSubgroup.cyclic(1)
    off_center = lex_pea(H1, AFF, (f(2), f(0)))
    report = classify_perfect(off_center, H1)
    assert report.is_h_perfect
    assert not report.strong_cyclic
    assert not report.symmetric
    centered = lex_pea(H1, AFF, (f(1), f(0)))
    report2 = classify_perfect(centered, H1)
    assert report2.strong_cyclic
    assert report2.symmetric


def test_classify_finite_chain():
    E = finite_chain(2)
    report = classify_perfect(E, H2)
    assert report.is_h_perfect
    assert report.cyclic_system is not None
    assert report.torsion_free is None  # not determinable without an ambient group


def test_strong_cyclic_equivalence():
    # over a Q head the strong cyclic property and strong 1-divisibility are
    # the same condition on the unit (1, g0), and roots are unique
    for G, g0, holds in (
        (Z, f(0), True),
        (Z, f(1), False),
        (Z, f(720), False),  # c_{1/7} = (1/7, 720/7) is missing
        (Q, f(720), True),
        (AFF, (f(1), f(0)), True),
        (AFF, (f(1), f(5)), False),  # divisible, but off the center
        (AFF, (f(4), f(0)), False),  # 4 has no rational cube root
    ):
        report = classify_perfect(lex_pea(HQ, G, g0), HQ)
        assert report.strong_cyclic == report.strong_one_divisible == holds, (G, g0)
        assert report.unique_roots


def scanned_divisibility(E, n_top):
    """The four divisibility fields of ``classify_perfect`` read off
    ``cyclic_elements`` for every order n <= n_top.  Exact on a finite
    algebra at n_top = size, and on a lex interval once n_top passes the
    first order without a strong root, or when the unit is divisible."""
    found = [cyclic_elements(E, n) for n in range(1, n_top + 1)]
    failures = [n for n, cs in enumerate(found, 1) if not any(c.strong for c in cs)]
    return (
        all(found),
        not failures,
        failures[0] if failures else None,
        all(len(cs) <= 1 for cs in found),
    )


def divisibility_fields(report):
    return (
        report.one_divisible,
        report.strong_one_divisible,
        report.first_divisibility_failure,
        report.unique_roots,
    )


# 0, one = 1 and two halves 2 and 3 with 2 + 2 = 3 + 3 = 1: two roots of order 2
TWO_HALVES = (4, 0, 1, {**{(0, x): x for x in range(4)}, **{(x, 0): x for x in range(1, 4)},
                        (2, 2): 1, (3, 3): 1})
ONE_ELEMENT = (1, 0, 0, {(0, 0): 0})


def test_finite_divisibility_flags_match_the_scan_to_the_size():
    # a root of order n has n distinct nonzero multiples, so no order reaches
    # the size, and the scan to n = size is exhaustive
    rng = random.Random(20261019)
    tables = [ONE_ELEMENT, TWO_HALVES]
    for _ in range(3):
        for size, zero, one, table in stock_tables(rng):
            tables += [(size, zero, one, t) for t in [table] + [mutate(size, one, table, rng) for _ in range(3)]]
    seen = set()
    for size, zero, one, table in tables:
        verdict = check_pea_axioms(size, zero, one, table)
        if verdict.valid:
            fields = divisibility_fields(classify_perfect(verdict.pea, H2))
            assert fields == scanned_divisibility(verdict.pea, size), (size, table)
            seen.add(fields)
    assert {(True, True, None, True), (False, False, 3, False)} <= seen, seen
    for E in [finite_chain(n) for n in range(1, 64)] + [boolean_algebra(k) for k in range(1, 7)]:
        assert decomp._divisibility_scan(E) == scanned_divisibility(E, E.size)


def test_finite_chain_misses_the_orders_that_do_not_divide_its_length():
    report = classify_perfect(finite_chain(60), ScalarSubgroup.cyclic(60))
    assert report.is_strong_h_perfect
    assert not report.one_divisible and not report.strong_one_divisible
    assert report.first_divisibility_failure == 7


def test_lex_divisibility_flags_match_the_scan_to_128():
    # heads Q, Z/m and Q[sqrt 2], each read over itself; tails with divisible
    # and non-divisible units, central and not
    rng = random.Random(20261020)
    whole = lambda: rng.choice((0, 720, 2520, rng.randint(-6, 6)))
    rational = lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    aff = lambda: (f(rng.choice((1, 1, 4, 64, 729, Fraction(8, 27)))), rational())
    tails = {
        Z: whole,
        Z2: lambda: (whole(), rng.choice((0, 60, 1))),
        AFF: aff,
        Q: rational,
        g.Lex(Z, Q): lambda: (whole(), rational()),
        PROD_Z_AFF: lambda: (whole(), aff()),
    }
    heads = [HQ, HR2] + [ScalarSubgroup.cyclic(m) for m in (1, 2, 6, 12, 60)]
    intervals = [lex_pea(head, G, draw()) for head in heads for G, draw in tails.items() for _ in range(3)]
    # one interval of each kind: divisible and central, divisible off the
    # center, neither, and central with a first failure past the Q grid
    intervals += [lex_pea(HQ, AFF, (f(1), f(0))), lex_pea(HQ, AFF, (f(1), f(3))),
                  lex_pea(HQ, AFF, (f(4), f(3))), lex_pea(HQ, Z, f(720))]
    seen = set()
    for E in intervals:
        head = E.head_subgroup
        report = classify_perfect(E, head)
        fields = divisibility_fields(report)
        assert fields == scanned_divisibility(E, 128), (E.group, E.unit)
        if head == HQ:
            assert report.strong_cyclic == report.strong_one_divisible, E.unit
        seen.add(fields[:3])
    assert {(True, True, None), (True, False, 1), (False, False, 1), (False, False, 7)} <= seen


def test_inclusion_witness_is_exact():
    # _point_outside(S's grid, S, T) is a point of [0, 1] in S and not in T,
    # or None exactly when S lies in T; Q past its grid's denominators too
    subgroups = [HQ, HR2, ScalarSubgroup.quadratic(3)] + [
        ScalarSubgroup.cyclic(m) for m in (1, 2, 4, 6, 12, 60, 420)
    ]

    def inside(S, T):
        if S == T or T == HQ:
            return S == T or not S.is_dense
        if S.is_dense:
            return False
        return S.n == 1 or (not T.is_dense and T.n % S.n == 0)

    for S, T in itertools.product(subgroups, repeat=2):
        t = decomp._point_outside(grid_points(S), S, T)
        assert (t is None) == inside(S, T), (S, T)
        if t is not None:
            assert S.contains(t) and not T.contains(t), (S, T, t)
            assert compare(t, 0) is not Ordering.LT and compare(t, 1) is not Ordering.GT
    assert decomp._point_outside(grid_points(HQ), HQ, ScalarSubgroup.cyclic(420)) == Fraction(1, 8)


def test_q_head_values_past_the_grid_are_checked():
    # every fraction of the Q grid (denominators up to 6) lies in Z/60, but
    # 1/7 does not: the state of gamma(lex(Q, Z), (1, 0)) is not Z/60-valued,
    # and gamma(lex(Z/60, Z), (1, 0)) has no slice at 1/7 over Q
    H60 = ScalarSubgroup.cyclic(60)
    E = lex_pea(HQ, Z, f(0))
    message = r"state is not valued in Z/60: s\(\(1/7, 0\)\) = 1/7"
    with pytest.raises(PreconditionError, match=message):
        decomposition_from_state(E, FirstCoordinateState(E), H60)
    with pytest.raises(PreconditionError, match=message):
        classify_perfect(E, H60)
    E = lex_pea(H60, Z, f(0))
    with pytest.raises(PreconditionError, match="slice at t = 1/7 is empty"):
        decomposition_from_state(E, FirstCoordinateState(E), HQ)
    D = decomposition_from_state(E, FirstCoordinateState(E), HQ, allow_subset=True)
    assert not D.proper
    report = classify_perfect(E, HQ)
    assert not report.is_h_perfect and report.missing_slice == Fraction(1, 7)


def test_q_cyclic_system_needs_every_part_of_the_tail_unit():
    # the Q grid stops at denominator 6, where 720 is divisible; c_{1/7} is not
    E = lex_pea(HQ, Z, f(720))
    D = decomposition_from_state(E, FirstCoordinateState(E), HQ)
    assert find_cyclic_system(E, D) is None
    assert cyclic_system_by_scan(E, D) is None
    E = lex_pea(HQ, Q, f(720))
    D = decomposition_from_state(E, FirstCoordinateState(E), HQ)
    assert find_cyclic_system(E, D, strong=True) == cyclic_system_by_scan(E, D, strong=True) is not None


# values of no state on the 4-chain: 1 and 3 are complements, yet their
# values 1/2 and 3/4 do not add to 1
NOT_A_STATE = ("0", "1/2", "1/2", "3/4", "1")


def test_state_preimages_that_break_a_law_are_a_precondition_error():
    s = FiniteState(tuple(map(Fraction, NOT_A_STATE)))
    with pytest.raises(PreconditionError, match="negation law"):
        decomposition_from_state(finite_chain(4), s, H4, allow_subset=True)


def test_state_preimage_laws_are_checked_under_optimisation():
    # python -O strips asserts; the law check is not one
    script = (
        "from fractions import Fraction\n"
        "from ordalg.decomp import decomposition_from_state\n"
        "from ordalg.errors import PreconditionError\n"
        "from ordalg.pea import finite_chain\n"
        "from ordalg.scalars import ScalarSubgroup\n"
        "from ordalg.states import FiniteState\n"
        "try:\n"
        f"    s = FiniteState(tuple(map(Fraction, {NOT_A_STATE!r})))\n"
        "    decomposition_from_state(finite_chain(4), s, ScalarSubgroup.cyclic(4), allow_subset=True)\n"
        "except PreconditionError as err:\n"
        "    print(err)\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, check=True, timeout=60
    ).stdout.decode()
    assert "negation law" in out, out


def test_ordered_implies_type_i():
    cases = [
        (finite_chain(2), H2),
        (finite_chain(4), H4),
    ]
    for E, H in cases:
        D = decomposition_from_state(E, states_finite(E)[0], H)
        if check_ordered(E, D).ordered:
            assert check_type_i(E, D).is_type_i
    EL = lex_pea(HQ, Z, f(0))
    D = decomposition_from_state(EL, FirstCoordinateState(EL), HQ)
    if check_ordered(EL, D).ordered:
        assert check_type_i(EL, D).is_type_i


def test_rad_equals_e0_for_ordered_finite():
    from ordalg.pea import ideals_enumerate

    for E, H in ((finite_chain(2), H2), (finite_chain(4), H4)):
        D = decomposition_from_state(E, states_finite(E)[0], H)
        assert check_ordered(E, D).ordered
        e0 = dict(D.slices)[Fraction(0)]
        report = ideals_enumerate(E)
        assert report.radical == e0
        assert report.normal_radical == e0


def test_unique_h_valued_state_lex():
    # two independent routes to the canonical state agree on samples
    E = lex_pea(H4, Z, f(0))
    D = decomposition_from_state(E, FirstCoordinateState(E), H4)
    s = state_from_decomposition(E, D)
    rng = random.Random(29)
    for _ in range(100):
        x = E.sample(rng)
        assert s(x) == x[0]


def test_check_ordered_quadratic_head():
    H = ScalarSubgroup.quadratic(2)
    E = lex_pea(H, Z, f(0))
    D = decomposition_from_state(E, FirstCoordinateState(E), H)
    report = check_ordered(E, D)
    assert report.ordered
    assert report.e0_matches_infinitesimals
    assert report.slice_additivity_ok and report.no_oversum_ok


def test_cyclic_head_gives_n_perfect():
    H3 = ScalarSubgroup.cyclic(3)
    E = lex_pea(H3, g.IntVector(2), (0, 0))
    report = classify_perfect(E, H3)
    assert report.is_h_perfect and report.is_strong_h_perfect


def test_state_extends_to_group_functional():
    # the slice-index state is the restriction of the additive head map on
    # the whole group; additivity is sampled beyond the unit interval
    from ordalg.sampling import sample_element

    E = lex_pea(HQ, Z, f(0))
    s = FirstCoordinateState(E)
    rng = random.Random(37)
    for _ in range(200):
        u = sample_element(E.group, rng, 10)
        v = sample_element(E.group, rng, 10)
        w = g.add(E.group, u, v)
        assert w[0] == u[0] + v[0]
        if E.contains(u):
            assert s(u) == u[0]


def test_decided_lex_verdicts_agree_with_sampled_probes():
    # the decided flags and the test-side probes (lex_probes) agree on random
    # lex intervals: discrete, rational and quadratic heads, the property
    # trees as tails, a random unit tail, proper and empty-slice variants
    from lex_probes import (
        sampled_ordered_report,
        sampled_type_i_report,
        slices_directed_probe,
    )
    from ordalg.sampling import sample_element
    from test_properties import TREES

    rng = random.Random(4242)
    HS2 = ScalarSubgroup.quadratic(2)
    heads = (
        (ScalarSubgroup.cyclic(1), (HS2, H2)),
        (H2, (H4,)),
        (ScalarSubgroup.cyclic(3), (HQ,)),
        (HQ, ()),
        (HS2, ()),
    )
    tails = rng.sample(TREES, 4) + [AFF, g.Product(Z, AFF)]
    checked = subsets = 0
    for head, supersets in heads:
        for G in tails:
            E = lex_pea(head, G, sample_element(G, rng, 3))
            for H, allow in ((head, False),) + tuple((K, True) for K in supersets):
                D = decomposition_from_state(E, FirstCoordinateState(E), H, allow_subset=allow)
                subsets += not D.proper
                assert state_from_decomposition(E, D) == FirstCoordinateState(E)
                assert lex_type_ii_violation(D, rng, rounds=30) is None
                assert sampled_ordered_report(E, D, rng, rounds=30) == check_ordered(E, D)
                assert sampled_type_i_report(E, D, rng, rounds=20) == check_type_i(E, D)
                directed = slices_directed_probe(E, D, rng, rounds=20)
                assert directed == classify_perfect(E, H).directness
                checked += 1
    assert checked == 54 and subsets == 24


def test_unit_head_other_than_one_is_a_precondition_error():
    # the state of gamma(lex(Z, Z), (2, 0)) is (t, g) -> t/2, so slices by
    # head would index [0, 2]; every lex decomposition path refuses it
    H1 = ScalarSubgroup.cyclic(1)
    for E, H, other, head in (
        (IntervalPea(g.Lex(Z, Z), (f(2), f(0))), H1, H2, "2"),
        (IntervalPea(g.Lex(Q, Z), (f(3) / 2, f(1))), HQ, ScalarSubgroup.quadratic(2), "3/2"),
    ):
        message = f"unit head 1, got {head}"
        with pytest.raises(PreconditionError, match=message):
            decomposition_from_state(E, FirstCoordinateState(E), H)
        with pytest.raises(PreconditionError, match=message):
            decomposition_from_state(E, FirstCoordinateState(E), other, allow_subset=True)
        with pytest.raises(PreconditionError, match=message):
            classify_perfect(E, H)  # the branch that decomposes
        with pytest.raises(PreconditionError, match=message):
            classify_perfect(E, other)  # the branch that reports a missing slice
        with pytest.raises(PreconditionError, match=message):
            state_from_decomposition(E, LexDecomposition(H, E, (f(0), f(1))))


# -- bitset kernels against the element-pair reference (tests/finite_slices.py)


def outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # both sides must fail alike, e.g. a missing grid slice
        return type(exc)


def assert_kernels_match(E, D, maximal):
    """Every finite slice kernel returns what the element-pair reference does;
    ``maximal`` lists E's maximal ideals by the subset definition."""
    assert decomp._finite_type_ii_violation(D) == ref.type_ii_violation(D)
    ordered = outcome(check_ordered, E, D)
    assert ordered == outcome(ref.check_ordered, E, D)
    assert outcome(check_type_i, E, D) == outcome(ref.check_type_i, E, D, maximal)
    for _, members in D.slices:
        assert decomp._finite_slice_directed(E, members) == ref.slice_directed(E, members)
    for strong in (False, True):
        got = outcome(find_cyclic_system, E, D, strong)
        assert got == outcome(ref.find_cyclic_system, E, D, strong)
    return ordered


def test_finite_kernels_match_the_element_pair_reference(monkeypatch):
    # every extremal state of every stock table and relabelling, read over
    # Z/L (L the least common denominator of its values), over Z/2L with the
    # grid points it misses, and over Z[sqrt 2] when its values are 0 and 1
    # (the 3-chain beside k blocks of 2^2 adds slices in thirds)
    seen = {"ordered": 0, "unordered": 0, "cyclic": 0, "asymmetric": 0}
    rng = random.Random("thirds")
    thirds = [horizontal_sum(k, 3) for k in (1, 2, 3)]
    thirds += [relabel(*struct, rng) for struct in thirds]
    for E in itertools.chain(stock_algebras(), (FinitePea(*struct) for struct in thirds)):
        ideals = ideals_enumerate(E)
        monkeypatch.setattr(decomp, "ideals_enumerate", lambda F: ideals)  # once per algebra
        maximal = ref.subset_maximal([i.members for i in ideals.ideals], frozenset(E.elements()))
        witness = ref.symmetry_witness(E)
        assert is_symmetric(E) == SymmetryVerdict(witness is None, witness)
        seen["asymmetric"] += witness is not None
        assert [(E.lneg(a), E.rneg(a)) for a in E.elements()] == [
            (ref.lneg(E, a), ref.rneg(E, a)) for a in E.elements()
        ]
        for s in states_finite(E):
            L = lcm(*(v.denominator for v in s.values))
            subgroups = [ScalarSubgroup.cyclic(L), ScalarSubgroup.cyclic(2 * L)]
            if L == 1:
                subgroups.append(ScalarSubgroup.quadratic(2))
            for H in subgroups:
                D = decomposition_from_state(E, s, H, allow_subset=True)
                report = assert_kernels_match(E, D, maximal)
                seen["ordered" if report.ordered else "unordered"] += 1
                seen["cyclic"] += find_cyclic_system(E, D) is not None
    assert min(seen.values()) >= 5, seen


def sliced(E, H, *slices):
    """A hand-built decomposition of E: (index, members) pairs, in order."""
    return FiniteDecomposition(H, E, tuple((t, frozenset(m)) for t, m in slices), True)


def root2(a, b):
    return QuadraticNumber(a, b, 2)


E2, E3, E4, E22 = finite_chain(2), finite_chain(3), finite_chain(4), boolean_algebra(2)
HALF, QUARTER, THIRD = Fraction(1, 2), Fraction(1, 4), Fraction(1, 3)
HAND_BUILT = [
    ("empty slice", sliced(E2, H2, (f(0), {0, 1}), (HALF, ()), (f(1), {2}))),
    ("overlapping slices", sliced(E2, H2, (f(0), {0, 1}), (HALF, {1}), (f(1), {2}))),
    ("cover", sliced(E2, H2, (f(0), {0}), (f(1), {2}))),
    ("negation law", sliced(E2, H2, (f(0), {0}), (HALF, {2}), (f(1), {1}))),
    # 1 + 1 = 2 at 2/3 + 2/3, and at 1/4 + 1/4, where no slice lies
    ("sum above one", sliced(E3, H4, (f(0), {0}), (THIRD, {2}), (2 * THIRD, {1}), (f(1), {3}))),
    ("sum slice law", sliced(E3, H4, (f(0), {0}), (QUARTER, {1}), (3 * QUARTER, {2}), (f(1), {3}))),
    # ordered, with sums past one; in the first, E_1/2 + E_1/2 is not E_1
    ("negation law", sliced(E4, H2, (f(0), {0}), (HALF, {1, 2}), (f(1), {3, 4}))),
    ("negation law", sliced(E4, H2, (f(0), {0}), (HALF, {1}), (f(1), {2, 3, 4}))),
    # two slices at 3/4: a lookup by index finds the second, which misses lneg(1) = 3
    ("negation law", sliced(E4, H4, (f(0), {0}), (QUARTER, {1}), (3 * QUARTER, {3}),
                            (3 * QUARTER, {2}), (f(1), {4}))),
    ("negation law", sliced(E22, HR2, (root2(0, 0), {0}), (root2(-1, 1), {1, 2}), (root2(1, 0), {3}))),
    # sqrt 2 - 1 and 2 - sqrt 2 hold the atoms of 2^2
    (None, sliced(E22, HR2, (root2(0, 0), {0}), (root2(-1, 1), {1}), (root2(2, -1), {2}),
                  (root2(1, 0), {3}))),
]


@pytest.mark.parametrize("kind, D", HAND_BUILT, ids=[f"{kind}-{i}" for i, (kind, _) in enumerate(HAND_BUILT)])
def test_hand_built_decompositions_match_the_reference(kind, D):
    witness = ref.type_ii_violation(D)
    assert (witness and witness[0]) == kind
    ideals = [i.members for i in ideals_enumerate(D.pea).ideals]
    assert_kernels_match(D.pea, D, ref.subset_maximal(ideals, frozenset(D.pea.elements())))


def test_round_trip_over_a_quadratic_subgroup():
    # rational indices come back as Fractions, irrational ones stay exact
    E = boolean_algebra(1)
    s = states_finite(E)[0]
    D = decomposition_from_state(E, s, HR2, allow_subset=True)
    back = state_from_decomposition(E, D)
    assert back.values == s.values and {type(v) for v in back.values} == {Fraction}
    assert decomposition_from_state(E, back, HR2, allow_subset=True) == D
    # sqrt 2 - 1 and 2 - sqrt 2 hold the atoms of 2^2
    D = HAND_BUILT[-1][1]
    s = state_from_decomposition(E22, D)
    assert s.values == (f(0), root2(-1, 1), root2(2, -1), f(1))
    assert [type(v) for v in s.values] == [Fraction, QuadraticNumber, QuadraticNumber, Fraction]
    back = decomposition_from_state(E22, s, HR2, allow_subset=True)
    assert back.slices == D.slices and not back.proper


def seeded_slicing(E, rng):
    """Slices over Z/n at random indices that mostly respect the negations:
    x at k/n puts lneg(x) and rneg(x) at 1 - k/n.  Some elements then move,
    and some slices split in two at one index."""
    n = rng.randint(1, 4)
    index = {}
    for x in rng.sample(range(E.size), E.size):
        if x not in index:
            index[x] = Fraction(rng.randint(0, n), n)
            for y in (E.lneg(x), E.rneg(x)):
                index.setdefault(y, 1 - index[x])
    for x in rng.sample(range(E.size), rng.choice((0, 0, 1, 2))):
        index[x] = Fraction(rng.randint(0, n), n)
    slices = {}
    for x, t in index.items():
        slices.setdefault(t, set()).add(x)
    parts = []
    for t, members in sorted(slices.items()):
        members = sorted(members)
        cut = rng.randint(1, len(members)) if rng.random() < 0.1 else len(members)
        parts += [(t, members[:cut])] + ([(t, members[cut:])] if cut < len(members) else [])
    return sliced(E, ScalarSubgroup.cyclic(n), *parts)


def test_finite_kernels_match_the_reference_on_seeded_slicings():
    rng = random.Random(2210)
    algebras = [finite_chain(n) for n in (1, 2, 3, 4, 5, 8)] + [boolean_algebra(k) for k in (2, 3, 4)]
    algebras += [FinitePea(*hsum_table(k)) for k in (2, 3)] + [FinitePea(*cycle_table(n)) for n in (3, 4)]
    algebras += [FinitePea(*relabel(E.size, E.zero, E.one, E.table, rng)) for E in algebras]
    kinds, ordered = set(), set()
    for E in algebras:
        ideals = [i.members for i in ideals_enumerate(E).ideals]
        maximal = ref.subset_maximal(ideals, frozenset(E.elements()))
        for _ in range(40):
            D = seeded_slicing(E, rng)
            witness = ref.type_ii_violation(D)
            kinds.add(witness and witness[0])
            report = assert_kernels_match(E, D, maximal)
            ordered.add(report.ordered)
    assert kinds == {None, "negation law", "sum above one", "sum slice law"}, kinds
    assert ordered == {True, False}


# -- finite perfectness against every grid state -------------------------------

# every stock shape of at most eight elements: chains, 2^1-2^3, k blocks of
# 2^2 beside an n-chain, and the cycles of 2 to 5 atoms (non-commutative
# from 3 on)
SMALL_TABLES = [(f"chain{n}", finite_chain(n)) for n in range(1, 8)]
SMALL_TABLES += [(f"bool{k}", boolean_algebra(k)) for k in (1, 2, 3)]
SMALL_TABLES += [
    (f"hsum{k}-{n}", FinitePea(*horizontal_sum(k, n)))
    for k in (1, 2, 3) for n in range(1, 8) if n + 1 + 2 * k <= 8
]
SMALL_TABLES += [(f"cycle{n}", FinitePea(*cycle_table(n))) for n in (2, 3, 4, 5)]


def test_h_perfectness_matches_every_grid_state():
    # E is (1/n)Z-perfect exactly when one of its (1/n)Z-valued states takes
    # every value k/n and is ordered; the brute force finds at most one, the
    # level decomposition, and classify_perfect decides it without a search
    perfect = []
    for name, E in SMALL_TABLES:
        for n in range(1, 7):
            _, ordered = ref.grid_decompositions(E, n)
            assert len(ordered) <= 1, (name, n)
            report = classify_perfect(E, ScalarSubgroup.cyclic(n))
            assert report.is_h_perfect == bool(ordered), (name, n)
            if ordered:
                perfect.append((name, n))
            else:  # no slices to report on
                slices = (report.ordered, report.type_i, report.directness, report.cyclic_system)
                assert slices == (None, None, False, None), (name, n)
    # the chains of 1 to 6 steps, 2^1 and 2^2, the horizontal sums and the
    # cycles at Z/2, eight of which the extremal states answered False
    assert len(perfect) == 17, perfect
    assert sum(n == 2 for _, n in perfect) == 11


def test_classify_perfect_never_enumerates_the_state_polytope(monkeypatch):
    def refuse(*args):
        raise AssertionError("the state polytope was enumerated")

    monkeypatch.setattr(states, "states_finite", refuse)
    monkeypatch.setattr(states, "solve_affine", refuse)  # the first step of any copy of it
    for E in stock_algebras():
        for H in (ScalarSubgroup.cyclic(1), H2, ScalarSubgroup.cyclic(E.size - 1), HQ):
            classify_perfect(E, H)


def test_one_element_algebra_answers_are_unchanged():
    # zero is one: no level above the bottom, so no state and no slices, while
    # the unit is its own root of every order
    E = check_pea_axioms(1, 0, 0, {(0, 0): 0}).pea
    expected = PerfectReport(
        False, None, None, False, None, False, True, True, None, True, None, True, False
    )
    for H in (ScalarSubgroup.cyclic(1), H2, HQ, HR2):
        assert classify_perfect(E, H) == expected
