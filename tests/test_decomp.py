"""Slice decompositions, their laws, and perfectness classification."""

import random
from fractions import Fraction

import pytest

from ordalg import decomp
from ordalg import groups as g
from ordalg.decomp import (
    CyclicSystem,
    FiniteDecomposition,
    LexDecomposition,
    check_ordered,
    check_type_i,
    classify_perfect,
    decomposition_from_state,
    find_cyclic_system,
    state_from_decomposition,
    strong_cyclic_vs_divisibility,
)
from ordalg.errors import PreconditionError
from ordalg.pea import FinitePea, IntervalPea, boolean_algebra, finite_chain
from ordalg.scalars import Ordering, ScalarSubgroup, compare
from ordalg.states import FiniteState, FirstCoordinateState, states_finite

from lex_probes import lex_type_ii_violation

Z = g.ZZ
Q = g.QQ
AFF = g.AffineQ()
H2 = ScalarSubgroup.cyclic(2)
H4 = ScalarSubgroup.cyclic(4)
HQ = ScalarSubgroup.rationals()


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


def cyclic_system_by_scan(E, D, strong=False):
    """The lex branch of ``find_cyclic_system`` as it was, finding the entry at
    s + t by a scan of all entries: the reference for the keyed lookup."""
    E, H = D.pea, D.H
    entries = []
    all_strong = True
    for t in D.grid:
        tail = decomp._integral_action(E.tail_group, E.tail_unit, t)
        if tail is None:
            return None
        c = (t, tail)
        if not E.contains(c):
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


def test_keyed_cyclic_system_check_agrees_with_the_scan(monkeypatch):
    # seeded lex intervals over Q, Z/n and Q[sqrt 2] heads (Z/n also read
    # over a finer grid), Z, Z^2 and Aff tails with a central and a
    # non-central Aff unit; a twisted action that shifts one slice's entry
    # makes the additivity check itself fail
    rng = random.Random(1010)
    HS2 = ScalarSubgroup.quadratic(2)
    Z2 = g.IntVector(2)
    units = {
        Z: lambda: f(rng.choice((0, 60, -120, rng.randint(-3, 3)))),
        Z2: lambda: (rng.choice((0, 60, rng.randint(-3, 3))), rng.choice((0, -60, 1))),
        AFF: lambda: rng.choice(((f(1), f(0)), (f(2), f(0)), (f(64), f(rng.randint(-3, 3))))),
    }
    shifts = {Z: f(1), Z2: (1, 0), AFF: (f(1), f(1))}
    action = decomp._integral_action
    twist = {}

    def twisted(G, g0, t):
        tail = action(G, g0, t)
        if tail is not None and twist.get("at") == t:
            tail = g.add(G, tail, shifts[G])
        return tail

    monkeypatch.setattr(decomp, "_integral_action", twisted)
    outcomes = {"system": 0, "none": 0, "twisted_none": 0}
    for _ in range(48):
        head = rng.choice((HQ, HS2, *(ScalarSubgroup.cyclic(n) for n in range(1, 7))))
        G = rng.choice((Z, Z2, AFF))
        E = lex_pea(head, G, units[G]())
        H, allow = head, False
        if not head.is_dense and rng.random() < 0.3:
            H, allow = ScalarSubgroup.cyclic(head.n * rng.randint(2, 3)), True
        D = decomposition_from_state(E, FirstCoordinateState(E), H, allow_subset=allow)
        twist["at"] = rng.choice(D.grid) if rng.random() < 0.4 else None
        for strong in (False, True):
            keyed = find_cyclic_system(E, D, strong=strong)
            assert keyed == cyclic_system_by_scan(E, D, strong=strong), (E, H, twist, strong)
            if keyed is not None:
                outcomes["system"] += 1
            elif twist["at"] is None:
                outcomes["none"] += 1
            else:
                outcomes["twisted_none"] += 1
    assert min(outcomes.values()) >= 5, outcomes


def test_classify_strong_q_perfect():
    E = lex_pea(HQ, g.IntVector(2), (0, 0))
    report = classify_perfect(E, HQ, seed=11)
    assert report.is_h_perfect
    assert report.directness
    assert report.strong_cyclic
    assert report.one_divisible and report.strong_one_divisible
    assert report.torsion_free
    assert report.is_strong_h_perfect


def test_classify_missing_slice():
    E = lex_pea(ScalarSubgroup.cyclic(1), Z, f(0))
    report = classify_perfect(E, HQ, seed=13)
    assert not report.is_h_perfect
    # a fractional slice index with no members witnesses the failure, and the
    # cyclic-element search fails at the matching order
    assert report.missing_slice is not None
    assert not ScalarSubgroup.cyclic(1).contains(report.missing_slice)
    from ordalg.pea import cyclic_elements

    assert cyclic_elements(E, 3) == []


@pytest.mark.parametrize("H, E, expected", [
    (HQ, lex_pea(HQ, Z, f(0)), [1, 2, 3, 4, 5]),  # strongly perfect
    (HQ, lex_pea(ScalarSubgroup.cyclic(1), Z, f(0)), [1, 2, 3, 4, 5]),  # a missing slice
    # the 4-chain's cyclic-system search reads order 3 before the scan
    (ScalarSubgroup.cyclic(3), finite_chain(3), [3, 1, 2, 3, 4, 5]),
])
def test_classify_reads_each_cyclic_element_list_once(monkeypatch, H, E, expected):
    # the divisibility flags and unique_roots share one list per order n
    orders = []
    real = decomp.cyclic_elements

    def counting(E, n):
        orders.append(n)
        return real(E, n)

    monkeypatch.setattr(decomp, "cyclic_elements", counting)
    classify_perfect(E, H, n_max=5)
    assert orders == expected


def test_classify_translated_unit_divisibility_failure():
    E = lex_pea(HQ, Z, f(1))
    report = classify_perfect(E, HQ, seed=17)
    assert not report.strong_one_divisible
    assert report.first_divisibility_failure == 2
    assert not report.is_strong_h_perfect


def test_classify_affine_tail_unit_matters():
    H1 = ScalarSubgroup.cyclic(1)
    off_center = lex_pea(H1, AFF, (f(2), f(0)))
    report = classify_perfect(off_center, H1, seed=19)
    assert report.is_h_perfect
    assert not report.strong_cyclic
    assert not report.symmetric
    centered = lex_pea(H1, AFF, (f(1), f(0)))
    report2 = classify_perfect(centered, H1, seed=19)
    assert report2.strong_cyclic
    assert report2.symmetric


def test_classify_finite_chain():
    E = finite_chain(2)
    report = classify_perfect(E, H2)
    assert report.is_h_perfect
    assert report.cyclic_system is not None
    assert report.torsion_free is None  # not determinable without an ambient group


def test_strong_cyclic_equivalence():
    E = lex_pea(HQ, Z, f(0))
    verdict = strong_cyclic_vs_divisibility(E, n_max=6)
    assert verdict.agree and verdict.cyclic_side and verdict.divisibility_side
    assert verdict.uniqueness_ok
    bad = lex_pea(HQ, Z, f(1))
    verdict2 = strong_cyclic_vs_divisibility(bad, n_max=6)
    assert verdict2.agree
    assert not verdict2.cyclic_side and not verdict2.divisibility_side


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
    report = classify_perfect(E, H3, seed=31)
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
                assert directed == classify_perfect(E, H, n_max=2).directness
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
        with pytest.raises(PreconditionError, match=message):
            strong_cyclic_vs_divisibility(E)
