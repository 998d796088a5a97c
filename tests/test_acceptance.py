"""Acceptance suite: one check per criterion, each printing a verdict line.

Each criterion is exercised at its stated scale with fixed seeds; every
assertion is exact (rational arithmetic throughout).
"""

import random
from fractions import Fraction

import pytest

from ordalg import groups as g
from ordalg.decomp import (
    check_ordered,
    classify_perfect,
    decomposition_from_state,
    state_from_decomposition,
)
from ordalg.errors import PreconditionError
from ordalg.pea import (
    IntervalPea,
    boolean_algebra,
    check_pea_axioms,
    cyclic_exchange_check,
    finite_chain,
    infinitesimals,
)
from ordalg.represent import (
    GroupHom,
    PhiMap,
    build_lex_pea,
    difference_group,
    functor_map,
    hom_compose,
    make_shuffled,
    phi_represent,
    verify_isomorphism,
)
from ordalg.riesz import rdp_decompose, rdp_oracle_search, rdp_table_verify
from ordalg.sampling import sample_interval, sample_positive
from ordalg.scalars import Ordering, ScalarSubgroup, compare
from ordalg.states import FirstCoordinateState, states_finite

from lex_probes import sample_slice
from lex_tables import case_table

Z = g.ZZ
Q = g.QQ
Z2 = g.IntVector(2)
AFF = g.AffineQ()
HQ = ScalarSubgroup.rationals()
H1 = ScalarSubgroup.cyclic(1)
H2 = ScalarSubgroup.cyclic(2)
H4 = ScalarSubgroup.cyclic(4)
HS2 = ScalarSubgroup.quadratic(2)


def f(x):
    return Fraction(x)


def record(num, description, ok):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}  {description}")
    assert ok, f"criterion {num}: {description}"


def random_instance(desc, rng, bound):
    a1 = sample_positive(desc, rng, bound)
    a2 = sample_positive(desc, rng, bound)
    total = g.add(desc, a1, a2)
    b1 = sample_interval(desc, total, rng, bound)
    b2 = g.sub_left(desc, b1, total)
    return a1, a2, b1, b2


# -- 1: axioms on stock algebras and mutated chains -------------------------


def _axiom_violated(axiom, size, zero, one, table, witness):
    """Independent re-check that the cited axiom really fails at the witness."""
    add = table.get
    if axiom == "PE1":
        a, b, c = witness
        ab, bc = add((a, b)), add((b, c))
        left = ab is not None and add((ab, c)) is not None
        right = bc is not None and add((a, bc)) is not None
        return left != right or (left and add((ab, c)) != add((a, bc)))
    if axiom == "PE2":
        (a,) = witness
        rights = [d for d in range(size) if add((a, d)) == one]
        lefts = [e for e in range(size) if add((e, a)) == one]
        return len(rights) != 1 or len(lefts) != 1
    if axiom == "PE3":
        a, b = witness
        s = add((a, b))
        if s is None:
            return False
        return not any(add((d, a)) == s for d in range(size)) or not any(
            add((b, e)) == s for e in range(size)
        )
    if axiom == "PE4":
        (a,) = witness
        return (add((a, one)) is not None or add((one, a)) is not None) and a != zero
    return False


def test_criterion_1_axioms():
    stock = [finite_chain(2), finite_chain(4), boolean_algebra(2), boolean_algebra(3)]
    ok = all(
        check_pea_axioms(E.size, E.zero, E.one, E.table).valid for E in stock
    )
    base = dict(finite_chain(2).table)
    rng = random.Random(101)
    all_pairs = [(i, j) for i in range(3) for j in range(3)]
    seen, mutations = set(), []
    while len(mutations) < 20:
        kind = rng.randrange(3)
        if kind == 0:
            key = rng.choice(sorted(base))
            value = rng.randrange(3)
            if base[key] == value or ("set", key, value) in seen:
                continue
            seen.add(("set", key, value))
            mutated = dict(base)
            mutated[key] = value
        elif kind == 1:
            key = rng.choice(sorted(base))
            if ("del", key) in seen:
                continue
            seen.add(("del", key))
            mutated = dict(base)
            del mutated[key]
        else:
            undefined = [p for p in all_pairs if p not in base]
            key = rng.choice(undefined)
            value = rng.randrange(3)
            if ("add", key, value) in seen:
                continue
            seen.add(("add", key, value))
            mutated = dict(base)
            mutated[key] = value
        mutations.append(mutated)
    for table in mutations:
        verdict = check_pea_axioms(3, 0, 2, table)
        if verdict.valid:
            ok = False
            break
        if not _axiom_violated(
            verdict.failure.axiom, 3, 0, 2, table, verdict.failure.witness
        ):
            ok = False
            break
    record(1, "PE1-PE4 on stock algebras; 20 chain mutations each fail correctly", ok)


# -- 2 and 3: the lexicographic refinement theorem and its Abelian upgrade --
# Each instance is solved twice: by the solver's meet table and by the
# paper's head case table (tests/lex_tables.py), and both must verify.


@pytest.fixture(scope="module")
def lex_tables():
    rng = random.Random(202)
    runs = []
    for desc, count in ((g.Lex(Z, Z), 1000), (g.Lex(Z, Z2), 500)):
        for _ in range(count):
            inst = random_instance(desc, rng, 20)
            tables = (rdp_decompose(desc, *inst), case_table(desc, *inst))
            runs.append((desc, inst, tables))
    return runs


def test_criterion_2_lex_rdp(lex_tables):
    ok = all(
        rdp_table_verify(desc, *inst, table).ok
        for desc, inst, tables in lex_tables
        for table in tables
    )
    oracle_ok = True
    plane = g.Lex(Z, Z)
    for desc, inst, _ in lex_tables:
        if desc != plane:
            continue
        if not rdp_oracle_search(desc, *inst, box=60).found:
            oracle_ok = False
            break
    record(
        2,
        "1500 lex refinements: meet and case tables verify; oracle agrees on the plane case",
        ok and oracle_ok,
    )


def test_criterion_3_abelian_rdp1(lex_tables):
    ok = True
    for desc, inst, tables in lex_tables:
        for table in tables:
            res = rdp_table_verify(desc, *inst, table, level="rdp1")
            if not res.ok or res.side_condition != "holds":
                ok = False
    record(3, "meet and case tables also certify the commuting side condition", ok)


# -- 4: dense scalar heads, and the paper's approximation reduction ----------


def test_criterion_4_dense_heads():
    rng = random.Random(404)
    ok = True
    for desc, count, bound in (
        (g.Lex(Q, Z2), 500, 20),
        (g.Lex(g.Scalar(HS2), Z2), 200, 8),
    ):
        for _ in range(count):
            inst = random_instance(desc, rng, bound)
            for table in (rdp_decompose(desc, *inst), case_table(desc, *inst)):
                if not rdp_table_verify(desc, *inst, table).ok:
                    ok = False
    record(
        4,
        "700 dense-head refinements: meet tables and the cyclic-subgroup reduction verify",
        ok,
    )


# -- 5: non-commutative linear refinements -----------------------------------


def test_criterion_5_affine():
    rng = random.Random(505)
    ok = True
    for _ in range(200):
        inst = random_instance(AFF, rng, 9)
        table = rdp_decompose(AFF, *inst, level="rdp2")
        res = rdp_table_verify(AFF, *inst, table, level="rdp2")
        if not res.ok or AFF.meet(table.c12, table.c21) != AFF.zero():
            ok = False
    record(5, "200 affine refinements with exactly disjoint off-diagonal entries", ok)


# -- 6: state <-> decomposition bijection ------------------------------------


def test_criterion_6_bijection():
    ok = True
    for E, H in ((finite_chain(2), H2), (finite_chain(4), H4), (boolean_algebra(2), H1)):
        round_trips = 0
        for s in states_finite(E):
            try:
                D = decomposition_from_state(E, s, H)
            except PreconditionError:
                continue
            if state_from_decomposition(E, D).values != s.values:
                ok = False
            round_trips += 1
        if round_trips == 0:
            ok = False
    E = build_lex_pea(H4, Z)
    D = decomposition_from_state(E, FirstCoordinateState(E), H4)
    rng = random.Random(606)
    nonempty = 0
    for t in D.grid:
        x = sample_slice(D, t, rng)
        if E.contains(x):
            nonempty += 1
    ok = ok and nonempty == 5
    record(6, "vertex states round-trip; the quarter-grid interval has 5 slices", ok)


# -- 7: unique states of chains ----------------------------------------------


def test_criterion_7_chain_states():
    ok = True
    for n in (2, 3, 4, 6):
        vertices = states_finite(finite_chain(n))
        if len(vertices) != 1:
            ok = False
            continue
        if vertices[0].values != tuple(Fraction(k, n) for k in range(n + 1)):
            ok = False
    record(7, "each chain carries exactly one state with values k/n", ok)


# -- 8: ordered-decomposition consequences -----------------------------------


def test_criterion_8_ordered_consequences():
    rng = random.Random(808)
    ok = True
    for E in (build_lex_pea(H1, Z), build_lex_pea(HQ, Z)):
        H = E.head_subgroup
        D = decomposition_from_state(E, FirstCoordinateState(E), H)
        report = check_ordered(E, D)
        if not (report.ordered and report.e0_matches_infinitesimals):
            ok = False
        inf = infinitesimals(E)
        grid = list(D.grid)
        one = H.one()
        additive_pairs = oversum_pairs = 0
        while additive_pairs < 200 or oversum_pairs < 200:
            s, t = rng.choice(grid), rng.choice(grid)
            total = H.coerce(s) + H.coerce(t)
            if compare(total, one) is Ordering.LT and additive_pairs < 200:
                x, y = sample_slice(D, s, rng), sample_slice(D, t, rng)
                z = E.add(x, y)
                if z is None or compare(z[0], total) is not Ordering.EQ:
                    ok = False
                if compare(H.coerce(t), H.zero()) is Ordering.GT:
                    w = sample_slice(D, total, rng)
                    rest = E.minus_right(x, w)
                    if rest is None or compare(rest[0], H.coerce(t)) is not Ordering.EQ:
                        ok = False
                additive_pairs += 1
            elif compare(total, one) is Ordering.GT and oversum_pairs < 200:
                x, y = sample_slice(D, s, rng), sample_slice(D, t, rng)
                if E.add(x, y) is not None or E.add(y, x) is not None:
                    ok = False
                oversum_pairs += 1
        for _ in range(100):
            i = sample_slice(D, H.zero(), rng)
            if not inf.contains(i) or E.times(10, i) is None:
                ok = False
    record(8, "ordered slices: infinitesimal bottom, additivity, no oversums", ok)


# -- 9: perfectness classification -------------------------------------------


def test_criterion_9_classification():
    r1 = classify_perfect(build_lex_pea(HQ, Z2), HQ)
    ok = r1.is_strong_h_perfect
    r2 = classify_perfect(build_lex_pea(HQ, Z, f(1)), HQ)
    ok = ok and not r2.strong_one_divisible and r2.first_divisibility_failure == 2
    off = IntervalPea(g.Lex(Z, AFF), (f(1), (f(2), f(0))))
    r3 = classify_perfect(off, H1)
    ok = ok and r3.is_h_perfect and not r3.strong_cyclic and not r3.symmetric
    centered = IntervalPea(g.Lex(Z, AFF), (f(1), (f(1), f(0))))
    r4 = classify_perfect(centered, H1)
    ok = ok and r4.strong_cyclic and r4.symmetric
    record(9, "perfectness flags across rational, translated and affine units", ok)


# -- 10: the representation isomorphism --------------------------------------


def test_criterion_10_representation():
    cases = [
        (HQ, Z, ("identity",)),
        (HQ, Z2, ("permute", (1, 0))),
        (H4, Z, ("translate", f(1))),
        (HS2, Z2, ("permute", (1, 0))),
    ]
    ok = True
    for H, G, spec in cases:
        E, _ = make_shuffled(H, G, spec)
        phi = phi_represent(E)
        report = verify_isomorphism(phi, E, phi.target, samples=500, seed=1010)
        if not report.clean:
            ok = False
    shuffled, _ = make_shuffled(H4, Z, ("translate", f(1)))
    target = build_lex_pea(H4, Z)
    corrupted = verify_isomorphism(
        PhiMap(shuffled, target, corrupt=True), shuffled, target, samples=500, seed=1010
    )
    ok = ok and corrupted.homomorphism_failures > 0
    record(10, "four shuffled encodings verify cleanly; corrupted map fails", ok)


# -- 11: the difference group of the bottom slice ----------------------------


def test_criterion_11_difference_group():
    E = build_lex_pea(HQ, Z2)
    grid = [(HQ.zero(), (i, j)) for i in range(6) for j in range(6)]
    dg, embed = difference_group(E, grid)
    ok = True
    embedded = {embed(x) for x in dg.grid}
    for x in dg.grid:
        cls = embed(x)
        if dg.add(cls, dg.neg(cls)) != dg.zero:
            ok = False
    for x in dg.grid:
        for y in dg.grid:
            cls = dg.add(embed(x), dg.neg(embed(y)))
            if dg.is_positive(cls) != (cls in embedded):
                ok = False
    record(11, "grid differences cancel and the cone is the embedded slice", ok)


# -- 12: functor laws ---------------------------------------------------------


def test_criterion_12_functor_laws():
    rng = random.Random(1212)
    homs = [
        GroupHom(Z, Z, ("scale", 2)),
        GroupHom(Z2, Z2, ("permute", (1, 0))),
        GroupHom(Z2, Z2, ("scale", 3)),
    ]
    ok = True
    for h in homs:
        lifted = functor_map(h, HQ)
        ident = functor_map(GroupHom(h.source, h.source, ("identity",)), HQ)
        composed = functor_map(hom_compose(h, GroupHom(h.source, h.source, ("identity",))), HQ)
        for _ in range(200):
            x = lifted.source.sample(rng)
            if ident(x) != x or composed(x) != lifted(x):
                ok = False
    pair = functor_map(hom_compose(homs[1], homs[2]), HQ)
    for _ in range(200):
        x = pair.source.sample(rng)
        lifted1 = functor_map(homs[2], HQ)
        lifted2 = functor_map(homs[1], HQ)
        if pair(x) != lifted2(lifted1(x)):
            ok = False
            break
    e_id = functor_map(GroupHom(Z, Z, ("identity",)), HQ)
    e_dbl = functor_map(GroupHom(Z, Z, ("scale", 2)), HQ)
    witness = (HQ.zero(), f(1))
    ok = ok and e_id(witness) != e_dbl(witness)
    record(12, "identity/composition laws and the separation witness at (0, 1)", ok)


# -- 13: cyclic exchange -------------------------------------------------------


def test_criterion_13_cyclic_exchange():
    ok = True
    for E in (finite_chain(2), finite_chain(4)):
        generator = 1  # the atom of the chain, of maximal cyclic order
        verdict = cyclic_exchange_check(E, generator)
        if not (verdict.holds and verdict.exhaustive):
            ok = False
    E = build_lex_pea(HQ, Z)
    verdict = cyclic_exchange_check(E, (Fraction(1, 2), f(0)))
    ok = ok and verdict.holds and verdict.exhaustive
    record(13, "exchange holds exhaustively on chains and exactly on an interval algebra", ok)
