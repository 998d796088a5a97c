"""Representation maps, difference groups and the interval-algebra functor."""

import random
from fractions import Fraction

import pytest

from ordalg import groups as g
from ordalg.decomp import _integral_action
from ordalg.errors import PreconditionError, UnsupportedError
from ordalg.pea import IntervalPea
from ordalg.represent import (
    DifferenceGroup,
    GroupHom,
    PeaHom,
    PhiMap,
    build_lex_pea,
    difference_group,
    functor_map,
    hom_compose,
    hom_verify,
    make_shuffled,
    phi_represent,
    verify_isomorphism,
)
from ordalg.parsing import parse_descriptor, parse_element, parse_spec, parse_subgroup
from ordalg.scalars import Ordering, QuadraticNumber, ScalarSubgroup, compare, grid_points

from com_reference import enumerate_interval
from isomorphism_reference import reference_verify_isomorphism
from test_cli_golden import CASES

Z = g.ZZ
Z2 = g.IntVector(2)
HQ = ScalarSubgroup.rationals()
H4 = ScalarSubgroup.cyclic(4)
H1 = ScalarSubgroup.cyclic(1)
HS2 = ScalarSubgroup.quadratic(2)


def f(x):
    return Fraction(x)


def test_build_canonical():
    E = build_lex_pea(HQ, Z)
    assert E.unit == (f(1), f(0))
    assert E.contains((Fraction(1, 2), f(-3)))


def test_build_translated_unit_loses_divisibility():
    E = build_lex_pea(HQ, Z, f(1))
    from ordalg.pea import cyclic_elements

    assert cyclic_elements(E, 2) == []


def test_phi_identity_on_canonical():
    E = build_lex_pea(HQ, Z)
    phi = phi_represent(E)
    x = (Fraction(1, 2), f(-3))
    assert phi(x) == x
    assert phi((Fraction(1, 3), f(4))) == (Fraction(1, 3), f(4))


def test_phi_on_cyclic_entry():
    E = build_lex_pea(H4, Z, f(4))
    phi = phi_represent(E)
    c = phi.cyclic_entry(Fraction(1, 2))
    assert c == (Fraction(1, 2), f(2))
    assert phi(c) == (Fraction(1, 2), f(0))


def test_phi_undoes_translate_shuffle():
    shuffled, alpha = make_shuffled(H4, Z, ("translate", f(1)))
    assert shuffled.unit == (f(1), f(4))
    phi = phi_represent(shuffled)
    raw = build_lex_pea(H4, Z)
    rng = random.Random(3)
    for _ in range(100):
        x = raw.sample(rng)
        assert phi(alpha(x)) == x


def test_phi_requires_strong_perfect():
    E = build_lex_pea(HQ, Z, f(1))  # strong divisibility fails at 2
    with pytest.raises(PreconditionError):
        phi_represent(E)


def test_phi_requires_every_entry_of_a_q_cyclic_system():
    # 720 has an n-th part for n <= 6, the denominators of the Q grid, but
    # c_{1/7} = (1/7, 720/7) does not exist
    with pytest.raises(PreconditionError, match="not a strong perfect algebra"):
        phi_represent(build_lex_pea(HQ, Z, f(720)))
    phi = phi_represent(build_lex_pea(HQ, g.QQ, f(720)))
    assert phi((Fraction(1, 7), f(0))) == (Fraction(1, 7), Fraction(-720, 7))


@pytest.mark.parametrize(
    "H,G,spec",
    [
        (HQ, Z, ("identity",)),
        (HQ, Z2, ("permute", (1, 0))),
        (H4, Z, ("translate", f(1))),
        (HS2, Z2, ("permute", (1, 0))),
    ],
)
def test_verify_isomorphism_clean(H, G, spec):
    shuffled, alpha = make_shuffled(H, G, spec)
    phi = phi_represent(shuffled)
    target = build_lex_pea(H, G)
    report = verify_isomorphism(phi, shuffled, target, samples=300, seed=7)
    assert report.clean, report.summary()
    # one map call adds the kept -c_t: the difference x - c_t of the docstring
    rng = random.Random(41)
    for _ in range(200):
        x = shuffled.sample(rng)
        t, tail = x
        fx = phi(x)
        assert fx == (t, G.sub_right(tail, phi.cyclic_entry(t)[1]))
        assert phi.preimage(fx) == x
        z = phi.target.sample(rng)
        assert phi(phi.preimage(z)) == z


def test_composite_with_automorphism_is_still_isomorphism():
    shuffled, alpha = make_shuffled(HQ, Z2, ("permute", (1, 0)))
    phi = phi_represent(shuffled)
    raw = build_lex_pea(HQ, Z2)

    def composite(x):
        return phi(alpha(x))

    def composite_preimage(z):
        t, tail = phi.preimage(z)
        return (t, (tail[1], tail[0]))

    report = verify_isomorphism(
        composite, raw, build_lex_pea(HQ, Z2), samples=300, seed=9, preimage=composite_preimage
    )
    assert report.clean, report.summary()


def test_corrupted_phi_reports_failures():
    shuffled, _ = make_shuffled(H4, Z, ("translate", f(1)))
    target = build_lex_pea(H4, Z)
    bad = PhiMap(shuffled, target, corrupt=True)
    report = verify_isomorphism(bad, shuffled, target, samples=300, seed=11)
    assert report.homomorphism_failures > 0


def represent_maps():
    """(name, phi, E, F): the benchmark's four representations, its corrupt
    map, and maps over the non-Abelian tail Aff, one of them off a unit
    that is not central, so that no theorem makes it clean."""
    aff = g.AffineQ()
    for name, H, G, spec in (
        ("Q-Z", HQ, Z, ("identity",)),
        ("Q-Z^2", HQ, Z2, ("permute", (1, 0))),
        ("Z/4-Z", H4, Z, ("translate", f(1))),
        ("sqrt2-Z^2", HS2, Z2, ("permute", (1, 0))),
        ("Q-Aff", HQ, aff, ("identity",)),
    ):
        E, _ = make_shuffled(H, G, spec)
        phi = phi_represent(E)
        yield name, phi, E, phi.target
    E, _ = make_shuffled(H4, Z, ("translate", f(1)))
    yield "Z/4-Z-corrupt", PhiMap(E, build_lex_pea(H4, Z), corrupt=True), E, build_lex_pea(H4, Z)
    E, F = build_lex_pea(H4, aff, (f(1), f(1))), build_lex_pea(H4, aff)
    yield "Z/4-Aff-translation", PhiMap(E, F), E, F
    yield "Z/4-Aff-translation-corrupt", PhiMap(E, F, corrupt=True), E, F


def test_verify_isomorphism_reports_as_the_loop_with_both_negations():
    # field for field at several seeds; the right negations are compared as
    # often as there exactly when a group is not Abelian, and never otherwise
    failing, compared = set(), set()
    for name, phi, E, F in represent_maps():
        calls = {"reference": [], "package": []}
        rneg = E.rneg
        for seed in (0, 1, 7, 11):
            reports = {}
            for side, check in (("reference", reference_verify_isomorphism), ("package", verify_isomorphism)):
                E.rneg = lambda a, seen=calls[side]: seen.append(a) or rneg(a)
                reports[side] = check(phi, E, F, samples=80, seed=seed)
                del E.rneg
            assert reports["package"] == reports["reference"], (name, seed)
            if not reports["reference"].clean:
                failing.add(name)
        abelian = E.group.is_abelian() and F.group.is_abelian()
        assert calls["package"] == ([] if abelian else calls["reference"]), name
        if calls["package"]:
            compared.add(name)
    # a corrupt map fails the left negation first, so its right one never runs
    assert compared == {"Q-Aff", "Z/4-Aff-translation"}
    assert failing == {"Z/4-Z-corrupt", "Z/4-Aff-translation", "Z/4-Aff-translation-corrupt"}


@pytest.mark.parametrize(
    "H,G,g0",
    [(H4, Z, f(4)), (HQ, Z, f(0)), (HQ, g.QQ, f(3)), (HS2, Z, f(3)), (HS2, Z2, (1, -2))],
    ids=["Z/4-Z", "Q-Z", "Q-Q", "sqrt2-Z", "sqrt2-Z^2"],
)
def test_cyclic_entries_by_head_equal_the_integral_action(H, G, g0):
    E = build_lex_pea(H, G, g0)
    phi = PhiMap(E, build_lex_pea(H, G))
    for _ in range(2):  # the second pass reads the kept entries
        for t in grid_points(H):
            assert phi.cyclic_entry(t) == (t, _integral_action(G, g0, t))


@pytest.mark.parametrize(
    "H, G, g0, heads",
    [
        (H4, Z, f(4), [1, f(1), 0, f(0), Fraction(1, 4), Fraction(3, 4), f(1), 1]),
        # 1/2 and 1 + 2*sqrt(2) share the numbers 1 and 2 but not their c_t
        (HS2, Z2, (2, -4), [HS2.coerce(1), 1, Fraction(1, 2), QuadraticNumber(1, 2, 2),
                            QuadraticNumber(2, -1, 2), QuadraticNumber(0, 1, 2), 2, HS2.coerce(0)]),
    ],
    ids=["Z/4-Z", "sqrt2-Z^2"],
)
def test_phi_keeps_entries_by_head_value(H, G, g0, heads):
    E = build_lex_pea(H, G, g0)
    phi = PhiMap(E, build_lex_pea(H, G))
    rng = random.Random(f"heads-{H}")
    for _ in range(2):  # the second pass reads the kept entries
        for t in heads:
            tail = G.sample_element(rng)
            c_t = _integral_action(G, g0, t)
            assert phi((t, tail)) == (t, G.add(tail, G.neg(c_t)))
            assert phi.preimage((t, tail)) == (t, G.add(tail, c_t))
            assert phi.cyclic_entry(t) == (t, c_t)
    # an int head and the equal Fraction head give equal images
    assert phi((1, G.zero())) == phi((f(1), G.zero())) == (1, G.neg(_integral_action(G, g0, 1)))


def test_missing_cyclic_entry_raises_on_every_call():
    E = build_lex_pea(HQ, Z, f(1))  # gamma(lex(Q, Z), (1, 1)): 1 is not 2-divisible
    phi = PhiMap(E, build_lex_pea(HQ, Z))
    half = Fraction(1, 2)
    for _ in range(2):
        with pytest.raises(PreconditionError):
            phi.cyclic_entry(half)
        with pytest.raises(PreconditionError):
            phi((half, f(0)))
        with pytest.raises(PreconditionError):
            phi.preimage((half, f(0)))
    assert phi.cyclic_entry(f(1)) == (f(1), f(1))


def test_corrupted_phi_fails_after_the_clean_map_kept_its_entries():
    shuffled, _ = make_shuffled(H4, Z, ("translate", f(1)))
    phi = phi_represent(shuffled)
    assert verify_isomorphism(phi, shuffled, phi.target, samples=100, seed=11).clean
    bad = PhiMap(phi.source, phi.target, corrupt=True)
    report = verify_isomorphism(bad, shuffled, phi.target, samples=100, seed=11)
    assert report.homomorphism_failures > 0
    assert verify_isomorphism(phi, shuffled, phi.target, samples=100, seed=11).clean


def test_conjugate_shuffle_affine_tail():
    aff = g.AffineQ()
    E, alpha = make_shuffled(H1, aff, ("conjugate", (f(2), f(1))))
    raw = build_lex_pea(H1, aff)
    rng = random.Random(13)
    # alpha is a unital automorphism: additive, order preserving, unit fixing
    assert alpha(raw.unit) == raw.unit
    for _ in range(200):
        x, y = raw.sample(rng), raw.sample(rng)
        lhs = alpha(g.add(raw.group, x, y))
        rhs = g.add(raw.group, alpha(x), alpha(y))
        assert lhs == rhs
        assert raw.leq(x, y) == raw.leq(alpha(x), alpha(y))


# ---------------------------------------------------------------------------
# difference groups


def grid_e0(E, bound):
    return [
        (E.head_subgroup.zero(), (i, j)) for i in range(bound + 1) for j in range(bound + 1)
    ]


def test_difference_group_of_lattice_slice():
    E = build_lex_pea(HQ, Z2)
    dg, embed = difference_group(E, grid_e0(E, 5))
    zero = dg.zero
    # cancellation holds on all grid pairs
    for x in dg.grid:
        cls = embed(x)
        assert dg.add(cls, dg.neg(cls)) == zero
    # the positive cone is exactly the embedded slice
    embedded = {embed(x) for x in dg.grid}
    for x in dg.grid:
        for y in dg.grid:
            cls = dg.add(embed(x), dg.neg(embed(y)))
            assert dg.is_positive(cls) == (cls in embedded)


def test_difference_group_matches_vector_group():
    E = build_lex_pea(HQ, Z2)
    dg, embed = difference_group(E, grid_e0(E, 3))

    def to_vector(cls):
        return tuple(p - m for p, m in zip(cls.plus[1], cls.minus[1]))

    seen = {}
    for x in dg.grid:
        for y in dg.grid:
            cls = dg.add(embed(x), dg.neg(embed(y)))
            vec = to_vector(cls)
            if vec in seen:
                assert seen[vec] == cls
            seen[vec] = cls
            assert dg.is_positive(cls) == all(v >= 0 for v in vec)
    # group laws on a subgrid of classes
    classes = list(seen.values())[:12]
    for p in classes:
        for q in classes:
            assert to_vector(dg.add(p, q)) == tuple(
                a + b for a, b in zip(to_vector(p), to_vector(q))
            )


@pytest.mark.parametrize("G,hi", [(Z, f(3)), (Z2, (3, 3)), (g.Product(Z, Z), (f(3), f(2)))])
def test_difference_classes_keyed_like_the_scan(G, hi):
    # the pairwise scan is the reference: make returns the same first
    # representative of each class as the scan does
    E = build_lex_pea(HQ, G)
    grid = [(HQ.zero(), x) for x in enumerate_interval(G, hi)]
    keyed, scan = DifferenceGroup(E, grid), DifferenceGroup(E, grid)
    scan._by_key = None
    rng = random.Random(29)
    for _ in range(300):
        w, x, y, z = (rng.choice(keyed.grid) for _ in range(4))
        plus, minus = E.add(w, x), E.add(y, z)
        assert keyed.make(plus, minus) == scan.make(plus, minus)
    assert len(keyed._by_key) == len(scan._reps)


def test_difference_group_trivial():
    E = build_lex_pea(HQ, Z)
    dg, embed = difference_group(E, [(HQ.zero(), f(0))])
    assert dg.add(dg.zero, dg.zero) == dg.zero


def test_difference_group_of_finite_bottom_slice_is_trivial():
    from ordalg.pea import finite_chain

    E = finite_chain(2)
    dg, embed = difference_group(E, [E.zero])  # the bottom slice is {0}
    assert dg.add(dg.zero, dg.zero) == dg.zero
    assert dg.neg(dg.zero) == dg.zero
    assert dg.is_positive(dg.zero)


def test_difference_group_rejects_noncommutative():
    aff = g.AffineQ()
    E = build_lex_pea(H1, aff)
    grid = [
        (f(0), (f(1), f(0))),
        (f(0), (f(2), f(0))),
        (f(0), (f(2), f(1))),
        (f(0), (f(1), f(1))),
    ]
    with pytest.raises(UnsupportedError):
        difference_group(E, grid)


# ---------------------------------------------------------------------------
# the functor on morphisms


def test_functor_rule_matches_displayed_formula():
    h = GroupHom(Z, Z, ("scale", 2))
    Eh = functor_map(h, HQ)
    assert Eh((Fraction(1, 2), f(3))) == (Fraction(1, 2), f(6))


def test_functor_identity_law():
    h = GroupHom(Z, Z, ("identity",))
    Eh = functor_map(h, HQ)
    rng = random.Random(17)
    E = Eh.source
    for _ in range(100):
        x = E.sample(rng)
        assert Eh(x) == x


def test_functor_composition_law():
    h1 = GroupHom(Z2, Z2, ("permute", (1, 0)))
    h2 = GroupHom(Z2, Z2, ("scale", 3))
    composed = hom_compose(h2, h1)
    E2 = functor_map(composed, H4)
    Eh1 = functor_map(h1, H4)
    Eh2 = functor_map(h2, H4)
    rng = random.Random(19)
    for _ in range(100):
        x = Eh1.source.sample(rng)
        assert E2(x) == Eh2(Eh1(x))


@pytest.mark.parametrize("name", [
    name for name, argv in CASES.items() if argv[0] == "functor" and "not_a_hom" not in name
])
def test_functor_laws_hold_on_the_golden_cases(name):
    # `ordalg functor` prints both laws as True by construction; sample them
    # on each golden case: the identity lift and the lift of h after the
    # identity, against the lift the verb builds
    opts = dict(zip(CASES[name][1::2], CASES[name][2::2]))
    G = parse_descriptor(opts["--G"])
    h = GroupHom(G, G, parse_spec("homomorphism", opts["--hom"], G))
    rng = random.Random(0)
    lifted = functor_map(h, parse_subgroup(opts["--H"]), rng, int(opts.get("--samples", 100)))
    identity = GroupHom(G, G, ("identity",))
    ident = PeaHom(lifted.source, lifted.source, identity)
    composed = PeaHom(lifted.source, lifted.target, hom_compose(h, identity))
    for _ in range(200):
        x = lifted.source.sample(rng)
        assert ident(x) == x
        assert composed(x) == lifted(x)


def test_faithfulness_witness():
    h1 = GroupHom(Z, Z, ("identity",))
    h2 = GroupHom(Z, Z, ("scale", 2))
    E1 = functor_map(h1, HQ)
    E2 = functor_map(h2, HQ)
    probe = (HQ.zero(), f(1))  # the distinguishing point (0, 1)
    assert E1(probe) != E2(probe)


@pytest.mark.parametrize("hom, desc", [("scale(-1)", "Z"), ("scale(-1)", "Q"), ("scale(2)", "Aff")])
def test_non_homomorphism_witness_reads_back(hom, desc):
    # the message, and so the #! line, names the witness in the element grammar
    G = parse_descriptor(desc)
    h = GroupHom(G, G, parse_spec("homomorphism", hom, G))
    law, x, y = hom_verify(h, random.Random(0), 100)
    with pytest.raises(PreconditionError) as exc:
        functor_map(h, HQ, random.Random(0))
    message, at = str(exc.value).split(f": {law} at ")
    assert message == "not a po-group homomorphism"
    assert parse_element(g.Product(G, G), at) == (x, y)


def test_hom_verify_rejects_non_hom():
    bad = GroupHom(Z, Z, ("compose", lambda x: x * x, lambda x: x))
    rng = random.Random(21)
    assert hom_verify(bad, rng) is not None


def test_lattice_positive_negative_parts_of_slice_differences():
    # over a lattice the slice difference splits as a difference of its
    # positive and negative parts, both landing in the bottom-slice cone
    E = build_lex_pea(HQ, Z2)
    phi = phi_represent(E)
    G = E.group
    zero = G.zero()
    rng = random.Random(31)
    for _ in range(150):
        x = E.sample(rng)
        c = phi.cyclic_entry(x[0])
        diff = G.sub_right(x, c)
        pos = G.sub_right(g.join(G, x, c), c)  # (x v c) - c
        neg_part = G.sub_right(c, G.meet(x, c))  # c - (x ^ c)
        assert pos == g.join(G, diff, zero)
        assert neg_part == g.neg(G, G.meet(diff, zero))
        assert G.sub_right(pos, neg_part) == diff
        assert g.positive_cone_member(G, pos) and pos[0] == HQ.zero()
        assert g.positive_cone_member(G, neg_part) and neg_part[0] == HQ.zero()


def reconstruct_hom(f, source: IntervalPea, target: IntervalPea):
    """Recover the tail homomorphism of an interval-algebra map.

    Positive tails are read off the bottom slice; arbitrary tails split as a
    difference of positives.
    """
    G = source.tail_group
    Gt = target.tail_group
    zero_t = source.head_subgroup.zero()

    def on_positive(gp):
        image = f((zero_t, gp))
        if compare(image[0], target.head_subgroup.zero()) is not Ordering.EQ:
            raise PreconditionError("map does not preserve the bottom slice")
        return image[1]

    def hom(x):
        lower = g.lower_bound(G, [x, G.zero()])
        g2 = g.neg(G, lower)
        g1 = g.add(G, x, g2)
        return Gt.sub_right(on_positive(g1), on_positive(g2))

    return hom


def test_fullness_reconstruction():
    h = GroupHom(Z2, Z2, ("scale", 2))
    Eh = functor_map(h, HQ)
    rebuilt = reconstruct_hom(Eh, Eh.source, Eh.target)
    rng = random.Random(23)
    from ordalg.sampling import sample_element

    for _ in range(100):
        x = sample_element(Z2, rng, 8)
        assert rebuilt(x) == h(x)
