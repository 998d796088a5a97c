"""The samplers draw exactly as the reference copies in ``reference_samplers``.

Over many seeds each sampler must return equal values with equal reprs (so
equal value types too) and leave ``random.Random`` in the same state as its
reference: every seeded sampled check then keeps its draws.  Covered are
``sample_between`` of each subgroup kind on bounds of its own grid,
``sample_element`` and ``sample_positive`` on the property trees (lex tails
draw from them), ``sample_interval`` below product bounds with a zero part
and below affine translations, and ``IntervalPea.sample`` on the property
trees with strong units and on the four algebras that the ``represent``
verb checks.  ``IntervalPea.sample`` keeps one draw plan per bound, so two
algebras over one group draw in turn from one rng, one algebra draws at
several bounds, units sit far from 1 (a (1/3)Z head of 10**12/3 must plan
without listing its grid) and heads are ``Aff`` or lex pairs; the
``--corrupt`` control counts as with the reference sampler patched in.
Digests pin the first 200 draws on those four algebras, on
``gamma(lex(Z, Aff), (1, (2, 0)))`` and below lex heads that are lex pairs.
Quadratic results built without validation equal, hash and print like the
validating constructor's.
"""

import hashlib
import io
import random
import re
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from ordalg import groups as g
from ordalg.cli import main
from ordalg.parsing import parse_interval_pea
from ordalg.pea import IntervalPea
from ordalg.represent import build_lex_pea, make_shuffled
from ordalg.scalars import QuadraticNumber, ScalarSubgroup

import reference_samplers as ref
from test_properties import TREES, strong_unit

SEEDS = range(30)


def assert_same_draws(draw, reference, count):
    for seed in SEEDS:
        r1, r2 = random.Random(seed), random.Random(seed)
        got = [draw(r1) for _ in range(count)]
        want = [reference(r2) for _ in range(count)]
        assert got == want and repr(got) == repr(want), seed
        assert r1.getstate() == r2.getstate(), seed


def grid_bounds(H, rng, count=12):
    """Pairs lo < hi of elements of H."""
    kind, n = H.classify()
    out = []
    while len(out) < count:
        if kind == "cyclic":
            lo, hi = sorted(rng.sample(range(-3 * n, 3 * n + 1), 2))
            pair = (lo, hi) if n == 1 else (Fraction(lo, n), Fraction(hi, n))
        elif not hasattr(H, "d"):
            pair = tuple(sorted({Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(2)}))
        else:
            pair = tuple(sorted({QuadraticNumber(rng.randint(-4, 4), rng.randint(-3, 3), H.d)
                                 for _ in range(2)}))
        if len(pair) == 2:
            out.append(pair)
    return out


@pytest.mark.parametrize(
    "H",
    [ScalarSubgroup.cyclic(n) for n in (1, 2, 3, 4)]
    + [ScalarSubgroup.rationals()]
    + [ScalarSubgroup.quadratic(d) for d in (2, 3, 5)],
    ids=str,
)
def test_sample_between_draws_as_the_reference(H):
    bounds = grid_bounds(H, random.Random(f"bounds-{H}"))
    if hasattr(H, "d"):  # a window with no m + k*sqrt(d), |k| <= 8: every try misses
        bounds.append((H.zero(), H.coerce(Fraction(1, 100))))
    for lo, hi in bounds:
        assert_same_draws(lambda r: H.sample_between(lo, hi, r),
                          lambda r: ref.sample_between(H, lo, hi, r), count=2)


def test_interval_samples_on_the_trees_draw_as_the_reference():
    rng = random.Random(2400)
    for desc in TREES:
        for _ in range(2):
            E = IntervalPea(desc, strong_unit(desc, rng))
            assert_same_draws(E.sample, lambda r: ref.sample_interval(desc, E.unit, r, 8), count=3)


def test_element_and_positive_samples_on_the_trees_draw_as_the_reference():
    # the lex tails draw from these; a lex head is an element flipped when negative
    for desc in TREES:
        for bound in (1, 5):
            assert_same_draws(lambda r: desc.sample_element(r, bound),
                              lambda r: ref.sample_element(desc, r, bound), count=3)
            assert_same_draws(lambda r: desc.sample_positive(r, bound),
                              lambda r: ref.sample_positive(desc, r, bound), count=3)


QS2 = g.Scalar(ScalarSubgroup.quadratic(2))


@pytest.mark.parametrize(
    "desc, hi",
    [
        (g.Product(g.ZZ, g.IntVector(2)), (0, (2, 3))),
        (g.Product(g.ZZ, g.IntVector(2)), (4, (0, 0))),
        (g.Product(QS2, g.Product(g.QQ, g.AffineQ())), (QuadraticNumber(1, 1, 2), (0, (3, 1)))),
        (g.Product(g.Lex(g.QQ, g.IntVector(1)), QS2), ((0, (5,)), 0)),
        (g.Lex(g.QQ, g.Product(g.IntVector(2), g.QQ)), (0, ((0, 0), Fraction(5, 2)))),
    ],
    ids=["prod(Z, Z^2) zero left", "prod(Z, Z^2) zero right", "prod nested zero middle",
         "prod(lex, Q[sqrt 2]) zero right", "lex over prod, zero head"],
)
def test_product_parts_that_are_zero_draw_as_the_reference(desc, hi):
    # a zero part draws nothing; the reference re-enters the checked sampler per part
    hi = desc.check_element(hi)
    assert_same_draws(lambda r: desc.sample_interval(hi, r, 8),
                      lambda r: ref.sample_interval(desc, hi, r, 8), count=5)


@pytest.mark.parametrize(
    "H, G, spec",
    [
        (ScalarSubgroup.rationals(), g.ZZ, ("identity",)),
        (ScalarSubgroup.rationals(), g.IntVector(2), ("permute", (1, 0))),
        (ScalarSubgroup.cyclic(4), g.ZZ, ("translate", 1)),
        (ScalarSubgroup.quadratic(2), g.IntVector(2), ("permute", (1, 0))),
    ],
    ids=["lex(Q, Z)", "lex(Q, Z^2)", "lex(Z/4, Z)", "lex(Q[sqrt 2], Z^2)"],
)
def test_represent_algebra_samples_draw_as_the_reference(H, G, spec):
    shuffled, _ = make_shuffled(H, G, spec)
    for E in (shuffled, build_lex_pea(H, G)):
        assert_same_draws(E.sample, lambda r: ref.sample_interval(E.group, E.unit, r, 8), count=20)


def assert_same_interleaved_draws(schedule, count=20):
    """Draws of the (algebra, bound) pairs in turn from one rng, as the reference's."""
    for seed in SEEDS:
        r1, r2 = random.Random(seed), random.Random(seed)
        for _ in range(count):
            for E, bound in schedule:
                got, want = E.sample(r1, bound), ref.sample_interval(E.group, E.unit, r2, bound)
                assert got == want and repr(got) == repr(want), (seed, E, bound)
                assert r1.getstate() == r2.getstate(), (seed, E, bound)


@pytest.mark.parametrize(
    "group, units",
    [
        (g.Lex(g.Scalar(ScalarSubgroup.cyclic(4)), g.ZZ), [(1, 0), (1, 4)]),
        (g.Lex(g.QQ, g.IntVector(2)), [(1, (0, 0)), (Fraction(7, 3), (2, -3))]),
        (g.Lex(QS2, g.ZZ), [(1, 0), (QuadraticNumber(3, 2, 2), 5)]),
    ],
    ids=["lex(Z/4, Z)", "lex(Q, Z^2)", "lex(Q[sqrt 2], Z)"],
)
def test_two_algebras_over_one_group_draw_alternately_as_the_reference(group, units):
    # verify_isomorphism draws x and y from E, then a target from F, on one rng;
    # each algebra keeps its own plan
    E, F = (IntervalPea(group, u) for u in units)
    assert_same_interleaved_draws([(E, 8), (E, 8), (F, 8)])


def test_one_algebra_draws_at_several_bounds_as_the_reference():
    # one plan per bound: 3, then 8, then 3 again
    for E in (build_lex_pea(ScalarSubgroup.rationals(), g.IntVector(2)),
              build_lex_pea(ScalarSubgroup.cyclic(3), g.ZZ),
              parse_interval_pea("gamma(lex(Z, Aff), (1, (2, 0)))")):
        assert_same_interleaved_draws([(E, 3), (E, 8), (E, 3)], count=10)


@pytest.mark.parametrize(
    "desc, unit",
    [
        # k_hi = 10**12: the (1/3)Z head is planned without listing its grid
        (g.Lex(g.Scalar(ScalarSubgroup.cyclic(3)), g.ZZ), (Fraction(10**12, 3), 5)),
        (g.Lex(g.QQ, g.ZZ), (Fraction(7, 3), -2)),
        # 3 + 2*sqrt(2): the window of k = 0 holds m = 0..5
        (g.Lex(QS2, g.IntVector(2)), (QuadraticNumber(3, 2, 2), (1, 0))),
        (g.Lex(g.AffineQ(), g.ZZ), ((Fraction(3), Fraction(-1, 2)), 4)),
        (g.Lex(g.AffineQ(), g.IntVector(2)), ((Fraction(5, 2), Fraction(3)), (1, 2))),
        (g.Lex(g.Lex(g.ZZ, g.ZZ), g.ZZ), ((1, -3), 2)),
        (g.Lex(g.Lex(g.AffineQ(), g.ZZ), g.AffineQ()),
         (((Fraction(2), Fraction(1)), 0), (Fraction(1), Fraction(1)))),
    ],
    ids=["Z/3 head 10**12/3", "Q head 7/3", "Q[sqrt 2] head 3 + 2*sqrt(2)",
         "lex(Aff, Z)", "lex(Aff, Z^2)", "lex(lex(Z, Z), Z)",
         "lex(lex(Aff, Z), Aff)"],
)
def test_units_far_from_one_and_non_scalar_heads_draw_as_the_reference(desc, unit):
    E = IntervalPea(desc, unit)
    assert_same_draws(E.sample, lambda r: ref.sample_interval(desc, E.unit, r, 8), count=20)


def test_affine_translation_bounds_draw_as_the_reference():
    # no strong unit is a translation (1, b), so only sample_interval draws below one
    desc = g.AffineQ()
    for hi in ((Fraction(1), Fraction(5, 2)), (Fraction(1), Fraction(7, 3))):
        assert_same_draws(lambda r: desc.sample_interval(hi, r, 8),
                          lambda r: ref.sample_interval(desc, hi, r, 8), count=5)


def test_the_corrupt_control_counts_as_with_the_reference_sampler(monkeypatch):
    # the benchmark's negative control: every hom_failures count stays the reference's
    argv = ["represent", "--H", "Z/4", "--G", "Z", "--shuffle", "translate(1)", "--corrupt",
            "--samples", "100", "--seed"]

    def counts():
        out = []
        for seed in range(10):
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert main(argv + [str(seed)]) == 1
            out.append(re.search(r"hom_failures=(\d+)", buf.getvalue()).group(1))
        return out

    planned = counts()
    monkeypatch.setattr(IntervalPea, "sample",
                        lambda self, rng, bound=8: ref.sample_interval(self.group, self.unit, rng, bound))
    assert planned == counts()
    assert all(int(c) > 0 for c in planned)


def draw_digest(values):
    return hashlib.sha256("\n".join(map(repr, values)).encode()).hexdigest()[:16]


# sha256 prefixes of the reprs of 200 draws at seed 32: the four algebras
# that the benchmark's represent ops sample, and a lex head of Aff
@pytest.mark.parametrize(
    "algebra, digest",
    [
        (lambda: make_shuffled(ScalarSubgroup.rationals(), g.ZZ, ("identity",))[0],
         "fe5892a988191b06"),
        (lambda: make_shuffled(ScalarSubgroup.rationals(), g.IntVector(2), ("permute", (1, 0)))[0],
         "2a841ac7393e5adc"),
        (lambda: make_shuffled(ScalarSubgroup.cyclic(4), g.ZZ, ("translate", 1))[0],
         "11acaa7aae674e20"),
        (lambda: make_shuffled(ScalarSubgroup.quadratic(2), g.IntVector(2), ("permute", (1, 0)))[0],
         "7b88ec0244ca60cb"),
        (lambda: parse_interval_pea("gamma(lex(Z, Aff), (1, (2, 0)))"), "a0526065beaa91f9"),
    ],
    ids=["lex(Q, Z)", "lex(Q, Z^2)", "lex(Z/4, Z) translate", "lex(Q[sqrt 2], Z^2)",
         "gamma(lex(Z, Aff), (1, (2, 0)))"],
)
def test_interval_draws_are_pinned(algebra, digest):
    E, rng = algebra(), random.Random(32)
    assert draw_digest([E.sample(rng) for _ in range(200)]) == digest


def test_quadratic_heads_reach_both_ends_of_the_interval():
    # the windows are closed, so the slices E_0 and E_1 are drawn, and a head
    # drawn at 1 takes a tail below the unit's tail 0
    E = build_lex_pea(ScalarSubgroup.quadratic(2), g.IntVector(2))
    rng = random.Random(0)
    draws = [E.sample(rng) for _ in range(5000)]
    assert all(E.contains(x) for x in draws)
    heads = {x[0] for x in draws}
    assert E.zero[0] in heads and E.unit[0] in heads


def test_lex_over_lex_heads_draws_are_pinned():
    # a head that is itself a lex pair is drawn at one of its two ends
    desc, rng = g.Lex(g.Lex(g.AffineQ(), g.ZZ), g.AffineQ()), random.Random(32)
    draws = []
    for _ in range(200):
        hi = desc.sample_positive(rng, 5)
        draws.append((hi, desc.sample_interval(hi, rng, 5)))
    assert draw_digest(draws) == "c456f39b9d999ac7"


def test_quadratic_arithmetic_results_match_the_validating_constructor():
    rng = random.Random(77)
    for d in (2, 3, 5):
        for _ in range(60):
            x, y = (QuadraticNumber(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                                    Fraction(rng.randint(-9, 9), rng.randint(1, 6)), d)
                    for _ in range(2))
            q = rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
            for r in (x + y, x - y, -x, x * y, x * q, q * x, x + q, q + x, x - q):
                checked = QuadraticNumber(r.a, r.b, r.d)
                for c in (r.a, r.b):  # an int exactly when integral
                    assert type(c) is (int if c.denominator == 1 else Fraction)
                assert r == checked and hash(r) == hash(checked) and repr(r) == repr(checked)
