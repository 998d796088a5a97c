"""Representation of strongly perfect interval algebras over lex products.

``build_lex_pea`` constructs the canonical interval Gamma(Lex(Scalar(H), G),
(1, 0)); ``phi_represent`` maps any strong perfect presentation onto it by
subtracting the cyclic-system entry of each slice, and ``PhiMap.preimage``
adds it back.  ``verify_isomorphism`` stress-tests such a map on seeded
samples (homomorphism, injectivity, order both ways) and probes
surjectivity through the map's own preimage, or one the caller supplies.
``difference_group`` builds the group of formal differences of the bottom
slice from a grid of it: a class [a - b] is the group difference a - b and
is positive exactly when b <= a.  ``functor_map`` lifts a sampled group
homomorphism to interval-algebra homomorphisms; ``permute`` rules must
permute the coordinates of a Z^k group.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import groups as g
from .decomp import _integral_action, classify_perfect
from .errors import PreconditionError, UnsupportedError
from .pea import IntervalPea, infinitesimals
from .sampling import sample_element
from .scalars import QuadraticNumber, ScalarSubgroup


def build_lex_pea(H: ScalarSubgroup, G, g0=None) -> IntervalPea:
    """The interval algebra of Lex(Scalar(H), G) with unit (1, g0)."""
    if not G.is_directed():
        raise PreconditionError("the bottom group must be directed")
    if not G.is_torsion_free():
        raise PreconditionError("the bottom group must be torsion-free")
    if g0 is None:
        g0 = G.zero()
    return IntervalPea(g.Lex(g.Scalar(H), G), (H.one(), g0))


# ---------------------------------------------------------------------------
# the representation map


@dataclass(frozen=True)
class PhiMap:
    """x in slice t maps to (t, x - c_t), with c_t from the cyclic system.

    c_t depends on the head t only, so each map keeps the tails (c_t, -c_t)
    in a dict keyed by the value of t in a form that hashes and compares in
    C: ``t.as_integer_ratio()`` for an int or Fraction head, so equal ints
    and Fractions share an entry, and the int coefficients ``(a, b, d)`` for
    a head a + b*sqrt(d).  One map call is one lookup and one tail addition;
    a head without an entry is not kept and raises again on every call.
    """

    source: IntervalPea
    target: IntervalPea
    corrupt: bool = False  # drop the c_t subtraction (negative control)
    _tails: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _tail_group: g.GroupDescriptor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_tail_group", self.source.tail_group)

    def _entry_tails(self, t, key):
        """The tails (c_t, -c_t) of the entry at head t, kept under key."""
        G = self._tail_group
        tail = _integral_action(G, self.source.tail_unit, t)
        if tail is None:
            raise PreconditionError(
                f"no cyclic-system entry for slice {t}: t * g0 does not exist in {G}"
            )
        tails = self._tails[key] = (tail, G.neg(tail))
        return tails

    def __call__(self, x):
        t, gx = x
        if self.corrupt:
            return (t, gx)
        # the key is built inline so that a kept entry costs no further call
        key = (t.a, t.b, t.d) if type(t) is QuadraticNumber else t.as_integer_ratio()
        tails = self._tails.get(key) or self._entry_tails(t, key)
        # c_t is central, so left and right differences agree
        return (t, self._tail_group.add(gx, tails[1]))

    def preimage(self, z):
        t, gz = z
        key = (t.a, t.b, t.d) if type(t) is QuadraticNumber else t.as_integer_ratio()
        tails = self._tails.get(key) or self._entry_tails(t, key)
        return (t, self._tail_group.add(gz, tails[0]))


def phi_represent(E: IntervalPea) -> PhiMap:
    """The representation map of a strong perfect interval algebra.

    The algebra is classified first; the canonical target shares the tail
    group and carries the unit (1, 0).
    """
    if not (isinstance(E, IntervalPea) and E.is_lex_scalar):
        raise UnsupportedError("representation needs a scalar-headed lex interval")
    H = E.head_subgroup
    report = classify_perfect(E, H)
    if not report.is_strong_h_perfect:
        raise PreconditionError(
            "not a strong perfect algebra: "
            f"perfect={report.is_h_perfect} directness={report.directness} "
            f"strong_cyclic={report.strong_cyclic} torsion_free={report.torsion_free}"
        )
    target = build_lex_pea(H, E.tail_group)
    return PhiMap(E, target)


# ---------------------------------------------------------------------------
# isomorphism verification


@dataclass
class PeaIsomorphismReport:
    sample_count: int = 0
    homomorphism_failures: int = 0
    injectivity_failures: int = 0
    order_reflection_failures: int = 0
    surjectivity_probes: int = 0
    surjectivity_probes_hit: int = 0

    @property
    def clean(self):
        return (
            self.homomorphism_failures == 0
            and self.injectivity_failures == 0
            and self.order_reflection_failures == 0
            and self.surjectivity_probes_hit == self.surjectivity_probes
        )

    def summary(self):
        return (
            f"samples={self.sample_count} hom_failures={self.homomorphism_failures} "
            f"inj_failures={self.injectivity_failures} "
            f"order_failures={self.order_reflection_failures} "
            f"surjectivity={self.surjectivity_probes_hit}/{self.surjectivity_probes}"
        )


def verify_isomorphism(phi, E: IntervalPea, F: IntervalPea, samples=500, seed=0, preimage=None):
    """Sampled homomorphism/injectivity/order/surjectivity report for phi.

    Surjectivity probes run through the ``preimage`` callable, which defaults
    to the map's own inverse when phi is a :class:`PhiMap`; without either,
    no probes run.
    """
    rng = random.Random(seed)
    report = PeaIsomorphismReport()
    if preimage is None and isinstance(phi, PhiMap):
        preimage = phi.preimage
    e_sample, e_add, e_leq, e_lneg, e_rneg = E.sample, E.add, E.leq, E.lneg, E.rneg
    f_sample, f_add, f_leq, f_lneg, f_rneg = F.sample, F.add, F.leq, F.lneg, F.rneg
    e_contains, f_contains = E.contains, F.contains
    # in an Abelian group u - x = -x + u, so when both groups are Abelian the
    # right negations are the left ones and their comparison repeats the first
    check_rneg = not (E.group.is_abelian() and F.group.is_abelian())
    for _ in range(samples):
        report.sample_count += 1
        x, y = e_sample(rng), e_sample(rng)
        fx, fy = phi(x), phi(y)
        if not (f_contains(fx) and f_contains(fy)):
            report.homomorphism_failures += 1
            continue
        # addition: definedness both ways and equality of values
        z = e_add(x, y)
        fz = f_add(fx, fy)
        if (z is None) != (fz is None):
            report.homomorphism_failures += 1
        elif z is not None and phi(z) != fz:
            report.homomorphism_failures += 1
        # negations
        if phi(e_lneg(x)) != f_lneg(fx) or check_rneg and phi(e_rneg(x)) != f_rneg(fx):
            report.homomorphism_failures += 1
        # injectivity
        if x != y and fx == fy:
            report.injectivity_failures += 1
        # order preservation and reflection
        if e_leq(x, y) != f_leq(fx, fy):
            report.order_reflection_failures += 1
        if preimage is None:
            continue
        target = f_sample(rng)
        report.surjectivity_probes += 1
        w = preimage(target)
        if e_contains(w) and phi(w) == target:
            report.surjectivity_probes_hit += 1
    return report


# ---------------------------------------------------------------------------
# shuffled encodings (test doubles for abstract presentations)


def make_shuffled(H: ScalarSubgroup, G, spec):
    """An isomorphic re-encoding of the canonical algebra and the map onto it.

    spec is one of ("identity",), ("permute", perm) for integer-vector
    tails, ("translate", z) for discrete H (the unit moves to (1, n*z)), or
    ("conjugate", h) twisting tails by an inner automorphism.
    """
    base = build_lex_pea(H, G)
    kind = spec[0]
    if kind == "identity":
        return base, lambda x: x
    if kind == "permute":
        perm = spec[1]
        _check_permutation(G, perm)

        def alpha(x):
            t, tail = x
            return (t, tuple(tail[p] for p in perm))

        return base, alpha
    if kind == "translate":
        z = g.check_element(G, spec[1])
        if H.is_dense:
            raise UnsupportedError("translate shuffles need a discrete head")
        if not G.center_member(z):
            raise PreconditionError("translate shuffles need a central offset")
        n = H.n
        unit_tail = G.scale(z, n)
        shuffled = IntervalPea(base.group, (H.one(), unit_tail))

        def alpha(x):
            t, tail = x
            k = int(Fraction(t) * n)
            return (t, g.add(G, tail, G.scale(z, k)))

        return shuffled, alpha
    if kind == "conjugate":
        h = g.check_element(G, spec[1])

        def alpha(x):
            t, tail = x
            return (t, G.sub_right(g.add(G, h, tail), h))

        return base, alpha
    raise UnsupportedError(f"unknown shuffle {spec!r}")


# ---------------------------------------------------------------------------
# difference group of a bottom slice


@dataclass(frozen=True)
class DifferenceClass:
    plus: object
    minus: object


class DifferenceGroup:
    """Formal differences [a - b] of a commutative bottom slice.

    Every grid point must be infinitesimal, so sums of grid points stay in
    the bottom slice E_0, which is closed under sums and downward closed.
    On a scalar-headed lex interval a class is the group difference a - b,
    and its first representative is kept under that key; a finite
    algebra's only infinitesimal is 0, so its one class is [0 - 0].  A
    class [a - b] is positive exactly when b <= a; by cancellation every
    representative gives the same answer.
    """

    def __init__(self, pea, grid):
        self.pea = pea
        self.grid = list(grid)
        if pea.zero not in self.grid:
            self.grid.insert(0, pea.zero)
        bottom = infinitesimals(pea)
        if isinstance(pea, IntervalPea):
            self._difference, fmt = pea.group.sub_right, pea.group.format_element
        else:
            self._difference, fmt = (lambda a, b: (a, b)), str
        for a in self.grid:
            if a not in bottom:
                raise PreconditionError(
                    f"grid point {fmt(a)} is not infinitesimal; "
                    "difference groups need a grid in the bottom slice"
                )
        for a in self.grid:
            for b in self.grid:
                if pea.add(a, b) != pea.add(b, a):
                    raise UnsupportedError(
                        f"slice addition is not commutative at ({fmt(a)}, {fmt(b)}); "
                        "difference groups need a commutative bottom slice"
                    )
        self._classes = {}

    def make(self, plus, minus) -> DifferenceClass:
        return self._classes.setdefault(self._difference(plus, minus), DifferenceClass(plus, minus))

    def embed(self, x) -> DifferenceClass:
        return self.make(x, self.pea.zero)

    @property
    def zero(self):
        return self.embed(self.pea.zero)

    def add(self, p, q):
        return self.make(self.pea.add(p.plus, q.plus), self.pea.add(p.minus, q.minus))

    def neg(self, p):
        return self.make(p.minus, p.plus)

    def is_positive(self, p) -> bool:
        return self.pea.leq(p.minus, p.plus)

    def leq(self, p, q) -> bool:
        return self.is_positive(self.add(q, self.neg(p)))


def difference_group(E, grid):
    """Difference group of the bottom slice, seeded by a grid, plus the embedding.

    Returns (group, embed); refuses grid points outside the bottom slice and
    errors on non-commutative slices, which are out of range for this
    construction.
    """
    dg = DifferenceGroup(E, grid)
    return dg, dg.embed


# ---------------------------------------------------------------------------
# homomorphisms and the interval-algebra functor


def _check_permutation(G, perm):
    """Reject a perm that does not permute the coordinates of a Z^k group."""
    if not isinstance(G, g.IntVector):
        raise PreconditionError(f"permute needs a Z^k tail, not {G}")
    if sorted(perm) != list(range(G.k)):
        shown = ",".join(str(p) for p in perm)
        raise PreconditionError(f"permute({shown}) does not permute the {G.k} coordinates of {G}")


@dataclass(frozen=True)
class GroupHom:
    source: g.GroupDescriptor
    target: g.GroupDescriptor
    rule: tuple

    def __post_init__(self):
        if self.rule[0] == "permute":
            _check_permutation(self.source, self.rule[1])

    def __call__(self, x):
        kind = self.rule[0]
        if kind == "identity":
            return x
        if kind == "scale":
            return self.target.scale(x, self.rule[1])
        if kind == "permute":
            return tuple(x[p] for p in self.rule[1])
        if kind == "compose":
            h2, h1 = self.rule[1], self.rule[2]
            return h2(h1(x))
        raise UnsupportedError(f"unknown homomorphism rule {self.rule!r}")


def hom_compose(h2: GroupHom, h1: GroupHom) -> GroupHom:
    if h1.target != h2.source:
        raise PreconditionError("homomorphisms do not compose")
    return GroupHom(h1.source, h2.target, ("compose", h2, h1))


def hom_verify(h: GroupHom, rng, samples=200):
    """Sampled additivity and order preservation; a witness or None."""
    for _ in range(samples):
        x = sample_element(h.source, rng, 6)
        y = sample_element(h.source, rng, 6)
        if h(g.add(h.source, x, y)) != g.add(h.target, h(x), h(y)):
            return ("additivity", x, y)
        if g.leq(h.source, x, y) and not g.leq(h.target, h(x), h(y)):
            return ("order", x, y)
    return None


@dataclass(frozen=True)
class PeaHom:
    """(t, g) -> (t, h(g)) between canonical lex interval algebras."""

    source: IntervalPea
    target: IntervalPea
    hom: GroupHom

    def __call__(self, x):
        return (x[0], self.hom(x[1]))


def functor_map(h: GroupHom, H: ScalarSubgroup, rng=None, samples=100) -> PeaHom:
    """Lift a verified group homomorphism to the canonical interval algebras."""
    rng = rng or random.Random(0)
    witness = hom_verify(h, rng, samples)
    if witness is not None:
        law, x, y = witness
        fmt = h.source.format_element
        raise PreconditionError(f"not a po-group homomorphism: {law} at ({fmt(x)}, {fmt(y)})")
    return PeaHom(build_lex_pea(H, h.source), build_lex_pea(H, h.target), h)

