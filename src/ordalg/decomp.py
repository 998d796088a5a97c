"""Decompositions of pseudo effect algebras into scalar-indexed slices.

A decomposition over a scalar subgroup H partitions the algebra into
nonempty slices (E_t : t in [0,1] of H) compatible with the negations
(E_t maps to E_{1-t}) and with addition (sums land in the index sum).
Finite algebras carry explicit slice sets, and their laws are checked
exhaustively on the algebra's element bitsets: slice t gets the integer
index t*L, L the common denominator of the indices, so each law is one pass
over the members or the defined pairs with integer sums and bitset tests,
and a witness is searched for only once a law fails.  An interval E = Gamma(Lex(Scalar(H'), G), (1, g0)) carries
the symbolic slices E_t = {(t, g)} with a finite witness grid, and its laws
are decided by head arithmetic, with no sampling.  For x = (s, gx) and
y = (t, gy):

* s < t gives x < y, because the lex order reads the head first;
* s + t < 1 puts x + y = (s + t, gx + gy) strictly below the unit, so the
  sum is defined and lies in E_{s+t}; for t > 0 every w in E_{s+t} is
  x + (t, -gx + gw).  s + t > 1 gives no sum in either order, and the
  negations send E_t to E_{1-t};
* E_0 = {(0, g) : g in G+} is closed under sums and downward closed, it is
  normal because conjugation keeps G+, and it is exactly the set of
  infinitesimals, because every positive head of the archimedean H' has a
  multiple above 1.

When G is directed, so is every slice (bounds from G, taken below g0 on the
top slice and above 0 on the bottom one), and E_0 is the unique maximal
ideal: an ideal holding some (t, g) with t > 0 holds every head below t
and, adding E_0, every tail at head t, so its sums reach the unit.  Every
descriptor here is directed; the verdicts read ``is_directed`` all the same.
Pseudo effect algebras of this kind are the unit intervals Gamma(G, u) of
Dvurecenskij and Vetterlein ("Pseudoeffect algebras I/II", 2001).  All of
this needs the unit head 1, which every lex decomposition path checks.

States and decompositions determine each other: slices are state preimages
and the slice index is the state value.  The checks in this module verify
the correspondence, the ordered/type-I properties with their consequences,
and classify perfectness (ordered decomposition, directness, cyclic
systems, divisibility, torsion-freeness).

A finite algebra has at most one ordered decomposition, and its order
names it.  In an ordered one E_0 = {0}: a nonzero x in E_0 lies below its
negation in E_1, so x + x is defined and lies in E_0 again, and the
multiples of x would rise forever.  So each slice is an antichain, since
x < y in one slice gives y = x + z with a nonzero z in E_0, and the
comparable slices make E the ordinal sum of its slices.  A finite poset
splits into an ordinal sum of antichains L_0 < ... < L_n in at most one
way (L_0 holds the minimal elements, and so on up), so E has an ordered
(1/n)Z decomposition exactly when its order is such a sum of n + 1 levels
and the level map k/n is a state; a dense H has too many slices for any.
``classify_perfect`` reads the levels off the downsets and leaves the
verdicts to the slice checks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count
from math import lcm

from . import groups as g
from .errors import PreconditionError, UnsupportedError
from .pea import (
    FinitePea,
    IntervalPea,
    _ideal_closure,
    _is_normal_ideal,
    _mask,
    _members,
    cyclic_elements,
    is_symmetric,
)
from .scalars import (
    QuadraticNumber,
    ScalarSubgroup,
    _order_sign,
    format_scalar,
    grid_points,
)
from .states import FiniteState, FirstCoordinateState


# ---------------------------------------------------------------------------
# decomposition containers


@dataclass(frozen=True)
class FiniteDecomposition:
    H: ScalarSubgroup
    pea: FinitePea
    slices: tuple  # ((t, frozenset), ...) sorted by t
    proper: bool  # False: the flagged variant where some slices stay empty


@dataclass(frozen=True)
class LexDecomposition:
    """Symbolic slices E_t = {(t, g)} of an interval over Lex(Scalar(H'), G)."""

    H: ScalarSubgroup
    pea: IntervalPea
    grid: tuple  # witness grid of [0,1]_H
    proper: bool = True


# ---------------------------------------------------------------------------
# state <-> decomposition


def _require_unit_head(E: IntervalPea):
    """The slices E_t = {(t, g)} index [0, 1] only under a unit (1, g0)."""
    head = E.unit[0]
    if _order_sign(head, E.head_subgroup.one()) != 0:
        raise PreconditionError(
            f"lex slice decompositions need the unit head 1, got {format_scalar(head)}"
        )


def _point_outside(grid, S: ScalarSubgroup, T: ScalarSubgroup):
    """A point of [0, 1] in S but not in T, or None exactly when S lies in T.

    The first point of S's witness ``grid`` outside T, else, for S = Q and
    T not, 1/n for the least n with 1/n not in T.  A grid of (1/m)Z is
    complete, and one of Z+Z*sqrt(d) holds sqrt(d) - floor(sqrt(d)), so only
    Q can hide a point past its grid.
    """
    past = (Fraction(1, n) for n in count(2)) if S._divisible and not T._divisible else ()
    return next((t for t in chain(grid, past) if not T.contains(t)), None)


def decomposition_from_state(E, s, H: ScalarSubgroup, allow_subset=False):
    """Slices as preimages of an H-valued state.

    A state value outside H is an error naming the element; attained values
    that miss part of [0,1] of H are tolerated only with ``allow_subset``
    (the empty-slice variant) and yield ``proper=False``.
    """
    if isinstance(E, FinitePea):
        if not isinstance(s, FiniteState):
            raise UnsupportedError("finite algebras need a finite state table")
        for a in E.elements():
            if not H.contains(s(a)):
                raise PreconditionError(
                    f"state is not valued in {H}: s({a}) = {s(a)}"
                )
        buckets = {}
        for a in E.elements():
            buckets.setdefault(H.coerce(s(a)), set()).add(a)
        proper = not H.is_dense and set(buckets) == {Fraction(k, H.n) for k in range(H.n + 1)}
        if not proper and not allow_subset:
            missing = "a dense set" if H.is_dense else "some grid points"
            raise PreconditionError(
                f"state range misses {missing} of [0,1] in {H}; "
                "pass allow_subset=True for the empty-slice variant"
            )
        slices = tuple(
            sorted(((t, frozenset(m)) for t, m in buckets.items()), key=lambda p: p[0])
        )
        D = FiniteDecomposition(H, E, slices, proper)
        # a caller's value table need not be a state
        witness = _finite_type_ii_violation(D)
        if witness is not None:
            raise PreconditionError(f"state preimages violate a decomposition law: {witness}")
        return D
    if isinstance(E, IntervalPea) and E.is_lex_scalar:
        if not isinstance(s, FirstCoordinateState):
            raise UnsupportedError("interval algebras use the first coordinate state")
        _require_unit_head(E)
        head_H = E.head_subgroup
        grid = tuple(grid_points(H))
        # every value s((t, g)) = t lies in H; a head over H itself has the same grid
        t = _point_outside(grid if head_H == H else grid_points(head_H), head_H, H)
        if t is not None:
            x = E.group.format_element((t, E.tail_group.zero()))
            raise PreconditionError(f"state is not valued in {H}: s({x}) = {format_scalar(t)}")
        # every H index must be attained, else slices are empty
        missing = _point_outside(grid, H, head_H)
        if missing is not None and not allow_subset:
            raise PreconditionError(
                f"slice at t = {format_scalar(missing)} is empty; "
                "pass allow_subset=True for the empty-slice variant"
            )
        return LexDecomposition(H, E, grid, missing is None)
    raise UnsupportedError(f"unsupported algebra {E!r}")


def state_from_decomposition(E, D):
    """The indexing state of a decomposition, after validating its laws."""
    if isinstance(D, FiniteDecomposition):
        witness = _finite_type_ii_violation(D)
        if witness is not None:
            raise PreconditionError(f"decomposition law fails: {witness}")
        values = [None] * E.size
        for t, members in D.slices:
            value = _index_value(t)
            for a in members:
                values[a] = value
        if any(v is None for v in values):
            raise PreconditionError("slices do not cover the algebra")
        return FiniteState(tuple(values))
    if isinstance(D, LexDecomposition):
        _require_unit_head(D.pea)  # the laws then hold by head arithmetic
        return FirstCoordinateState(D.pea)
    raise UnsupportedError(f"unsupported decomposition {D!r}")


def _index_value(t):
    """A rational index as a Fraction; a + b*sqrt(d) with b != 0 stays exact."""
    if isinstance(t, QuadraticNumber):
        return t if t.b != 0 else Fraction(t.a)
    return Fraction(t)


class _SliceBits:
    """The slices of a finite decomposition as element bitsets, indexed by
    integers k = t*L, where L is the least common denominator of the t.

    Rational indices give int keys, so the laws add and compare integers.
    An index a + b*sqrt(d) with b != 0 makes every key a QuadraticNumber
    with integer coefficients, which adds, compares and hashes exactly too.
    ``below(k)`` is the union of the slices with a key under k, ``above(k)``
    of those with a key over k.
    """

    def __init__(self, D: FiniteDecomposition):
        ts = [_index_value(t) for t, _ in D.slices]
        quad = next((t for t in ts if isinstance(t, QuadraticNumber)), None)
        if quad is None:
            self.L = lcm(*(t.denominator for t in ts))
            self.keys = [t.numerator * (self.L // t.denominator) for t in ts]
        else:
            ts = [t if isinstance(t, QuadraticNumber) else QuadraticNumber(t, 0, quad.d) for t in ts]
            self.L = lcm(*(Fraction(c).denominator for t in ts for c in (t.a, t.b)))
            self.keys = [t * self.L for t in ts]
        # -k + L: QuadraticNumber has no reflected subtraction
        self.rest = [-k + self.L for k in self.keys]
        self.slices = D.slices
        self.masks = [_mask(members) for _, members in D.slices]
        self._order = sorted(set(self.keys))
        at = dict.fromkeys(self._order, 0)
        for k, m in zip(self.keys, self.masks):
            at[k] |= m
        self._prefix, self._suffix = [0], [0]
        for k in self._order:
            self._prefix.append(self._prefix[-1] | at[k])
        for k in reversed(self._order):
            self._suffix.append(self._suffix[-1] | at[k])
        self._suffix.reverse()

    def below(self, k):
        return self._prefix[bisect_left(self._order, k)]

    def above(self, k):
        return self._suffix[bisect_right(self._order, k)]

    def defined_below_one(self, right) -> bool:
        """x + y is defined for x in E_s and y in E_t whenever s + t < 1."""
        partners = [self.below(r) for r in self.rest]
        return all(right[x] & p == p for (_, ms), p in zip(self.slices, partners) for x in ms)

    def last_unordered_pair(self, up):
        """The last x in E_s, y in E_t with s < t and not x <= y, in the
        order of the slices and their members, or None."""
        keys, slices = self.keys, self.slices
        for i in reversed(range(len(slices))):
            for j in reversed(range(len(slices))):
                if keys[i] < keys[j]:
                    xs = [x for x in slices[i][1] if self.masks[j] & ~up[x]]
                    if xs:
                        x = xs[-1]
                        return x, [y for y in slices[j][1] if not up[x] >> y & 1][-1]
        return None


def _finite_type_ii_violation(D: FiniteDecomposition):
    """The negation and addition laws; None if clean.

    Once the slices partition the algebra, each element carries its slice's
    key, and each law is one pass: over the elements for the negations, over
    the defined pairs for the sums.  Only a failing law searches for its
    witness, the first violation in the order of the slices and members.
    """
    E = D.pea
    covered = set()
    for t, members in D.slices:
        if not members:
            return ("empty slice", t)
        if covered & members:
            return ("overlapping slices", t)
        covered |= members
    if covered != set(E.elements()):
        return ("cover", None)
    bits = _SliceBits(D)
    keys, L = bits.keys, bits.L
    pos = [0] * E.size
    for i, (_, members) in enumerate(D.slices):
        for x in members:
            pos[x] = i
    last = {k: i for i, k in enumerate(keys)}  # the slice a lookup by index finds
    mirror = [last.get(r) for r in bits.rest]
    lneg, rneg = E.lneg, E.rneg
    bad = {x for x in E.elements() if not pos[lneg(x)] == pos[rneg(x)] == mirror[pos[x]]}
    if bad:
        t, x = next((t, x) for t, members in D.slices for x in members if x in bad)
        return ("negation law", (t, x))
    # the negations are bijections, so once they keep the law no two slices
    # share an index, and z = x + y keeps the sum laws exactly when its key is
    # key(x) + key(y) <= L
    key = [keys[i] for i in pos]
    home = [k if k <= L else None for k in key]
    bad = {(x, y) for (x, y), z in E.table.items() if key[x] + key[y] != home[z]}
    if not bad:
        return None
    i, j = min((pos[x], pos[y]) for x, y in bad)
    (s, ms), (t, mt) = D.slices[i], D.slices[j]
    x, y = next((x, y) for x in ms for y in mt if (x, y) in bad)
    law = "sum above one" if keys[i] + keys[j] > L else "sum slice law"
    return (law, (s, t, x, y))


# ---------------------------------------------------------------------------
# ordered decompositions


@dataclass(frozen=True)
class OrderedReport:
    ordered: bool
    witness: object = None
    defined_iff_ordered_agrees: bool = True
    e0_matches_infinitesimals: bool = True
    e0_normal: bool = True
    slice_additivity_ok: bool = True
    no_oversum_ok: bool = True


def check_ordered(E, D) -> OrderedReport:
    """Pointwise slice comparability, its sum-definedness equivalent, and
    the three consequences (infinitesimal bottom slice, slice additivity,
    nonexistence of oversums).

    Finite decompositions are checked exhaustively; on a lex interval every
    flag holds by the head arithmetic in the module docstring.
    """
    if isinstance(D, FiniteDecomposition):
        return _check_ordered_finite(E, D)
    if isinstance(D, LexDecomposition):
        return OrderedReport(True)
    raise UnsupportedError(f"unsupported decomposition {D!r}")


def _check_ordered_finite(E: FinitePea, D: FiniteDecomposition) -> OrderedReport:
    """Each law as bitset tests per member: x lies below the union of the
    higher slices, and its right-defined set covers the slices it may be
    added to and misses those past one.  A failure reports the last failing
    pair in the order of the slices and members."""
    bits, up, right = _SliceBits(D), E._bits.up, E._bits.right
    keys, slices = bits.keys, D.slices
    higher = [bits.above(k) for k in keys]
    ordered = all(up[x] & h == h for (_, ms), h in zip(slices, higher) for x in ms)
    defined_all = bits.defined_below_one(right)
    agrees = ordered == defined_all
    if not ordered:
        return OrderedReport(False, bits.last_unordered_pair(up), agrees)
    index = {t: members for t, members in slices}
    e0 = index.get(D.H.zero(), frozenset())
    inf_ok = e0 == {E.zero}  # the only infinitesimal of a finite algebra
    normal_ok = _is_normal_ideal(E, _mask(e0))
    # an undefined pair below one puts None among the sums of its slices
    additivity_ok = defined_all
    if additivity_ok:
        at = {k: m for k, m in zip(keys, bits.masks)}
        where = [[] for _ in E.elements()]
        for j, (_, mt) in enumerate(slices):
            for y in mt:
                where[y].append(j)
        rows = E._sum_rows[0]
        for (_, ms), k in zip(slices, keys):
            reach = [0] * len(slices)  # reach[j]: the sums x + y, x in ms, y in slice j
            for x in ms:
                for y, z in rows[x]:
                    for j in where[y]:
                        reach[j] |= 1 << z
            if any(r != at.get(k + kt, 0) for r, kt in zip(reach, keys) if k + kt < bits.L):
                additivity_ok = False
                break
    # a pair defined in either order past one is a pair defined in the first
    # order, with the slices swapped
    oversum_ok = all(
        right[x] & bits.above(r) == 0 for (_, ms), r in zip(slices, bits.rest) for x in ms
    )
    return OrderedReport(True, None, agrees, inf_ok, normal_ok, additivity_ok, oversum_ok)


# ---------------------------------------------------------------------------
# type I


@dataclass(frozen=True)
class TypeIReport:
    is_type_i: bool
    sums_defined: bool
    e0_unique_maximal: bool
    e0_idempotent: bool
    detail: str = ""


def check_type_i(E, D) -> TypeIReport:
    """(Ii) sums below one are defined; (Iii) the bottom slice is the unique
    maximal ideal; plus the bottom-slice idempotence consequence."""
    if isinstance(D, FiniteDecomposition):
        sums_ok = _SliceBits(D).defined_below_one(E._bits.right)
        index = {t: m for t, m in D.slices}
        e0 = index.get(D.H.zero(), frozenset())
        unique_max, detail = _unique_maximal(E, e0)
        rows = E._sum_rows[0]
        idem = {z for x in e0 for y, z in rows[x] if y in e0} == set(e0)
        return TypeIReport(sums_ok and unique_max, sums_ok, unique_max, idem, detail)
    if isinstance(D, LexDecomposition):
        # sums below one and the idempotent E_0 hold by head arithmetic; E_0
        # is the unique maximal ideal once G is directed (module docstring)
        directed = E.tail_group.is_directed()
        return TypeIReport(directed, True, directed, True)
    raise UnsupportedError(f"unsupported decomposition {D!r}")


def _unique_maximal(E: FinitePea, e0):
    """Whether e0 is the unique maximal ideal of E, and a detail when not.

    Every proper ideal of a finite algebra lies in a maximal one, so e0 is
    the unique maximal ideal exactly when it is a proper ideal and every x
    outside it generates all of E.  An x above y generates at least what y
    does, so the elements minimal outside e0 decide, and the detail names
    the first of them that generates a proper ideal.
    """
    closure = _ideal_closure(E)
    everything, mask, grown = (1 << E.size) - 1, _mask(e0), 0
    for x in e0:
        grown = closure(grown, x)
    if not e0 or grown != mask or mask == everything:
        return False, "E_0 is not a proper ideal"
    bottom, down, outside = closure(0, E.zero), E._bits.down, everything & ~mask
    for x in E.elements():
        if down[x] & outside == 1 << x:  # x is minimal outside e0
            grown = closure(bottom, x)
            if grown != everything:
                return False, f"{x} generates a proper ideal: {sorted(_members(grown))}"
    return True, ""


# ---------------------------------------------------------------------------
# cyclic systems and perfectness


@dataclass(frozen=True)
class CyclicSystem:
    entries: tuple  # ((t, element), ...) over the witness grid
    strong: bool


def find_cyclic_system(E, D, strong=False):
    """A grid family c_t in E_t with c_s + c_t = c_{s+t} and c_1 = 1, or None.

    A finite decomposition over Z/n tries the multiples of each cyclic element
    of order n.  On a lex interval the family is c_t = (t, t*g0), additive by
    construction, and None when some t*g0 does not exist in G; over Q that
    takes every c_{1/n} = (1/n, g0/n), so g0 must be divisible.  A
    decomposition that is not proper has an empty slice, with no c_t.
    """
    if isinstance(D, FiniteDecomposition):
        H = D.H
        if H.is_dense or not D.proper:
            return None  # a dense grid, or an empty slice: no c_t
        index = dict(D.slices)
        grid = [Fraction(k, H.n) for k in range(H.n + 1)]
        for cand in cyclic_elements(E, H.n):
            if strong and not cand.strong:
                continue
            entries, ck = [], E.zero  # ck = k * cand, one sum at a time
            for t in grid:
                if ck is None or ck not in index[t]:
                    break
                entries.append((t, ck))
                ck = E.add(ck, cand.element)
            else:
                return CyclicSystem(tuple(entries), cand.strong)
        return None
    if isinstance(D, LexDecomposition):
        # where tau = _integral_action is defined it is t -> t*g0 inside the
        # one-parameter subgroup of g0 (roots are unique in every descriptor,
        # and m + k*sqrt(d) acts through m), so tau is additive and c_1 is the
        # unit; (t, tau(t)) lies in [0, (1, g0)] for every t in [0, 1], since
        # the lex order reads the head first and tau(0) = 0
        E, G, g0 = D.pea, D.pea.tail_group, D.pea.tail_unit
        if not D.proper or (D.H._divisible and not G._divisible(g0)):
            return None
        entries = []
        for t in D.grid:
            tail = _integral_action(G, g0, t)
            if tail is None:
                return None
            entries.append((t, (t, tail)))
        all_strong = all(E.group.center_member(c) for _, c in entries)
        if strong and not all_strong:
            return None
        return CyclicSystem(tuple(entries), all_strong)
    raise UnsupportedError(f"unsupported decomposition {D!r}")


def _integral_action(G, g0, t):
    """t * g0 for an index t, via exact division: (p/q) g0 = p (g0 / q).

    Quadratic indices m + k sqrt(d) act through their integer part m; this is
    the canonical additive choice fixing 1 -> g0 and sqrt(d) -> 0.
    """
    if isinstance(t, QuadraticNumber):
        if t.a.denominator != 1 or t.b.denominator != 1:
            return None
        return G.scale(g0, int(t.a))
    t = Fraction(t)
    part = g.divide(G, g0, t.denominator)
    if part is None:
        return None
    return G.scale(part, t.numerator)


@dataclass(frozen=True)
class PerfectReport:
    is_h_perfect: bool
    ordered: OrderedReport | None
    type_i: TypeIReport | None
    directness: bool
    cyclic_system: CyclicSystem | None
    strong_cyclic: bool
    one_divisible: bool
    strong_one_divisible: bool
    first_divisibility_failure: int | None
    unique_roots: bool
    torsion_free: bool | None
    symmetric: bool
    is_strong_h_perfect: bool
    missing_slice: object = None


def classify_perfect(E, H: ScalarSubgroup) -> PerfectReport:
    """Full perfectness report for a finite algebra or a lex interval."""
    if isinstance(E, FinitePea):
        ordered_report, type_i, directness, cyc = _finite_slices(E, H)
        # torsion-freeness of an abstract ambient group is not determinable here
        missing, tf = None, None
    elif isinstance(E, IntervalPea) and E.is_lex_scalar:
        missing, ordered_report, type_i, directness, cyc = _lex_slices(E, H)
        tf = E.group.is_torsion_free()
    else:
        raise UnsupportedError(f"unsupported algebra {E!r}")
    is_perfect = ordered_report is not None and ordered_report.ordered
    one_div, strong_div, first_fail, unique = _divisibility_scan(E)
    sym = is_symmetric(E).symmetric
    strong_cyclic = bool(cyc and cyc.strong)
    # an undetermined torsion-freeness (None) does not block strong perfectness
    strong = bool(is_perfect and directness and strong_cyclic and tf is not False)
    return PerfectReport(
        is_perfect,
        ordered_report,
        type_i,
        directness,
        cyc,
        strong_cyclic,
        one_div,
        strong_div,
        first_fail,
        unique,
        tf,
        sym,
        strong,
        missing_slice=missing,
    )


def _divisibility_scan(E):
    """1-divisibility flags, the first order without a strong root of the
    unit, and unique roots, over every order n >= 1.

    The multiples of a nonzero finite element strictly increase until their
    sum is undefined or one, so a root has one order, below the size.  The
    lex root of order n is (1/n, g0/n), unique, and central when the unit
    is; a unit that is not divisible has roots of the divisors of one
    number alone, so the scan stops at the first order without one.
    """
    if isinstance(E, FinitePea):
        roots = {}  # order -> whether each root of that order is central
        for a in E.elements():
            n, multiple = 1, a
            while multiple not in (None, E.zero, E.one):
                n, multiple = n + 1, E.add(multiple, a)
            if multiple == E.one:
                roots.setdefault(n, []).append(E._central(a))
        # no order reaches the size, so only the one-element algebra has no failure
        fail = next((n for n in range(1, E.size + 1) if not any(roots.get(n, ()))), None)
        return fail is None, fail is None, fail, all(len(r) == 1 for r in roots.values())
    central, divisible = E.group.center_member(E.unit), E.group._divisible(E.unit)
    n = 1
    while central and not divisible and cyclic_elements(E, n):
        n += 1
    return divisible, central and divisible, None if central and divisible else n, True


def _level_state(E: FinitePea, H: ScalarSubgroup):
    """The map k/n on the levels L_0 < ... < L_n of E, when its order is an
    ordinal sum of n + 1 antichains and H is (1/n)Z; else None.

    In such a sum the elements below x are those of the lower levels and x,
    so the size of that downset numbers the levels, and a downset of any
    other shape refutes the sum.  The map need not be a state.
    """
    if H.is_dense:
        return None
    down = E._bits.down
    levels = {}
    for x in E.elements():
        levels.setdefault(down[x].bit_count(), []).append(x)
    if len(levels) != H.n + 1:
        return None
    values, below = [None] * E.size, 0
    for k, (_, level) in enumerate(sorted(levels.items())):
        for x in level:
            if down[x] != below | 1 << x:
                return None
            values[x] = Fraction(k, H.n)
        below |= _mask(level)
    return FiniteState(tuple(values))


def _finite_slices(E: FinitePea, H):
    """Verdicts on the level decomposition over H, the only ordered one there
    can be (module docstring), when it is one."""
    s = _level_state(E, H)
    try:
        D = None if s is None else decomposition_from_state(E, s, H)
    except PreconditionError:  # the level map is not additive
        D = None
    if D is None:
        return None, None, False, None
    directness = all(_finite_slice_directed(E, members) for _, members in D.slices)
    return check_ordered(E, D), check_type_i(E, D), directness, find_cyclic_system(E, D)


def _finite_slice_directed(E: FinitePea, members) -> bool:
    """A finite set is directed both ways exactly when it is empty or has a
    least and a greatest element, because the order is transitive."""
    mask = _mask(members)
    up, down = E._bits.up, E._bits.down
    return not members or (
        any(up[c] & mask == mask for c in members) and any(down[c] & mask == mask for c in members)
    )


def _lex_slices(E: IntervalPea, H):
    """A slice the head misses, or None, and the slice verdicts."""
    D = decomposition_from_state(E, FirstCoordinateState(E), H, allow_subset=True)
    directness = E.tail_group.is_directed()  # slice directness, module docstring
    if not D.proper:
        # a head that misses a slice is not perfect over H
        missing = _point_outside(D.grid, H, E.head_subgroup)
        return missing, None, None, directness, None
    return None, check_ordered(E, D), check_type_i(E, D), directness, find_cyclic_system(E, D)
