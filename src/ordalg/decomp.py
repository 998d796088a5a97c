"""Decompositions of pseudo effect algebras into scalar-indexed slices.

A decomposition over a scalar subgroup H partitions the algebra into
nonempty slices (E_t : t in [0,1] of H) compatible with the negations
(E_t maps to E_{1-t}) and with addition (sums land in the index sum).
Finite algebras carry explicit slice sets, and their laws are checked
exhaustively.  An interval E = Gamma(Lex(Scalar(H'), G), (1, g0)) carries
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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import groups as g
from .errors import PreconditionError, UnsupportedError
from .pea import (
    FinitePea,
    IntervalPea,
    cyclic_elements,
    ideals_enumerate,
    infinitesimals,
    is_symmetric,
)
from .sampling import sample_element, sample_positive
from .scalars import (
    Ordering,
    QuadraticNumber,
    ScalarSubgroup,
    compare,
    format_scalar,
    grid_points,
)
from .states import FiniteState, FirstCoordinateState, states_finite


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

    def sample_slice(self, t, rng, bound=6):
        E = self.pea
        H = E.head_subgroup
        head = H.coerce(t)
        G = E.tail_group
        if compare(head, H.zero()) is Ordering.EQ:
            return (head, sample_positive(G, rng, bound))
        if compare(head, H.one()) is Ordering.EQ:
            extra = sample_positive(G, rng, bound)
            return (head, g.add(G, E.tail_unit, g.neg(G, extra)))
        return (head, sample_element(G, rng, bound))


# ---------------------------------------------------------------------------
# state <-> decomposition


def _require_unit_head(E: IntervalPea):
    """The slices E_t = {(t, g)} index [0, 1] only under a unit (1, g0)."""
    head = E.unit[0]
    if compare(head, E.head_subgroup.one()) is not Ordering.EQ:
        raise PreconditionError(
            f"lex slice decompositions need the unit head 1, got {format_scalar(head)}"
        )


def _require_head_values_in(E: IntervalPea, H: ScalarSubgroup):
    """Every value of the first coordinate state s((t, g)) = t must lie in H."""
    for t in grid_points(E.head_subgroup):
        if not H.contains(t):
            raise PreconditionError(
                f"state is not valued in {H}: s({E.group.format_element((t, E.tail_group.zero()))}) = {format_scalar(t)}"
            )


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
        proper = True
        if H.is_dense:
            proper = False
        else:
            full = {Fraction(k, H.n) for k in range(H.n + 1)}
            proper = set(buckets) == full
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
        witness = _finite_type_ii_violation(D)
        assert witness is None, f"state preimages violate a decomposition law: {witness}"
        return D
    if isinstance(E, IntervalPea) and E.is_lex_scalar:
        if not isinstance(s, FirstCoordinateState):
            raise UnsupportedError("interval algebras use the first coordinate state")
        _require_unit_head(E)
        _require_head_values_in(E, H)
        head_H = E.head_subgroup
        # every H index must be attained, else slices are empty
        missing = [t for t in grid_points(H) if not head_H.contains(t)]
        proper = not missing
        if missing and not allow_subset:
            raise PreconditionError(
                f"slice at t = {format_scalar(missing[0])} is empty; "
                "pass allow_subset=True for the empty-slice variant"
            )
        return LexDecomposition(H, E, tuple(grid_points(H)), proper)
    raise UnsupportedError(f"unsupported algebra {E!r}")


def state_from_decomposition(E, D):
    """The indexing state of a decomposition, after validating its laws."""
    if isinstance(D, FiniteDecomposition):
        witness = _finite_type_ii_violation(D)
        if witness is not None:
            raise PreconditionError(f"decomposition law fails: {witness}")
        values = [None] * E.size
        for t, members in D.slices:
            for a in members:
                values[a] = Fraction(t) if not isinstance(t, Fraction) else t
        if any(v is None for v in values):
            raise PreconditionError("slices do not cover the algebra")
        return FiniteState(tuple(values))
    if isinstance(D, LexDecomposition):
        _require_unit_head(D.pea)  # the laws then hold by head arithmetic
        return FirstCoordinateState(D.pea)
    raise UnsupportedError(f"unsupported decomposition {D!r}")


def _finite_type_ii_violation(D: FiniteDecomposition):
    """Exhaustive check of the negation and addition laws; None if clean."""
    E, H = D.pea, D.H
    one = H.one()
    index = {t: members for t, members in D.slices}
    covered = set()
    for t, members in D.slices:
        if not members:
            return ("empty slice", t)
        if covered & members:
            return ("overlapping slices", t)
        covered |= members
    if covered != set(E.elements()):
        return ("cover", None)
    for t, members in D.slices:
        mirror = index.get(one - t)
        for x in members:
            ln, rn = E.lneg(x), E.rneg(x)
            if mirror is None or ln not in mirror or rn not in mirror:
                return ("negation law", (t, x))
    for s, ms in D.slices:
        for t, mt in D.slices:
            for x in ms:
                for y in mt:
                    z = E.add(x, y)
                    if z is None:
                        continue
                    if compare(s + t, one) is Ordering.GT:
                        return ("sum above one", (s, t, x, y))
                    target = index.get(s + t)
                    if target is None or z not in target:
                        return ("sum slice law", (s, t, x, y))
    return None


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
    one = D.H.one()
    ordered, witness = True, None
    for s, ms in D.slices:
        for t, mt in D.slices:
            if compare(s, t) is Ordering.LT:
                for x in ms:
                    for y in mt:
                        if not E.leq(x, y):
                            ordered, witness = False, (x, y)
    defined_all = True
    for s, ms in D.slices:
        for t, mt in D.slices:
            if compare(s + t, one) is Ordering.LT:
                for x in ms:
                    for y in mt:
                        if not E.defined(x, y):
                            defined_all = False
    agrees = ordered == defined_all
    if not ordered:
        return OrderedReport(False, witness, agrees)
    index = {t: members for t, members in D.slices}
    e0 = index.get(D.H.zero(), frozenset())
    inf_ok = set(e0) == infinitesimals(E)
    from .pea import _is_normal_ideal

    normal_ok = _is_normal_ideal(E, e0)
    additivity_ok, oversum_ok = True, True
    for s, ms in D.slices:
        for t, mt in D.slices:
            total = s + t
            if compare(total, one) is Ordering.LT:
                sums = {E.add(x, y) for x in ms for y in mt}
                if sums != set(index.get(total, frozenset())):
                    additivity_ok = False
            if compare(total, one) is Ordering.GT:
                for x in ms:
                    for y in mt:
                        if E.defined(x, y) or E.defined(y, x):
                            oversum_ok = False
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
        one = D.H.one()
        sums_ok = True
        for s, ms in D.slices:
            for t, mt in D.slices:
                if compare(s + t, one) is Ordering.LT:
                    if any(not E.defined(x, y) for x in ms for y in mt):
                        sums_ok = False
        index = {t: m for t, m in D.slices}
        e0 = index.get(D.H.zero(), frozenset())
        report = ideals_enumerate(E)
        maximal = [i.members for i in report.ideals if i.maximal]
        unique_max = maximal == [e0]
        idem = {E.add(x, y) for x in e0 for y in e0 if E.defined(x, y)} == set(e0)
        detail = "" if unique_max else f"maximal ideals: {sorted(map(sorted, maximal))}"
        return TypeIReport(sums_ok and unique_max, sums_ok, unique_max, idem, detail)
    if isinstance(D, LexDecomposition):
        # sums below one and the idempotent E_0 hold by head arithmetic; E_0
        # is the unique maximal ideal once G is directed (module docstring)
        directed = E.tail_group.is_directed()
        return TypeIReport(directed, True, directed, True)
    raise UnsupportedError(f"unsupported decomposition {D!r}")


# ---------------------------------------------------------------------------
# cyclic systems and perfectness


@dataclass(frozen=True)
class CyclicSystem:
    entries: tuple  # ((t, element), ...) over the witness grid
    strong: bool


def find_cyclic_system(E, D, strong=False):
    """A grid family c_t in E_t with c_s + c_t = c_{s+t} and c_1 = 1, or None."""
    if isinstance(D, FiniteDecomposition):
        H = D.H
        if H.is_dense:
            return None  # finite algebras cannot meet a dense grid
        n = H.n
        from .pea import _finite_commutes_with_all

        for cand in cyclic_elements(E, n):
            if strong and not cand.strong:
                continue
            entries = []
            ok = True
            for k in range(n + 1):
                ck = E.times(k, cand.element)
                if ck is None or ck not in dict(D.slices)[Fraction(k, n)]:
                    ok = False
                    break
                entries.append((Fraction(k, n), ck))
            if ok:
                strong_flag = _finite_commutes_with_all(E, cand.element)
                return CyclicSystem(tuple(entries), strong_flag)
        return None
    if isinstance(D, LexDecomposition):
        E = D.pea
        H = D.H
        G = E.tail_group
        g0 = E.tail_unit
        entries = []
        all_strong = True
        for t in D.grid:
            tail = _integral_action(G, g0, t)
            if tail is None:
                return None
            c = (t, tail)
            if not E.contains(c):
                return None
            entries.append((t, c))
            if not E.group.center_member(c):
                all_strong = False
        # additivity of the family on grid pairs; equal scalar values hash
        # equal once coerced, so the entry at s + t is one lookup
        by_head = {}
        for t, c in entries:
            by_head.setdefault(H.coerce(t), c)
        one = H.one()
        for s, cs in entries:
            hs = H.coerce(s)
            for t, ct in entries:
                total = hs + H.coerce(t)
                if compare(total, one) is Ordering.GT:
                    continue
                match = by_head.get(total)
                if match is not None and E.add(cs, ct) != match:
                    return None
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
        return g.scale(G, g0, int(t.a))
    t = Fraction(t)
    part = g.divide(G, g0, t.denominator)
    if part is None:
        return None
    return g.scale(G, part, t.numerator)


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


def classify_perfect(E, H: ScalarSubgroup, n_max=6, seed=0) -> PerfectReport:
    """Full perfectness report for a finite algebra or a lex interval.

    ``seed`` only drives the search for an asymmetry witness on a lex interval.
    """
    if isinstance(E, FinitePea):
        ordered_report, type_i, directness, cyc = _finite_slices(E, H)
        # torsion-freeness of an abstract ambient group is not determinable here
        missing, tf, rng = None, None, None
    elif isinstance(E, IntervalPea) and E.is_lex_scalar:
        missing, ordered_report, type_i, directness, cyc = _lex_slices(E, H)
        tf, rng = E.group.is_torsion_free(), random.Random(seed)
    else:
        raise UnsupportedError(f"unsupported algebra {E!r}")
    is_perfect = ordered_report is not None and ordered_report.ordered
    one_div, strong_div, first_fail, unique = _divisibility_scan(E, n_max)
    sym = is_symmetric(E, rng).symmetric
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


def _divisibility_scan(E, n_max):
    """1-divisibility flags, the first failing order and unique roots, all
    read from one list of cyclic elements per order n <= n_max."""
    one_div, strong_div, first_fail, unique = True, True, None, True
    for n in range(1, n_max + 1):
        found = cyclic_elements(E, n)
        if len(found) > 1:
            unique = False
        if not found:
            one_div = strong_div = False
            if first_fail is None:
                first_fail = n
        elif not any(c.strong for c in found):
            strong_div = False
            if first_fail is None:
                first_fail = n
    return one_div, strong_div, first_fail, unique


def _finite_slices(E: FinitePea, H):
    """Verdicts on the first ordered decomposition by a state, if there is one."""
    for s in states_finite(E):
        try:
            D = decomposition_from_state(E, s, H)
        except PreconditionError:
            continue
        ordered_report = check_ordered(E, D)
        if ordered_report.ordered:
            type_i = check_type_i(E, D)
            directness = all(_finite_slice_directed(E, members) for _, members in D.slices)
            return ordered_report, type_i, directness, find_cyclic_system(E, D)
    return None, None, False, None


def _finite_slice_directed(E: FinitePea, members) -> bool:
    for a in members:
        for b in members:
            if not any(E.leq(c, a) and E.leq(c, b) for c in members):
                return False
            if not any(E.leq(a, c) and E.leq(b, c) for c in members):
                return False
    return True


def _lex_slices(E: IntervalPea, H):
    """The first grid slice the head misses, or None, and the slice verdicts."""
    _require_unit_head(E)
    _require_head_values_in(E, H)
    directness = E.tail_group.is_directed()  # slice directness, module docstring
    missing = next((t for t in grid_points(H) if not E.head_subgroup.contains(t)), None)
    if missing is not None:
        # a head that misses a grid slice is not perfect over H
        return missing, None, None, directness, None
    D = decomposition_from_state(E, FirstCoordinateState(E), H)
    return missing, check_ordered(E, D), check_type_i(E, D), directness, find_cyclic_system(E, D)


# ---------------------------------------------------------------------------
# strong cyclic property vs strong 1-divisibility


@dataclass(frozen=True)
class EquivalenceVerdict:
    cyclic_side: bool
    divisibility_side: bool
    agree: bool
    uniqueness_ok: bool


def strong_cyclic_vs_divisibility(E: IntervalPea, n_max=6) -> EquivalenceVerdict:
    """Both sides computed independently and compared; also asserts that a
    strong cyclic element of order n is the only cyclic element of order n."""
    if not (isinstance(E, IntervalPea) and E.group.is_torsion_free()):
        raise PreconditionError("needs an interval algebra over a torsion-free group")
    strong_side = True
    div_side = True
    uniqueness = True
    for n in range(1, n_max + 1):
        found = cyclic_elements(E, n)
        strong_found = [c for c in found if c.strong]
        if not strong_found:
            div_side = False
        if strong_found and len(found) != 1:
            uniqueness = False
    # cyclic-system side over the rational grid with denominators <= n_max
    if E.is_lex_scalar:
        _require_unit_head(E)
        D = LexDecomposition(
            E.head_subgroup, E, tuple(grid_points(E.head_subgroup, max_den=n_max)), True
        )
        cyc = find_cyclic_system(E, D, strong=True)
        strong_side = cyc is not None and cyc.strong
    else:
        strong_side = div_side
    return EquivalenceVerdict(strong_side, div_side, strong_side == div_side, uniqueness)
