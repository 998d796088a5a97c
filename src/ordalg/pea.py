"""Pseudo effect algebras: finite tables and unit intervals of po-groups.

A finite algebra is a partial addition table over elements 0..n-1 with
designated zero and one; :func:`check_pea_axioms` verifies the four defining
axioms exhaustively and returns a witness on failure.  An interval algebra
is the segment [0, u] of a unital po-group with addition defined whenever
the group sum stays below the unit; its elements are never enumerated, all
queries go through exact group arithmetic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import groups as g
from .errors import PreconditionError, UnsupportedError
from .sampling import sample_interval
from .scalars import Ordering, ScalarSubgroup, compare

MAX_FINITE_SIZE = 64


@dataclass(frozen=True)
class AxiomFailure:
    axiom: str  # "PE1".."PE4" or a table sanity tag
    witness: tuple

    def __str__(self):
        return f"{self.axiom} fails at {self.witness}"


class FinitePea:
    """A finite pseudo effect algebra; construct via :func:`check_pea_axioms`."""

    def __init__(self, size, zero, one, table, _validated=False):
        self.size = size
        self.zero = zero
        self.one = one
        self.table = table  # dict (i, j) -> k for defined sums
        if not _validated:
            failure = _axiom_failure(size, zero, one, table)
            if failure is not None:
                raise PreconditionError(str(failure))
        self._leq = self._derive_order()
        self._assert_derived()

    # -- construction helpers ------------------------------------------------

    def elements(self):
        return range(self.size)

    def add(self, a, b):
        return self.table.get((a, b))

    def defined(self, a, b):
        return (a, b) in self.table

    @functools.cached_property
    def _sum_rows(self):
        """(right, left): right[y] lists the (m, y + m), left[y] the (m, m + y)."""
        right = [[] for _ in self.elements()]
        left = [[] for _ in self.elements()]
        for (x, c), s in self.table.items():
            right[x].append((c, s))
            left[c].append((x, s))
        return right, left

    def _derive_order(self):
        rel = [[False] * self.size for _ in range(self.size)]
        for a in self.elements():
            for c in self.elements():
                s = self.add(a, c)
                if s is not None:
                    rel[a][s] = True
        return rel

    def leq(self, a, b):
        return self._leq[a][b]

    def _assert_derived(self):
        # antisymmetry, bounds, cancellativity and the left/right agreement
        # of the derived order all follow from the axioms; assert them.
        # a <= b holds when a + c = b for some c (the derived order); the
        # left order asks for d + a = b.  Cancellation at a means the
        # defined sums in row a, and in column a, are pairwise distinct.
        row_sums = [[] for _ in self.elements()]  # a + c over defined c
        column_sums = [[] for _ in self.elements()]  # d + a over defined d
        for (d, c), s in self.table.items():
            row_sums[d].append(s)
            column_sums[c].append(s)
        for a in self.elements():
            if not self.leq(self.zero, a) or not self.leq(a, self.one):
                raise AssertionError("derived order lost its bounds")
            left_above = set(column_sums[a])
            for b in self.elements():
                if self.leq(a, b) and self.leq(b, a) and a != b:
                    raise AssertionError(f"derived order not antisymmetric at ({a}, {b})")
                if self.leq(a, b) != (b in left_above):
                    raise AssertionError(f"left/right order disagree at ({a}, {b})")
        for a in self.elements():
            if len(set(row_sums[a])) != len(row_sums[a]):
                raise AssertionError(f"left cancellation fails at {a}")
            if len(set(column_sums[a])) != len(column_sums[a]):
                raise AssertionError(f"right cancellation fails at {a}")

    # -- derived operations ----------------------------------------------------

    def minus_right(self, a, b):
        """The c with a + c = b, or None."""
        for c in self.elements():
            if self.add(a, c) == b:
                return c
        return None

    def minus_left(self, b, a):
        """The d with d + a = b, or None."""
        for d in self.elements():
            if self.add(d, a) == b:
                return d
        return None

    def lneg(self, a):
        return self.minus_left(self.one, a)

    def rneg(self, a):
        return self.minus_right(a, self.one)

    def times(self, n, a):
        """n-fold sum, or None when undefined."""
        acc = self.zero
        for _ in range(n):
            acc = self.add(acc, a)
            if acc is None:
                return None
        return acc

    def __repr__(self):
        return f"FinitePea(size={self.size})"


def _axiom_failure(size, zero, one, table):
    """The first failing check (range, PE1..PE4) with its smallest witness, or None.

    Only a triple with (a + b) + c or a + (b + c) defined can break PE1, so
    PE1 walks the left-defined triples (a, b) -> ab, c in rows[ab] and then
    the right-defined ones (b, c) -> bc, a in cols[bc]; the witness is the
    lexicographically smallest failing triple (pair for PE3, element for
    PE2 and PE4).  PE2 and PE3 read the same rows and columns.
    """
    els = range(size)
    for (i, j), k in table.items():
        if not (0 <= i < size and 0 <= j < size and 0 <= k < size):
            return AxiomFailure("table", (i, j, k))

    def add(a, b):
        return table.get((a, b))

    rows = [{} for _ in els]  # rows[x][c] = x + c
    cols = [{} for _ in els]  # cols[x][d] = d + x
    for (a, b), s in table.items():
        rows[a][b] = s
        cols[b][a] = s
    # PE1: associativity of definedness and of values
    failures = []
    for a in els:
        row_a = rows[a]
        for b, ab in row_a.items():
            row_b = rows[b]
            for c, abc in rows[ab].items():
                bc = row_b.get(c)
                if bc is None or row_a.get(bc) != abc:
                    failures.append((a, b, c))
    for b in els:
        row_b = rows[b]
        for c, bc in row_b.items():
            for a in cols[bc]:
                ab = rows[a].get(b)
                if ab is None or c not in rows[ab]:
                    failures.append((a, b, c))
    if failures:
        return AxiomFailure("PE1", min(failures))
    # PE2: unique right and left complements to one
    for a in els:
        if list(rows[a].values()).count(one) != 1 or list(cols[a].values()).count(one) != 1:
            return AxiomFailure("PE2", (a,))
    # PE3: every defined sum shifts to both sides
    row_sums = [set(row.values()) for row in rows]
    col_sums = [set(col.values()) for col in cols]
    failures = [(a, b) for (a, b), s in table.items() if s not in col_sums[a] or s not in row_sums[b]]
    if failures:
        return AxiomFailure("PE3", min(failures))
    # PE4: one is a forbidden summand except against zero
    for a in els:
        if (add(a, one) is not None or add(one, a) is not None) and a != zero:
            return AxiomFailure("PE4", (a,))
    return None


@dataclass(frozen=True)
class AxiomVerdict:
    valid: bool
    pea: FinitePea | None = None
    failure: AxiomFailure | None = None


def check_pea_axioms(size, zero, one, table) -> AxiomVerdict:
    """Exhaustively verify PE1-PE4 for a partial addition table."""
    if size > MAX_FINITE_SIZE:
        raise UnsupportedError(f"finite algebras are capped at {MAX_FINITE_SIZE} elements")
    if not (0 <= zero < size and 0 <= one < size):
        raise PreconditionError("zero/one designators out of range")
    failure = _axiom_failure(size, zero, one, dict(table))
    if failure is not None:
        return AxiomVerdict(False, failure=failure)
    return AxiomVerdict(True, pea=FinitePea(size, zero, one, dict(table), _validated=True))


# ---------------------------------------------------------------------------
# stock finite algebras


def finite_chain(n: int) -> FinitePea:
    """The chain 0 < 1 < ... < n with k + m defined iff k + m <= n."""
    table = {}
    for i in range(n + 1):
        for j in range(n + 1):
            if i + j <= n:
                table[(i, j)] = i + j
    return FinitePea(n + 1, 0, n, table)


def boolean_algebra(k: int) -> FinitePea:
    """The Boolean algebra 2^k: subsets of {0..k-1}, sums of disjoint sets."""
    table = {}
    for i in range(1 << k):
        for j in range(1 << k):
            if i & j == 0:
                table[(i, j)] = i | j
    return FinitePea(1 << k, 0, (1 << k) - 1, table)


# ---------------------------------------------------------------------------
# interval algebras


class IntervalPea:
    """The interval [0, unit] of a unital po-group."""

    def __init__(self, group: g.GroupDescriptor, unit):
        self.group = group
        self.unit = g.check_element(group, unit)
        if not group.is_strong_unit(self.unit):
            raise PreconditionError("interval algebras need a strong unit")
        self.zero = group.zero()

    @property
    def one(self):
        return self.unit

    def contains(self, x):
        return g.leq(self.group, self.zero, x) and g.leq(self.group, x, self.unit)

    def add(self, a, b):
        s = g.add(self.group, a, b)
        return s if g.leq(self.group, s, self.unit) else None

    def defined(self, a, b):
        return self.add(a, b) is not None

    def leq(self, a, b):
        return g.leq(self.group, a, b)

    def lneg(self, a):
        return g.add(self.group, self.unit, g.neg(self.group, a))

    def rneg(self, a):
        return g.add(self.group, g.neg(self.group, a), self.unit)

    def minus_left(self, b, a):
        """d with d + a = b, defined iff a <= b."""
        if not self.leq(a, b):
            return None
        return g.sub_right(self.group, b, a)  # b - a

    def minus_right(self, a, b):
        """c with a + c = b, defined iff a <= b."""
        if not self.leq(a, b):
            return None
        return g.sub_left(self.group, a, b)  # -a + b

    def times(self, n, a):
        acc = self.zero
        for _ in range(n):
            acc = self.add(acc, a)
            if acc is None:
                return None
        return acc

    def sample(self, rng, bound=8):
        return sample_interval(self.group, self.unit, rng, bound)

    # -- lexicographic structure helpers ------------------------------------

    @property
    def is_lex_scalar(self):
        return isinstance(self.group, g.Lex) and isinstance(self.group.top, g.Scalar)

    @property
    def head_subgroup(self) -> ScalarSubgroup:
        if not self.is_lex_scalar:
            raise UnsupportedError("not a scalar-headed lexicographic interval")
        return self.group.top.H

    @property
    def tail_group(self):
        if not self.is_lex_scalar:
            raise UnsupportedError("not a scalar-headed lexicographic interval")
        return self.group.bottom

    @property
    def tail_unit(self):
        """The bottom component g0 of the unit (1, g0)."""
        if not self.is_lex_scalar:
            raise UnsupportedError("not a scalar-headed lexicographic interval")
        return self.unit[1]

    def __repr__(self):
        return f"IntervalPea({self.group}, unit={self.group.format_element(self.unit)})"


# ---------------------------------------------------------------------------
# ideals and radicals (finite)


def _is_normal_ideal(E: FinitePea, ideal):
    """x + I = I + x for every x, read from the sum rows of x."""
    right, left = E._sum_rows
    return all(
        {s for m, s in r if m in ideal} == {s for m, s in l if m in ideal}
        for r, l in zip(right, left)
    )


@dataclass(frozen=True)
class IdealInfo:
    members: frozenset
    maximal: bool
    normal: bool


@dataclass(frozen=True)
class IdealsReport:
    ideals: tuple
    radical: frozenset
    normal_radical: frozenset


def ideals_enumerate(E: FinitePea) -> IdealsReport:
    """All ideals by closure growth, with maximality/normality flags.

    Each ideal grows from a closed base by a worklist: a new member y brings
    in its down-set and the defined sums y + m and m + y with m already in,
    read from y's sum rows.
    """
    down = [[] for _ in E.elements()]  # down[s] = the x <= s
    for (x, c), s in E.table.items():
        down[s].append(x)
    right, left = E._sum_rows

    def closure(base, x):
        members = set(base)
        work = [x]
        while work:
            y = work.pop()
            if y in members:
                continue
            members.add(y)
            work += [d for d in down[y] if d not in members]
            work += [s for m, s in right[y] if m in members and s not in members]
            work += [s for m, s in left[y] if m in members and s not in members]
        return frozenset(members)

    found = {closure((), E.zero)}
    frontier = list(found)
    while frontier:
        base = frontier.pop()
        for x in E.elements():
            # an ideal above base holds an element minimal outside base, so
            # growing by those alone reaches every ideal
            if x in base or not base.issuperset(d for d in down[x] if d != x):
                continue
            grown = closure(base, x)
            if grown not in found:
                found.add(grown)
                frontier.append(grown)
    all_elements = frozenset(E.elements())
    proper = [i for i in found if i != all_elements]
    maximal = {
        i for i in proper if not any(i < j for j in proper)
    }
    infos = tuple(
        IdealInfo(i, i in maximal, _is_normal_ideal(E, i))
        for i in sorted(found, key=lambda s: (len(s), sorted(s)))
    )
    radical = all_elements
    for i in maximal:
        radical &= i
    normal_radical = all_elements
    for info in infos:
        if info.maximal and info.normal:
            normal_radical &= info.members
    return IdealsReport(infos, frozenset(radical), frozenset(normal_radical))


# ---------------------------------------------------------------------------
# infinitesimals


@dataclass(frozen=True)
class SymbolicInfinitesimals:
    """The slice {(0, g): g >= 0} of a scalar-headed lex interval."""

    pea: IntervalPea

    def contains(self, x) -> bool:
        head, tail = x
        H = self.pea.head_subgroup
        return (
            compare(head, H.zero()) is Ordering.EQ
            and g.positive_cone_member(self.pea.tail_group, tail)
        )

    def __str__(self):
        return "{(0, g): g in G+}"


def infinitesimals(E):
    """All a with na defined for every n: a set for finite E, symbolic for lex."""
    if isinstance(E, FinitePea):
        out = set()
        for a in E.elements():
            acc, ok = E.zero, True
            seen = set()
            for _ in range(E.size + 1):
                acc = E.add(acc, a)
                if acc is None:
                    ok = False
                    break
                if acc in seen:
                    break
                seen.add(acc)
            if ok:
                out.add(a)
        assert out == {E.zero}, "finite cancellative algebras admit only 0"
        return out
    if isinstance(E, IntervalPea) and E.is_lex_scalar:
        return SymbolicInfinitesimals(E)
    raise UnsupportedError("infinitesimals need a finite algebra or a scalar-headed lex interval")


# ---------------------------------------------------------------------------
# cyclic elements, symmetry, exchange


def _finite_commutes_with_all(E: FinitePea, a) -> bool:
    for x in E.elements():
        if E.defined(x, a) != E.defined(a, x):
            return False
        if E.defined(x, a) and E.add(x, a) != E.add(a, x):
            return False
    return True


@dataclass(frozen=True)
class CyclicElement:
    element: object
    order: int
    strong: bool


def cyclic_elements(E, n: int):
    """All a with na = 1, each flagged strong when central.

    Finite algebras search exhaustively and use commutation inside E as the
    strength probe; interval algebras over Lex(Scalar(H), G) solve
    n*(t, g) = unit exactly and test group-center membership.
    """
    if n < 1:
        raise PreconditionError("order must be >= 1")
    if isinstance(E, FinitePea):
        return [
            CyclicElement(a, n, _finite_commutes_with_all(E, a))
            for a in E.elements()
            if E.times(n, a) == E.one
        ]
    if isinstance(E, IntervalPea):
        # all supported descriptors are torsion-free, so the root is unique
        c = g.divide(E.group, E.unit, n)
        if c is None or not E.contains(c):
            return []
        assert g.scale(E.group, c, n) == E.unit
        return [CyclicElement(c, n, E.group.center_member(c))]
    raise UnsupportedError(f"unsupported algebra {E!r}")


@dataclass(frozen=True)
class SymmetryVerdict:
    symmetric: bool
    witness: object = None


def is_symmetric(E, rng=None, samples=200) -> SymmetryVerdict:
    """Do left and right negation agree everywhere?"""
    if isinstance(E, FinitePea):
        for a in E.elements():
            if E.lneg(a) != E.rneg(a):
                return SymmetryVerdict(False, a)
        return SymmetryVerdict(True)
    if isinstance(E, IntervalPea) and E.is_lex_scalar:
        if E.tail_group.center_member(E.tail_unit):
            return SymmetryVerdict(True)
        # produce a concrete witness by sampling
        import random

        rng = rng or random.Random(0)
        for _ in range(samples):
            x = E.sample(rng)
            if E.lneg(x) != E.rneg(x):
                return SymmetryVerdict(False, x)
        raise AssertionError("center test says asymmetric but no witness sampled")
    raise UnsupportedError(f"unsupported algebra {E!r}")


@dataclass(frozen=True)
class ExchangeVerdict:
    holds: bool
    counterexample: object = None
    exhaustive: bool = False


def cyclic_exchange_check(E, c, max_order=64, rng=None, samples=200) -> ExchangeVerdict:
    """x + c defined iff c + x defined, for a cyclic element c."""
    order = None
    for n in range(1, max_order + 1):
        if E.times(n, c) == E.one:
            order = n
            break
    if order is None:
        raise PreconditionError("c is not cyclic (no n <= max_order with nc = 1)")
    if isinstance(E, FinitePea):
        for x in E.elements():
            if E.defined(x, c) != E.defined(c, x):
                return ExchangeVerdict(False, x, exhaustive=True)
        return ExchangeVerdict(True, exhaustive=True)
    import random

    rng = rng or random.Random(0)
    for _ in range(samples):
        x = E.sample(rng)
        if (E.add(x, c) is not None) != (E.add(c, x) is not None):
            return ExchangeVerdict(False, x)
    return ExchangeVerdict(True)
