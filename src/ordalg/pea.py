"""Pseudo effect algebras: finite tables and unit intervals of po-groups.

A finite algebra is a partial addition table over elements 0..n-1 with
designated zero and one; :func:`check_pea_axioms` verifies the four defining
axioms exhaustively and returns a witness on failure.  An interval algebra
is the segment [0, u] of a unital po-group with addition defined whenever
the group sum stays below the unit; its elements are never enumerated, all
queries go through exact group arithmetic.

The finite kernels read per-element bitsets, filled once per algebra in one
pass over the defined pairs: the up-set, down-set and right-defined set of
each element, and its negations.  Ideals are bitsets as well: an ideal is
normal when it holds the conjugates of its members, and the closure growth
that enumerates the ideals also tells which are maximal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

from . import groups as g
from .errors import PreconditionError, UnsupportedError
from .scalars import Ordering, ScalarSubgroup, compare

MAX_FINITE_SIZE = 64


@dataclass(frozen=True)
class AxiomFailure:
    axiom: str  # "PE1".."PE4" or a table sanity tag
    witness: tuple

    def __str__(self):
        return f"{self.axiom} fails at {self.witness}"


class _ElementBits(NamedTuple):
    up: list
    down: list
    right: list
    lneg: list
    rneg: list


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

    @functools.cached_property
    def _bits(self):
        """Per-element bitsets and complements, from one pass over the defined pairs.

        Bit s of ``up[x]`` is set when x + c = s for some c, that is x <= s;
        the axioms make this a partial order bounded by zero and one that
        agrees with the left order d + x = s (the tests check it on every
        stock and accepted table).  ``down[s]`` holds the x <= s and
        ``right[x]`` the c with x + c defined.  ``rneg[x]`` is the c with
        x + c = 1 and ``lneg[x]`` the d with d + x = 1; PE2 makes both unique.
        """
        n = self.size
        up, down, right = [0] * n, [0] * n, [0] * n
        lneg, rneg = [None] * n, [None] * n
        one, bit = self.one, [1 << x for x in range(n)]
        for (x, c), s in self.table.items():
            up[x] |= bit[s]
            down[s] |= bit[x]
            right[x] |= bit[c]
            if s == one:
                rneg[x], lneg[c] = c, x
        return _ElementBits(up, down, right, lneg, rneg)

    def leq(self, a, b):
        return bool(self._bits.up[a] >> b & 1)

    def _central(self, a):
        """Whether a commutes with all of E: its row {x: a + x} is its column {x: x + a}."""
        right, left = self._sum_rows
        return dict(right[a]) == dict(left[a])

    @functools.cached_property
    def _conjugates(self):
        """conj[m] holds the c with m + x = x + c, over the x with m + x defined.

        PE3 gives such a c and cancellation makes it unique.  So I holds the
        conjugates of its members exactly when I + x lies in x + I for every
        x, and then the two are equal: summed over x, I + x counts the pairs
        of a member m and an x with m + x defined, x + I those with x + m
        defined, and conjugation by m matches the two sets of x one to one.
        """
        after = [{s: c for c, s in row} for row in self._sum_rows[0]]  # after[x][x + c] = c
        conj = [0] * self.size
        for (m, x), s in self.table.items():
            conj[m] |= 1 << after[x][s]
        return conj

    # -- derived operations ----------------------------------------------------

    def lneg(self, a):
        return self._bits.lneg[a]

    def rneg(self, a):
        return self._bits.rneg[a]

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

    Raises on a size past the cap or zero/one out of range.  The witness is
    the lexicographically smallest failing triple for PE1, pair for PE3 and
    element for PE2 and PE4.  The checks compare byte rows: ``rows[x][c]``
    is x + c, or the sentinel n where undefined, and ``rows[n]`` and the
    last column are all sentinel.  PE1 at row a is one ``translate`` of all
    the rows b + c through row a, giving a + (b + c), against the rows
    a + b joined, giving (a + b) + c; the first differing byte names (b, c).
    PE3 holds exactly when every element has the same set of sums in its
    row as in its column: pairs (x, b) give one inclusion, pairs (a, x) the
    other.
    """
    n = size
    if n > MAX_FINITE_SIZE:
        raise UnsupportedError(f"finite algebras are capped at {MAX_FINITE_SIZE} elements")
    if not (0 <= zero < n and 0 <= one < n):
        raise PreconditionError("zero/one designators out of range")
    rows = [bytearray([n]) * (n + 1) for _ in range(n + 1)]
    for (a, b), s in table.items():
        if not (0 <= a < n and 0 <= b < n and 0 <= s < n):
            return AxiomFailure("table", (a, b, s))
        rows[a][b] = s
    rows = [bytes(row) for row in rows]
    block = b"".join(rows)
    pad = bytes([n]) * (255 - n)  # completes a row to a 256-byte translate table
    # PE1: associativity of definedness and of values
    for a, row in enumerate(rows[:n]):
        left = block.translate(row + pad)
        right = b"".join(map(rows.__getitem__, row))
        if left != right:
            i = next(i for i, (x, y) in enumerate(zip(left, right)) if x != y)
            return AxiomFailure("PE1", (a, *divmod(i, n + 1)))
    cols = [block[x :: n + 1] for x in range(n + 1)]  # cols[x][d] = d + x
    # PE2: unique right and left complements to one
    for a in range(n):
        if rows[a].count(one) != 1 or cols[a].count(one) != 1:
            return AxiomFailure("PE2", (a,))
    # PE3: every defined sum shifts to both sides
    row_sums = [set(row) for row in rows]
    col_sums = [set(col) for col in cols]
    if row_sums != col_sums:
        failures = [(a, b) for (a, b), s in table.items() if s not in col_sums[a] or s not in row_sums[b]]
        return AxiomFailure("PE3", min(failures))
    # PE4: one is a forbidden summand except against zero
    for a in range(n):
        if a != zero and (rows[one][a] != n or cols[one][a] != n):
            return AxiomFailure("PE4", (a,))
    return None


@dataclass(frozen=True)
class AxiomVerdict:
    valid: bool
    pea: FinitePea | None = None
    failure: AxiomFailure | None = None


def check_pea_axioms(size, zero, one, table) -> AxiomVerdict:
    """Exhaustively verify PE1-PE4 for a partial addition table."""
    table = dict(table)
    failure = _axiom_failure(size, zero, one, table)
    if failure is not None:
        return AxiomVerdict(False, failure=failure)
    return AxiomVerdict(True, pea=FinitePea(size, zero, one, table, _validated=True))


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
    """The interval [0, unit] of a unital po-group.

    The operations call the group's ``add``, ``leq`` and difference
    methods, bound once here.
    """

    def __init__(self, group: g.GroupDescriptor, unit):
        self.group = group
        self.unit = group.check_element(unit)
        if not group.is_strong_unit(self.unit):
            raise PreconditionError("interval algebras need a strong unit")
        self.zero = group.zero()
        self._add, self._leq = group.add, group.leq
        self._sub_right, self._sub_left = group.sub_right, group.sub_left

    @property
    def one(self):
        return self.unit

    def contains(self, x):
        return self._leq(self.zero, x) and self._leq(x, self.unit)

    def add(self, a, b):
        s = self._add(a, b)
        return s if self._leq(s, self.unit) else None

    def defined(self, a, b):
        return self.add(a, b) is not None

    def leq(self, a, b):
        return self._leq(a, b)

    def lneg(self, a):
        return self._sub_right(self.unit, a)

    def rneg(self, a):
        return self._sub_left(a, self.unit)

    def minus_left(self, b, a):
        """d with d + a = b, defined iff a <= b."""
        if not self._leq(a, b):
            return None
        return self._sub_right(b, a)

    def minus_right(self, a, b):
        """c with a + c = b, defined iff a <= b."""
        if not self._leq(a, b):
            return None
        return self._sub_left(a, b)

    def times(self, n, a):
        acc = self.zero
        for _ in range(n):
            acc = self.add(acc, a)
            if acc is None:
                return None
        return acc

    def sample(self, rng, bound=8):
        # every strong unit of the grammar is positive and nonzero, and
        # __init__ checked that the unit is one, so no draw checks it again
        return self.group._sample_interval(self.unit, rng, bound)

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
    """x + I = I + x for every x: I holds the conjugates of its members."""
    mask = _mask(ideal)
    conj = E._conjugates
    return all(conj[m] & ~mask == 0 for m in ideal)


def _mask(members):
    mask = 0
    for x in members:
        mask |= 1 << x
    return mask


def _members(mask):
    return frozenset(x for x in range(mask.bit_length()) if mask >> x & 1)


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


def _ideal_closure(E: FinitePea):
    """closure(members, x): the ideal generated by an ideal and x, as bitsets.

    It grows by a worklist: a new member y brings in its down-set and the
    defined sums y + m and m + y with m already in, read from y's sum rows.
    Once one is reached the answer is the whole algebra.
    """
    right, left = E._sum_rows
    everything, one = (1 << E.size) - 1, 1 << E.one
    below = [[] for _ in E.elements()]  # below[s] = the x < s
    for (x, _c), s in E.table.items():
        if x != s:
            below[s].append(x)

    def closure(members, x):
        work = [x]
        for y in work:
            bit = 1 << y
            if members & bit:
                continue
            if bit == one:
                return everything  # every element lies below one
            members |= bit
            work += below[y]
            work += [s for m, s in right[y] if members >> m & 1]
            work += [s for m, s in left[y] if members >> m & 1]
        return members

    return closure


def ideals_enumerate(E: FinitePea) -> IdealsReport:
    """All ideals by closure growth, with maximality/normality flags.

    Ideals are element bitsets, each grown from a closed base by
    ``_ideal_closure``.  An ideal above a base holds an element minimal
    outside it, so growing every base by those alone reaches every ideal;
    and a proper ideal is maximal exactly when each ideal grown from it is
    the whole algebra, so maximality is read off the same growth.
    """
    down = E._bits.down
    everything = (1 << E.size) - 1
    closure = _ideal_closure(E)
    bottom = closure(0, E.zero)
    found, maximal = {bottom}, set()
    generated = {}  # the ideal generated by base | x, which many pairs share
    frontier = [bottom]
    while frontier:
        base = frontier.pop()
        tops = True
        for x in E.elements():
            bit = 1 << x
            if base & bit or down[x] & ~base != bit:
                continue
            grown = generated.get(base | bit)
            if grown is None:
                grown = generated[base | bit] = closure(base, x)
            tops = tops and grown == everything
            if grown not in found:
                found.add(grown)
                frontier.append(grown)
        if tops and base != everything:
            maximal.add(base)
    ideals = sorted(map(_members, found), key=lambda s: (len(s), sorted(s)))
    infos = tuple(IdealInfo(i, _mask(i) in maximal, _is_normal_ideal(E, i)) for i in ideals)
    all_elements = frozenset(E.elements())
    radical = all_elements.intersection(*(i.members for i in infos if i.maximal))
    normal_radical = all_elements.intersection(
        *(i.members for i in infos if i.maximal and i.normal)
    )
    return IdealsReport(infos, radical, normal_radical)


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
    """All a with na defined for every n: {0} for finite E, symbolic for lex.

    If na is defined for every n and a != 0, cancellation gives
    0 < a < 2a < ..., which a finite table cannot hold.
    """
    if isinstance(E, FinitePea):
        return {E.zero}
    if isinstance(E, IntervalPea) and E.is_lex_scalar:
        return SymbolicInfinitesimals(E)
    raise UnsupportedError("infinitesimals need a finite algebra or a scalar-headed lex interval")


# ---------------------------------------------------------------------------
# cyclic elements, symmetry, exchange


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
        return [CyclicElement(a, n, E._central(a)) for a in E.elements() if E.times(n, a) == E.one]
    if isinstance(E, IntervalPea):
        # all supported descriptors are torsion-free, so the root is unique
        c = g.divide(E.group, E.unit, n)
        if c is None or not E.contains(c):
            return []
        assert E.group.scale(c, n) == E.unit
        return [CyclicElement(c, n, E.group.center_member(c))]
    raise UnsupportedError(f"unsupported algebra {E!r}")


@dataclass(frozen=True)
class SymmetryVerdict:
    symmetric: bool
    witness: object = None


def is_symmetric(E) -> SymmetryVerdict:
    """Do left and right negation agree everywhere?

    On an interval algebra u - x = -x + u exactly when x commutes with the
    unit u = (h, g0), that is when the tail of x commutes with g0.  As h > 0
    the interval holds (0, y) for every y >= 0, and that cone generates the
    tail group.  So it is symmetric exactly when g0 is central, and
    otherwise (0, y) is a witness for a y >= 0 that fails against g0.
    """
    if isinstance(E, FinitePea):
        lneg, rneg = E._bits.lneg, E._bits.rneg
        witness = next((a for a in E.elements() if lneg[a] != rneg[a]), None)
        return SymmetryVerdict(witness is None, witness)
    if isinstance(E, IntervalPea) and E.is_lex_scalar:
        y = E.tail_group._commutant(E.tail_unit)
        return SymmetryVerdict(True) if y is None else SymmetryVerdict(False, (E.zero[0], y))
    raise UnsupportedError(f"unsupported algebra {E!r}")


@dataclass(frozen=True)
class ExchangeVerdict:
    holds: bool
    counterexample: object = None
    exhaustive: bool = False


def cyclic_exchange_check(E, c, max_order=64) -> ExchangeVerdict:
    """x + c defined iff c + x defined, for a cyclic element c.

    Decided exactly.  A finite table is scanned.  On an interval algebra nc = u
    makes c commute with u, so u - c = -c + u, and x + c <= u iff
    x <= u - c iff c + x <= u: the exchange always holds.
    """
    order = None
    for n in range(1, max_order + 1):
        if E.times(n, c) == E.one:
            order = n
            break
    if order is None:
        raise PreconditionError("c is not cyclic (no n <= max_order with nc = 1)")
    if isinstance(E, FinitePea):
        # the x with exactly one of c + x and x + c defined
        right, left = E._sum_rows
        lonely = {x for x, _ in right[c]} ^ {x for x, _ in left[c]}
        return ExchangeVerdict(not lonely, min(lonely, default=None), exhaustive=True)
    return ExchangeVerdict(True, exhaustive=True)
