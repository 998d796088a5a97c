"""Pseudo effect algebras: finite tables and unit intervals of po-groups.

A finite algebra is a partial addition table over elements 0..n-1 with
designated zero and one; :func:`check_pea_axioms` verifies the four defining
axioms exhaustively and returns a witness on failure.  An interval algebra
is the segment [0, u] of a unital po-group with addition defined whenever
the group sum stays below the unit; its elements are never enumerated, all
queries go through exact group arithmetic.

The finite kernels read per-element bitsets, filled once per algebra in one
pass over the defined pairs: the up-set, down-set and right-defined set of
each element.  Complements, conjugates and commutation are looked up in the
byte rows and columns that the axiom check compared, which each algebra
keeps.  Ideals are bitsets as well: an ideal is normal when it holds the
conjugates of its members, and the closure growth that enumerates the
ideals also tells which are maximal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

from . import groups as g
from .errors import PreconditionError, UnsupportedError
from .scalars import ScalarSubgroup, _order_sign

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


class FinitePea:
    """A finite pseudo effect algebra; construct via :func:`check_pea_axioms`.

    ``table`` maps each defined pair (i, j) to i + j, copied from the caller;
    ``rows`` and ``cols`` are the byte rows and columns it was checked on.
    """

    def __init__(self, size, zero, one, table, _rows=None):
        if _rows is None:
            failure, _rows = _axiom_failure(size, zero, one, table)
            if failure is not None:
                raise PreconditionError(str(failure))
        self.size = size
        self.zero = zero
        self.one = one
        self.table = dict(table)
        self.rows, self.cols = _rows

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
        """Per-element bitsets, from one pass over the defined pairs.

        Bit s of ``up[x]`` is set when x + c = s for some c, that is x <= s;
        the axioms make this a partial order bounded by zero and one that
        agrees with the left order d + x = s (the tests check it on every
        stock and accepted table).  ``down[s]`` holds the x <= s and
        ``right[x]`` the c with x + c defined.
        """
        n = self.size
        up, down, right = [0] * n, [0] * n, [0] * n
        bit = [1 << x for x in range(n)]
        for (x, c), s in self.table.items():
            up[x] |= bit[s]
            down[s] |= bit[x]
            right[x] |= bit[c]
        return _ElementBits(up, down, right)

    def leq(self, a, b):
        return bool(self._bits.up[a] >> b & 1)

    def _central(self, a):
        """Whether a commutes with all of E: its row a + x is its column x + a."""
        return self.rows[a] == self.cols[a]

    @functools.cached_property
    def _conjugates(self):
        """conj[m] holds the c with m + x = x + c, over the x with m + x defined.

        PE3 gives such a c and cancellation makes it unique.  So I holds the
        conjugates of its members exactly when I + x lies in x + I for every
        x, and then the two are equal: summed over x, I + x counts the pairs
        of a member m and an x with m + x defined, x + I those with x + m
        defined, and conjugation by m matches the two sets of x one to one.
        """
        rows, conj = self.rows, [0] * self.size
        for (m, x), s in self.table.items():
            conj[m] |= 1 << rows[x].find(s)  # the c with x + c = s
        return conj

    # -- derived operations ----------------------------------------------------

    # PE2 makes each complement the one place of one in its column or row
    def lneg(self, a):
        return self.cols[a].find(self.one)

    def rneg(self, a):
        return self.rows[a].find(self.one)

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
    """(failure, (rows, cols)): the first failing check (range, PE1..PE4) with
    its smallest witness or None, and the byte rows and columns compared.

    Raises on a size past the cap or zero/one out of range.  The witness is
    the lexicographically smallest failing triple for PE1, pair for PE3 and
    element for PE2 and PE4.  ``rows[x][c]`` and ``cols[c][x]`` are x + c,
    or the sentinel n where undefined, and ``rows[n]`` and ``cols[n]`` are
    all sentinel; an entry out of range leaves None in their place.  PE1 at
    row a is one ``translate`` of all the rows b + c through row a, giving
    a + (b + c), against the rows a + b joined, giving (a + b) + c; the
    first differing byte names (b, c).  PE3 holds exactly when every
    element has the same set of sums in its row as in its column: pairs
    (x, b) give one inclusion, pairs (a, x) the other.
    """
    n = size
    if n > MAX_FINITE_SIZE:
        raise UnsupportedError(f"finite algebras are capped at {MAX_FINITE_SIZE} elements")
    if not (0 <= zero < n and 0 <= one < n):
        raise PreconditionError("zero/one designators out of range")
    rows = [bytearray([n]) * (n + 1) for _ in range(n + 1)]
    for (a, b), s in table.items():
        if not (0 <= a < n and 0 <= b < n and 0 <= s < n):
            return AxiomFailure("table", (a, b, s)), None
        rows[a][b] = s
    rows = [bytes(row) for row in rows]
    block = b"".join(rows)
    cols = [block[x :: n + 1] for x in range(n + 1)]
    checked = rows, cols
    pad = bytes([n]) * (255 - n)  # completes a row to a 256-byte translate table
    # PE1: associativity of definedness and of values
    for a, row in enumerate(rows[:n]):
        left = block.translate(row + pad)
        right = b"".join(map(rows.__getitem__, row))
        if left != right:
            i = next(i for i, (x, y) in enumerate(zip(left, right)) if x != y)
            return AxiomFailure("PE1", (a, *divmod(i, n + 1))), checked
    # PE2: unique right and left complements to one
    for a in range(n):
        if rows[a].count(one) != 1 or cols[a].count(one) != 1:
            return AxiomFailure("PE2", (a,)), checked
    # PE3: every defined sum shifts to both sides
    row_sums = [set(row) for row in rows]
    col_sums = [set(col) for col in cols]
    if row_sums != col_sums:
        failures = [(a, b) for (a, b), s in table.items() if s not in col_sums[a] or s not in row_sums[b]]
        return AxiomFailure("PE3", min(failures)), checked
    # PE4: one is a forbidden summand except against zero
    for a in range(n):
        if a != zero and (rows[one][a] != n or cols[one][a] != n):
            return AxiomFailure("PE4", (a,)), checked
    return None, checked


@dataclass(frozen=True)
class AxiomVerdict:
    valid: bool
    pea: FinitePea | None = None
    failure: AxiomFailure | None = None


def check_pea_axioms(size, zero, one, table) -> AxiomVerdict:
    """Exhaustively verify PE1-PE4 for a partial addition table."""
    failure, rows = _axiom_failure(size, zero, one, table)
    if failure is not None:
        return AxiomVerdict(False, failure=failure)
    return AxiomVerdict(True, pea=FinitePea(size, zero, one, table, _rows=rows))


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
        self._draws = {}  # bound -> the interval draw plan, built by the first sample

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
        draw = self._draws.get(bound)
        if draw is None:
            # every strong unit of the grammar is positive and nonzero, and
            # __init__ checked that the unit is one, so no plan checks it again
            draw = self._draws[bound] = self.group._interval_draw(self.unit, bound)
        return draw(rng)

    # -- lexicographic structure helpers ------------------------------------

    @functools.cached_property
    def _lex(self):
        """(H, G, g0) for [0, (h, g0)] in Lex(Scalar(H), G), the intervals that
        split into slices; the one refusal of every other interval."""
        group = self.group
        if not (isinstance(group, g.Lex) and isinstance(group.top, g.Scalar)):
            raise UnsupportedError(
                f"gamma({group}, {group.format_element(self.unit)}) is not an interval "
                "of lex(H, G) with a scalar head H"
            )
        return group.top.H, group.bottom, self.unit[1]

    @property
    def head_subgroup(self) -> ScalarSubgroup:
        return self._lex[0]

    @property
    def tail_group(self):
        return self._lex[1]

    @property
    def tail_unit(self):
        """The bottom component g0 of the unit (1, g0)."""
        return self._lex[2]

    def __repr__(self):
        return f"IntervalPea({self.group}, unit={self.group.format_element(self.unit)})"


# ---------------------------------------------------------------------------
# ideals and radicals (finite)


def _is_normal_ideal(E: FinitePea, mask: int):
    """x + I = I + x for every x: the bitset I holds the conjugates of its members."""
    return all(c & ~mask == 0 for m, c in enumerate(E._conjugates) if mask >> m & 1)


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

    It grows by a worklist: an element y brings in the part of its down-set
    not yet in, and each new member z the defined sums z + m and m + z with
    m already in, read from z's sum rows.  Once one is reached the answer is
    the whole algebra.
    """
    right, left = E._sum_rows
    down, everything, one = E._bits.down, (1 << E.size) - 1, 1 << E.one

    def closure(members, x):
        work = [x]
        for y in work:
            fresh = down[y] & ~members
            if fresh & one:
                return everything  # every element lies below one
            members |= fresh
            while fresh:
                z = (fresh & -fresh).bit_length() - 1
                fresh &= fresh - 1
                work += [s for m, s in right[z] if members >> m & 1]
                work += [s for m, s in left[z] if members >> m & 1]
        return members

    return closure


def ideals_enumerate(E: FinitePea) -> IdealsReport:
    """All ideals by closure growth, with maximality/normality flags.

    Ideals are element bitsets, each grown from a closed base by
    ``_ideal_closure``.  An ideal above a base holds an element minimal
    outside it, so growing every base by those alone reaches every ideal;
    and an ideal other than E is maximal exactly when each ideal grown from
    it is the whole algebra, so maximality is read off the same growth.
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
    # by size, then by the ascending member lists; each frozenset is built once
    members = {mask: [x for x in E.elements() if mask >> x & 1] for mask in found}
    infos = tuple(IdealInfo(frozenset(members[m]), m in maximal, _is_normal_ideal(E, m))
                  for m in sorted(found, key=lambda m: (len(members[m]), members[m])))
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
    """The slice {(0, g): g >= 0} of an interval in Lex(Scalar(H), G)."""

    H: ScalarSubgroup
    G: g.GroupDescriptor

    def contains(self, x) -> bool:
        head, tail = x
        return _order_sign(head, self.H.zero()) == 0 and g.positive_cone_member(self.G, tail)

    __contains__ = contains

    def __str__(self):
        return "{(0, g): g in G+}"


def infinitesimals(E):
    """All a with na defined for every n: {0} for finite E, symbolic for lex.

    If na is defined for every n and a != 0, cancellation gives
    0 < a < 2a < ..., which a finite table cannot hold.
    """
    if isinstance(E, FinitePea):
        return {E.zero}
    return SymbolicInfinitesimals(E.head_subgroup, E.tail_group)


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
    strength probe; interval algebras, lex or not, solve n*x = unit
    exactly and test group-center membership.
    """
    if n < 1:
        raise PreconditionError("order must be >= 1")
    if isinstance(E, FinitePea):
        return [CyclicElement(a, n, E._central(a)) for a in E.elements() if E.times(n, a) == E.one]
    # all supported descriptors are torsion-free, so the root is unique
    c = g.divide(E.group, E.unit, n)
    if c is None or not E.contains(c):
        return []
    assert E.group.scale(c, n) == E.unit
    return [CyclicElement(c, n, E.group.center_member(c))]


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
        witness = next((a for a in E.elements() if E.lneg(a) != E.rneg(a)), None)
        return SymmetryVerdict(witness is None, witness)
    y = E.tail_group._commutant(E.tail_unit)
    return SymmetryVerdict(True) if y is None else SymmetryVerdict(False, (E.zero[0], y))


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
        # the least x with exactly one of c + x and x + c defined
        row, col, undefined = E.rows[c], E.cols[c], E.size
        lonely = next((x for x in E.elements() if (row[x] == undefined) != (col[x] == undefined)), None)
        return ExchangeVerdict(lonely is None, lonely, exhaustive=True)
    return ExchangeVerdict(True, exhaustive=True)
