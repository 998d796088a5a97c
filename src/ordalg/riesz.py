"""Constructive Riesz decomposition and interpolation witnesses.

``rdp_decompose`` answers a refinement instance a1 + a2 = b1 + b2 over the
positive cone with a 2x2 table of positive elements whose row and column
sums reproduce the inputs.  It has one construction, the meet table
c11 = a1 ^ b1.  Every descriptor in the grammar is a lattice-ordered group:
a linear head over a lattice bottom is a lattice, and so is a product of
lattices.  In an l-group the off-diagonal entries c12 = -c11 + a1 and
c21 = -c11 + b1 are disjoint, and disjoint elements commute, so the table
certifies rdp2 and with it every weaker level.  On a total order it is the
classical min refinement, and on a product it is the tuple of the parts'
meet tables.  The paper's head case tables for lexicographic products are
needed only over a bottom that is not a lattice.  The grammar has none, so
they live in ``tests/lex_tables.py`` as a reference construction.

``rdp_oracle_search`` is an independent exhaustive oracle over discrete
descriptors used to cross-validate the constructive solver.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import groups as g
from .errors import (
    DomainMismatchError,
    NoElementError,
    PreconditionError,
    ShapeError,
    UnsupportedError,
)
from .scalars import Ordering, compare, pick_strictly_between

LEVELS = ("rdp0", "rdp", "rdp1", "rdp2")


def _norm_level(level: str) -> str:
    lv = str(level).lower().replace("_", "")
    if lv not in LEVELS:
        raise UnsupportedError(f"unknown level {level!r}; expected one of {LEVELS}")
    return lv


@dataclass(frozen=True)
class DecompositionTable:
    """Witness for a1 = c11+c12, a2 = c21+c22, b1 = c11+c21, b2 = c12+c22."""

    c11: object
    c12: object
    c21: object
    c22: object
    level: str = "rdp"

    def entries(self):
        return (self.c11, self.c12, self.c21, self.c22)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str | None = None
    side_condition: str | None = None  # "holds" / "inconclusive" for rdp1

    def __bool__(self):
        return self.ok


def check_instance(desc, a1, a2, b1, b2):
    """Validate positivity and the matching-sum precondition."""
    vals = [g.check_element(desc, v) for v in (a1, a2, b1, b2)]
    for name, v in zip(("a1", "a2", "b1", "b2"), vals):
        if not g.positive_cone_member(desc, v):
            raise PreconditionError(f"{name} is not in the positive cone")
    a1, a2, b1, b2 = vals
    if g.add(desc, a1, a2) != g.add(desc, b1, b2):
        raise PreconditionError("a1 + a2 != b1 + b2")
    return vals


def rdp_table_verify(desc, a1, a2, b1, b2, table, level=None):
    """Check sums, positivity and the level side condition of a table."""
    lv = _norm_level(level if level is not None else table.level)
    c11, c12, c21, c22 = table.entries()
    for name, c in zip(("c11", "c12", "c21", "c22"), table.entries()):
        # members with the right sums make the four inputs members too
        try:
            g.check_element(desc, c)
        except (ShapeError, DomainMismatchError):
            return VerifyResult(False, f"{name} is not an element of {desc}")
        if not g.positive_cone_member(desc, c):
            return VerifyResult(False, f"{name} not positive")
    if g.add(desc, c11, c12) != a1:
        return VerifyResult(False, "row 1 sum")
    if g.add(desc, c21, c22) != a2:
        return VerifyResult(False, "row 2 sum")
    if g.add(desc, c11, c21) != b1:
        return VerifyResult(False, "column 1 sum")
    if g.add(desc, c12, c22) != b2:
        return VerifyResult(False, "column 2 sum")
    if lv == "rdp1":
        res = g.com_check(desc, c12, c21)
        if res.status == "fails":
            return VerifyResult(False, f"com(c12, c21) fails at {res.witness}")
        return VerifyResult(True, side_condition="holds" if res.holds else "inconclusive")
    if lv == "rdp2":
        if desc.meet(c12, c21) != desc.zero():
            return VerifyResult(False, "c12 and c21 have a nonzero meet")
        return VerifyResult(True, side_condition="holds")
    return VerifyResult(True)


# ---------------------------------------------------------------------------
# construction


def _meet_table(desc, a1, a2, b1, b2):
    """The lattice refinement c11 = a1 ^ b1, so c12 ^ c21 = -c11 + (a1 ^ b1) = 0.

    Every descriptor is an l-group, where disjoint elements commute, so the
    second column sums to b2 and the table certifies every level.
    """
    c11 = desc.meet(a1, b1)
    c12 = g.sub_left(desc, c11, a1)
    c21 = g.sub_left(desc, c11, b1)
    return c11, c12, c21, g.sub_left(desc, c21, a2)


def rdp_decompose(desc, a1, a2, b1, b2, level="rdp"):
    """Solve a refinement instance with the meet table, verified before return.

    The table is the same at every level; ``level`` only selects the side
    condition that the verification checks and records.
    """
    lv = _norm_level(level)
    a1, a2, b1, b2 = check_instance(desc, a1, a2, b1, b2)
    table = DecompositionTable(*_meet_table(desc, a1, a2, b1, b2), level=lv)
    res = rdp_table_verify(desc, a1, a2, b1, b2, table, level=lv)
    if not res.ok:
        raise AssertionError(f"internal: constructed table failed verification: {res.reason}")
    return table


# ---------------------------------------------------------------------------
# interpolation


def rip_interpolate(desc, a1, a2, b1, b2):
    """An element c with a1, a2 <= c <= b1, b2.

    Lattice descriptors take the join of the lower pair; lexicographic
    products with a strict head gap prefer a fresh head with zero tail.
    """
    vals = [g.check_element(desc, v) for v in (a1, a2, b1, b2)]
    a1, a2, b1, b2 = vals
    for lo in (a1, a2):
        for hi in (b1, b2):
            if not g.leq(desc, lo, hi):
                raise PreconditionError("interpolation hypothesis a_i <= b_j violated")
    if isinstance(desc, g.Lex) and isinstance(desc.top, g.Scalar):
        H = desc.top.H
        ha = a1[0] if compare(a1[0], a2[0]) is Ordering.GT else a2[0]
        hb = b1[0] if compare(b1[0], b2[0]) is Ordering.LT else b2[0]
        if compare(ha, hb) is Ordering.LT:
            try:
                t = pick_strictly_between(H, ha, hb)
                return (t, desc.bottom.zero())
            except (NoElementError, PreconditionError):
                pass
    return g.join(desc, a1, a2)


# ---------------------------------------------------------------------------
# exhaustive oracle


@dataclass(frozen=True)
class OracleResult:
    found: bool
    table: DecompositionTable | None = None


def rdp_oracle_search(desc, a1, a2, b1, b2, level="rdp", box=20):
    """Exhaustive candidate search for a decomposition table.

    Enumerates c11 over [max(0, b1 - a2), min(a1, b1)] within the coordinate
    box (the enumerable descriptors are Abelian, so c22 = c11 + a2 - b1, and
    any other c11 leaves c12, c21 or c22 outside the positive cone), derives
    the rest by group subtraction; complete for discrete descriptors in the box.
    """
    lv = _norm_level(level)
    a1, a2, b1, b2 = check_instance(desc, a1, a2, b1, b2)
    for c11 in desc.iter_bounded([desc.zero(), g.sub_left(desc, a2, b1)], [a1, b1], box):
        c12 = g.sub_left(desc, c11, a1)
        if not g.positive_cone_member(desc, c12):
            continue
        c21 = g.sub_left(desc, c11, b1)
        if not g.positive_cone_member(desc, c21):
            continue
        c22 = g.sub_left(desc, c21, a2)
        if not g.positive_cone_member(desc, c22):
            continue
        if g.add(desc, c12, c22) != b2:
            continue
        table = DecompositionTable(c11, c12, c21, c22, level=lv)
        res = rdp_table_verify(desc, a1, a2, b1, b2, table, level=lv)
        if res.ok:
            return OracleResult(True, table)
    return OracleResult(False, None)
