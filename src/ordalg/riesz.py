"""Constructive Riesz decomposition and interpolation witnesses.

``rdp_decompose`` answers a refinement instance a1 + a2 = b1 + b2 over the
positive cone with a 2x2 table of positive elements whose row and column
sums reproduce the inputs.  Dispatch:

* lexicographic products at rdp0 and rdp, and at rdp1 over an Abelian
  bottom, follow the paper's head case analysis: zero heads reduce to the
  bottom group, mixed rows shift by a directedness witness d, and for dense
  scalar heads the instance is first approximated inside a common cyclic
  subgroup, solved there, and topped up with a scalar surplus table;
* direct products refine part by part, so their lex parts keep those tables;
* everything else takes the meet table c11 = a1 ^ b1.  Every descriptor is
  a lattice-ordered group, so its off-diagonal entries are disjoint and the
  table certifies rdp2, and with it rdp1.  On a total order it is the
  classical min refinement.

``rdp_oracle_search`` is an independent exhaustive oracle over discrete
descriptors used to cross-validate the constructive solver.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import groups as g
from .errors import (
    DomainMismatchError,
    NoElementError,
    PreconditionError,
    ShapeError,
    UnsupportedError,
)
from .scalars import (
    Ordering,
    ScalarSubgroup,
    compare,
    floor_multiple_below,
    pick_strictly_between,
)

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
        if g.meet(desc, c12, c21) != g.zero(desc):
            return VerifyResult(False, "c12 and c21 have a nonzero meet")
        return VerifyResult(True, side_condition="holds")
    return VerifyResult(True)


# ---------------------------------------------------------------------------
# constructions


def _meet_table(desc, a1, a2, b1, b2):
    """The lattice refinement c11 = a1 ^ b1, so c12 ^ c21 = -c11 + (a1 ^ b1) = 0.

    Every descriptor is an l-group, where disjoint elements commute, so the
    second column sums to b2 and the table certifies every level.
    """
    c11 = g.meet(desc, a1, b1)
    c12 = g.sub_left(desc, c11, a1)
    c21 = g.sub_left(desc, c11, b1)
    return c11, c12, c21, g.sub_left(desc, c21, a2)


def _transpose_instance(table: tuple):
    c11, c12, c21, c22 = table
    return (c11, c21, c12, c22)


def _decompose_lex(desc, a1, a2, b1, b2, level):
    top, bottom = desc.top, desc.bottom
    zt = g.zero(top)
    (m1, ta1), (m2, ta2), (n1, tb1), (n2, tb2) = a1, a2, b1, b2

    if m1 == zt and m2 == zt:
        e11, e12, e21, e22 = decompose_raw(bottom, ta1, ta2, tb1, tb2, level)
        return ((zt, e11), (zt, e12), (zt, e21), (zt, e22))

    if m2 == zt:
        if n2 != zt:
            # rows ((n1, b1), (n2, -b1 + a1)) and ((0,0), (0, a2))
            return (
                (n1, tb1),
                (n2, g.sub_left(bottom, tb1, ta1)),
                (zt, g.zero(bottom)),
                (zt, ta2),
            )
        # n2 == 0 (so n1 == m1): shift the first column by d <= a1, b1
        d = g.lower_bound(bottom, [ta1, tb1])
        x1, y1 = g.sub_left(bottom, d, ta1), g.sub_left(bottom, d, tb1)
        e11, e12, e21, e22 = decompose_raw(bottom, x1, ta2, y1, tb2, level)
        return (
            (m1, g.add(bottom, d, e11)),
            (zt, e12),
            (zt, e21),
            (zt, e22),
        )

    if m1 == zt:
        if n1 != zt:
            # rows ((0, a1), (0, 0)) and ((n1, -a1 + b1), (n2, b2))
            return (
                (zt, ta1),
                (zt, g.zero(bottom)),
                (n1, g.sub_left(bottom, ta1, tb1)),
                (n2, tb2),
            )
        # n1 == 0 (so n2 == m2): shift the second row by d <= a2, b2
        d = g.lower_bound(bottom, [ta2, tb2])
        x2, y2 = g.sub_right(bottom, ta2, d), g.sub_right(bottom, tb2, d)
        e11, e12, e21, e22 = decompose_raw(bottom, ta1, x2, tb1, y2, level)
        return (
            (zt, e11),
            (zt, e12),
            (zt, e21),
            (m2, g.add(bottom, e22, d)),
        )

    if n1 == zt or n2 == zt:
        # swap the roles of the a- and b-rows and transpose the answer
        table = _decompose_lex(desc, b1, b2, a1, a2, level)
        return _transpose_instance(table)

    # all four heads strictly positive
    if isinstance(top, g.Scalar) and top.H.is_dense:
        return _decompose_lex_dense(desc, a1, a2, b1, b2, level)

    d = g.lower_bound(bottom, [ta1, ta2, tb1, tb2])
    x1, x2 = g.sub_left(bottom, d, ta1), g.sub_right(bottom, ta2, d)
    y1, y2 = g.sub_left(bottom, d, tb1), g.sub_right(bottom, tb2, d)
    e11, e12, e21, e22 = decompose_raw(bottom, x1, x2, y1, y2, level)
    if g.leq(top, n1, m1):  # m1 >= n1
        return (
            (n1, g.add(bottom, d, e11)),
            (g.sub_left(top, n1, m1), e12),
            (zt, e21),
            (m2, g.add(bottom, e22, d)),
        )
    return (
        (m1, g.add(bottom, d, e11)),
        (zt, e12),
        (g.sub_left(top, m1, n1), e21),
        (n2, g.add(bottom, e22, d)),
    )


def _decompose_lex_dense(desc, a1, a2, b1, b2, level):
    """Approximation reduction for dense scalar heads, all heads positive.

    Heads are approximated from below inside a common cyclic subgroup, the
    approximated instance is solved with discrete head machinery, and the
    head surplus is settled by the meet table inside the scalar group.
    """
    top, bottom = desc.top, desc.bottom
    H = top.H
    (s1, ta1), (s2, ta2), (t1, tb1), (t2, tb2) = a1, a2, b1, b2

    if H == ScalarSubgroup.rationals():
        # exact reduction: all heads already lie in (1/n)Z
        n = lcm(s1.denominator, s2.denominator, t1.denominator, t2.denominator)
        step = Fraction(1, n)
        ks = [int(v * n) for v in (s1, s2, t1, t2)]
        surplus = [H.zero()] * 4
    else:
        m = min((s1, s2, t1, t2), key=_scalar_key)
        step = pick_strictly_between(H, H.zero(), m * Fraction(1, 4))
        k1 = floor_multiple_below(s1, step)
        k2 = floor_multiple_below(s2, step)
        l1 = floor_multiple_below(t1, step)
        l2 = floor_multiple_below(t2, step)
        delta = (k1 + k2) - (l1 + l2)
        if delta == 1:
            k1 -= 1
        elif delta == -1:
            l1 -= 1
        assert k1 + k2 == l1 + l2 and min(k1, k2, l1, l2) >= 1
        ks = [k1, k2, l1, l2]
        approx = [step * k for k in ks]
        surplus = [s1 - approx[0], s2 - approx[1], t1 - approx[2], t2 - approx[3]]

    # solve the approximated instance with integer heads
    idesc = g.Lex(g.ZZ, bottom)
    table = _decompose_lex(
        idesc, (ks[0], ta1), (ks[1], ta2), (ks[2], tb1), (ks[3], tb2), level
    )
    # surplus heads solved inside the scalar group
    out = []
    for (rho, e), sigma in zip(table, _meet_table(g.Scalar(H), *surplus)):
        out.append((step * rho + sigma, e))
    return tuple(out)


_scalar_key = functools.cmp_to_key(lambda u, v: int(compare(u, v)))


def decompose_raw(desc, a1, a2, b1, b2, level):
    # the paper's case tables wherever they certify the level, else the meet table
    if isinstance(desc, g.Lex) and (
        level in ("rdp0", "rdp") or (level == "rdp1" and g.is_abelian(desc.bottom))
    ):
        return _decompose_lex(desc, a1, a2, b1, b2, level)
    if isinstance(desc, g.Product):
        tables = [
            decompose_raw(part, a1[i], a2[i], b1[i], b2[i], level)
            for i, part in enumerate(desc.parts)
        ]
        return tuple(zip(*tables))
    return _meet_table(desc, a1, a2, b1, b2)


def rdp_decompose(desc, a1, a2, b1, b2, level="rdp"):
    """Solve a refinement instance; the returned table is verified before return.

    Strictly positive dense scalar heads are approximated inside a cyclic
    subgroup (``_decompose_lex_dense``).
    """
    lv = _norm_level(level)
    a1, a2, b1, b2 = check_instance(desc, a1, a2, b1, b2)
    table = DecompositionTable(*decompose_raw(desc, a1, a2, b1, b2, lv), level=lv)
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
                return (t, g.zero(desc.bottom))
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
    for c11 in desc.iter_bounded([g.zero(desc), g.sub_left(desc, a2, b1)], [a1, b1], box):
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
