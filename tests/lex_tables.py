"""The paper's head case tables for lexicographic products: the test-side reference.

``ordalg.riesz.rdp_decompose`` answers every refinement instance with the
meet table c11 = a1 ^ b1, which certifies rdp2 on the lattice-ordered groups
of the grammar.  The paper builds refinements of H lex G from the heads
instead, and that construction also works when G is only an interpolation
group.  It is kept here as an independent construction whose tables the
tests verify with ``rdp_table_verify``:

* a lexicographic product at rdp0 and rdp, and at rdp1 over an Abelian
  bottom, follows the head case analysis: zero heads reduce to the bottom
  group, mixed rows shift by a directedness witness d, and dense scalar
  heads are first approximated inside a common cyclic subgroup, solved
  there, and topped up with a scalar surplus table;
* a direct product refines part by part, so its lex parts keep those tables;
* every other instance is answered by the public ``rdp_decompose``.
"""

import functools
from fractions import Fraction
from math import lcm

from ordalg import groups as g
from ordalg.riesz import DecompositionTable, check_instance, rdp_decompose
from ordalg.scalars import Ordering, ScalarSubgroup, compare, pick_strictly_between


def floor_multiple_below(x, step) -> int:
    """Largest k >= 0 with k*step < x, for exact positive scalars."""
    lo, hi = 0, 1
    while compare(step * hi, x) is Ordering.LT:
        hi *= 2
    # invariant: lo*step < x <= hi*step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if compare(step * mid, x) is Ordering.LT:
            lo = mid
        else:
            hi = mid
    return lo


def uses_case_table(desc, level) -> bool:
    """Whether the case analysis answers a lex node at this level."""
    return isinstance(desc, g.Lex) and (
        level in ("rdp0", "rdp") or (level == "rdp1" and desc.bottom.is_abelian())
    )


def case_table(desc, a1, a2, b1, b2, level="rdp"):
    """The paper's refinement table of a checked instance, not yet verified."""
    a1, a2, b1, b2 = check_instance(desc, a1, a2, b1, b2)
    return DecompositionTable(*_decompose(desc, a1, a2, b1, b2, level), level=level)


def _decompose(desc, a1, a2, b1, b2, level):
    if uses_case_table(desc, level):
        return _decompose_lex(desc, a1, a2, b1, b2, level)
    if isinstance(desc, g.Product):
        tables = [
            _decompose(part, a1[i], a2[i], b1[i], b2[i], level)
            for i, part in enumerate(desc.parts)
        ]
        return tuple(zip(*tables))
    return rdp_decompose(desc, a1, a2, b1, b2, level).entries()


def _transpose_instance(table: tuple):
    c11, c12, c21, c22 = table
    return (c11, c21, c12, c22)


def _decompose_lex(desc, a1, a2, b1, b2, level):
    top, bottom = desc.top, desc.bottom
    zt = top.zero()
    (m1, ta1), (m2, ta2), (n1, tb1), (n2, tb2) = a1, a2, b1, b2

    if m1 == zt and m2 == zt:
        e11, e12, e21, e22 = _decompose(bottom, ta1, ta2, tb1, tb2, level)
        return ((zt, e11), (zt, e12), (zt, e21), (zt, e22))

    if m2 == zt:
        if n2 != zt:
            # rows ((n1, b1), (n2, -b1 + a1)) and ((0,0), (0, a2))
            return (
                (n1, tb1),
                (n2, g.sub_left(bottom, tb1, ta1)),
                (zt, bottom.zero()),
                (zt, ta2),
            )
        # n2 == 0 (so n1 == m1): shift the first column by d <= a1, b1
        d = g.lower_bound(bottom, [ta1, tb1])
        x1, y1 = g.sub_left(bottom, d, ta1), g.sub_left(bottom, d, tb1)
        e11, e12, e21, e22 = _decompose(bottom, x1, ta2, y1, tb2, level)
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
                (zt, bottom.zero()),
                (n1, g.sub_left(bottom, ta1, tb1)),
                (n2, tb2),
            )
        # n1 == 0 (so n2 == m2): shift the second row by d <= a2, b2
        d = g.lower_bound(bottom, [ta2, tb2])
        x2, y2 = bottom.sub_right(ta2, d), bottom.sub_right(tb2, d)
        e11, e12, e21, e22 = _decompose(bottom, ta1, x2, tb1, y2, level)
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
    x1, x2 = g.sub_left(bottom, d, ta1), bottom.sub_right(ta2, d)
    y1, y2 = g.sub_left(bottom, d, tb1), bottom.sub_right(tb2, d)
    e11, e12, e21, e22 = _decompose(bottom, x1, x2, y1, y2, level)
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
    head surplus is settled by a table inside the scalar group.
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
    surplus_table = _decompose(g.Scalar(H), *surplus, level)
    return tuple((step * rho + sigma, e) for (rho, e), sigma in zip(table, surplus_table))


_scalar_key = functools.cmp_to_key(lambda u, v: int(compare(u, v)))
