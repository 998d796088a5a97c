"""Sampled probes of the slice laws of lex intervals: the test-side cross-check.

``ordalg.decomp`` decides the ordered, type I and directness verdicts of an
interval Gamma(Lex(Scalar(H'), G), (1, g0)) by head arithmetic.  These probes
re-derive the same verdicts from seeded slice samples and exact witness
chains, through the algebra's own ``add``, ``leq`` and negations only, so
agreement between the two is evidence in the way that agreement between the
refinement solver and the exhaustive oracle is.
"""

from fractions import Fraction

from ordalg import groups as g
from ordalg.decomp import LexDecomposition, OrderedReport, TypeIReport
from ordalg.errors import NoElementError
from ordalg.pea import IntervalPea, infinitesimals
from ordalg.scalars import Ordering, compare, pick_strictly_between

from lex_tables import floor_multiple_below


def upper_bound(G, xs):
    """An element above every member of xs: the negated lower bound of the negations."""
    return g.neg(G, g.lower_bound(G, [g.neg(G, x) for x in xs]))


def lex_type_ii_violation(D: LexDecomposition, rng, rounds=150):
    """Sampled check of the negation and addition laws on a lex interval."""
    E = D.pea
    H = D.H
    one = H.one()
    grid = D.grid
    for _ in range(rounds):
        t = rng.choice(grid)
        if not E.head_subgroup.contains(t):
            continue
        x = D.sample_slice(t, rng)
        if not E.contains(x):
            return ("slice sample escaped the interval", (t, x))
        ln, rn = E.lneg(x), E.rneg(x)
        mirror = one - H.coerce(t)
        if compare(ln[0], mirror) is not Ordering.EQ:
            return ("negation law", (t, x))
        if compare(rn[0], mirror) is not Ordering.EQ:
            return ("negation law", (t, x))
        s = rng.choice(grid)
        if not E.head_subgroup.contains(s):
            continue
        y = D.sample_slice(s, rng)
        z = E.add(x, y)
        if z is not None:
            if compare(H.coerce(t) + H.coerce(s), one) is Ordering.GT:
                return ("sum above one", (t, s, x, y))
            if compare(z[0], H.coerce(t) + H.coerce(s)) is not Ordering.EQ:
                return ("sum slice law", (t, s, x, y))
    return None


def sampled_ordered_report(E: IntervalPea, D: LexDecomposition, rng, rounds=200) -> OrderedReport:
    """The ordered verdict and its consequences from sampled slice pairs."""
    H = D.H
    one, zero = H.one(), H.zero()
    grid = [t for t in D.grid if E.head_subgroup.contains(t)]
    ordered, witness = True, None
    defined_all = True
    inf = infinitesimals(E)
    inf_ok, normal_ok = True, True
    additivity_ok, oversum_ok = True, True
    for _ in range(rounds):
        s, t = rng.choice(grid), rng.choice(grid)
        x, y = D.sample_slice(s, rng), D.sample_slice(t, rng)
        if compare(s, t) is Ordering.LT and not E.leq(x, y):
            ordered, witness = False, (x, y)
        total = H.coerce(s) + H.coerce(t)
        cmp_total = compare(total, one)
        if cmp_total is Ordering.LT:
            z = E.add(x, y)
            if z is None:
                defined_all = False
            else:
                if compare(z[0], total) is not Ordering.EQ:
                    additivity_ok = False
                if compare(H.coerce(t), zero) is Ordering.GT:
                    # reverse inclusion: any w in the sum slice splits past x
                    w = D.sample_slice(total, rng)
                    if not E.leq(x, w):
                        ordered, witness = False, (x, w)
                    else:
                        rest = E.minus_right(x, w)
                        if rest is None or compare(rest[0], H.coerce(t)) is not Ordering.EQ:
                            additivity_ok = False
        elif cmp_total is Ordering.GT:
            if E.add(x, y) is not None or E.add(y, x) is not None:
                oversum_ok = False
        # infinitesimal agreement and normality probes at the bottom slice
        i = D.sample_slice(zero, rng)
        if not inf.contains(i) or E.times(8, i) is None:
            inf_ok = False
        v = E.sample(rng)
        if E.add(v, i) is not None:
            conj = g.add(E.group, g.add(E.group, v, i), g.neg(E.group, v))
            if not inf.contains(conj) or not E.contains(conj):
                normal_ok = False
        if compare(v[0], zero) is Ordering.GT:
            # elements above the bottom slice stop being addable exactly when
            # the head multiples pass 1
            k = floor_multiple_below(H.one(), v[0]) + 1
            while compare(v[0] * k, H.one()) is not Ordering.GT:
                k += 1
            if E.times(k, v) is not None:
                inf_ok = False
    if not ordered:
        return OrderedReport(False, witness, ordered == defined_all)
    return OrderedReport(
        True, None, ordered == defined_all, inf_ok, normal_ok, additivity_ok, oversum_ok
    )


def sampled_type_i_report(E: IntervalPea, D: LexDecomposition, rng, rounds=120) -> TypeIReport:
    """Sums below one, the maximal bottom slice and its idempotence, sampled."""
    H = D.H
    one, zero = H.one(), H.zero()
    grid = [t for t in D.grid if E.head_subgroup.contains(t)]
    sums_ok = True
    for _ in range(rounds):
        s, t = rng.choice(grid), rng.choice(grid)
        if compare(H.coerce(s) + H.coerce(t), one) is Ordering.LT:
            x, y = D.sample_slice(s, rng), D.sample_slice(t, rng)
            if E.add(x, y) is None:
                sums_ok = False
    e0_max = True
    for t in grid:
        if compare(t, zero) is Ordering.EQ:
            continue
        for _ in range(4):
            x = D.sample_slice(t, rng)
            if not maximality_probe(E, x):
                e0_max = False
    idem = True
    for _ in range(rounds // 2):
        x = D.sample_slice(zero, rng)
        y = D.sample_slice(zero, rng)
        z = E.add(x, y)
        if z is None or compare(z[0], zero) is not Ordering.EQ:
            idem = False
    return TypeIReport(sums_ok and e0_max, sums_ok, e0_max, idem)


def maximality_probe(E: IntervalPea, x) -> bool:
    """Exact witness chain showing the ideal generated by E_0 and x is all of E.

    For a slice index t with room below it, multiples of (h, 0) for a head
    0 < h < t climb to just under the unit and the leftover falls below x.
    For the least positive discrete index, x is first shifted into the
    nonnegative part of its slice by a directedness witness from E_0.
    """
    H = E.head_subgroup
    G = E.tail_group
    t, gx = x
    g0 = E.tail_unit
    if compare(t, H.zero()) is not Ordering.GT:
        return False
    if compare(t, H.one()) is Ordering.EQ:
        # top slice: rneg(x) lands in E_0 and restores the unit
        r = E.rneg(x)
        return compare(r[0], H.zero()) is Ordering.EQ and E.add(x, r) == E.one
    try:
        h = pick_strictly_between(H, H.zero(), t)
    except NoElementError:
        h = None
    if h is not None:
        # (h, 0) < x so all its defined multiples live in the ideal
        w = (h, G.zero())
        if not E.leq(w, x):
            return False
        k = 1
        while compare(H.coerce(h * (k + 1)), H.one()) is Ordering.LT:
            k += 1
        y = (h * k, G.zero())  # k maximal with k*h < 1
        leftover = E.lneg(y)  # (1 - k*h, g0), head at most h < t
        if not E.leq(leftover, x):
            return False
        return E.add(leftover, y) == E.one
    # discrete head, t = 1/n with n >= 2: shift x by e >= -gx, -gx + g0
    n = H.n
    e = upper_bound(G, [g.neg(G, gx), G.zero(), g.add(G, g.neg(G, gx), g0)])
    lifted = E.add(x, (H.zero(), e))
    if lifted is None:
        return False
    w = (Fraction(1, n), G.zero())
    if not E.leq(w, lifted):
        return False
    y = (Fraction(n - 1, n), G.zero())  # (n-1)-fold sum of w
    leftover = E.lneg(y)  # (1/n, g0) <= lifted by the choice of e
    if not E.leq(leftover, lifted):
        return False
    return E.add(leftover, y) == E.one


def slices_directed_probe(E: IntervalPea, D: LexDecomposition, rng, rounds=60) -> bool:
    """Sampled pairs of one slice have a lower and an upper bound in it."""
    G = E.tail_group
    grid = [t for t in D.grid if E.head_subgroup.contains(t)]
    for _ in range(rounds):
        t = rng.choice(grid)
        a, b = D.sample_slice(t, rng), D.sample_slice(t, rng)
        lo = (t, g.lower_bound(G, [a[1], b[1]]))
        hi = (t, upper_bound(G, [a[1], b[1]]))
        if not (E.leq(lo, a) and E.leq(lo, b) and E.leq(a, hi) and E.leq(b, hi)):
            return False
        if not (E.contains(lo) and E.contains(hi)):
            # boundary slices clamp the witnesses back into the interval
            zero_t = compare(t, D.H.zero()) is Ordering.EQ
            one_t = compare(t, D.H.one()) is Ordering.EQ
            if zero_t and not E.contains(hi):
                return False
            if one_t and not E.contains(lo):
                return False
            if not zero_t and not one_t:
                return False
    return True
