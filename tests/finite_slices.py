"""Element-pair loops over finite slices: the reference for the bitset kernels.

Each function walks pairs of elements, or of slices and their members,
through ``E.add`` and an order matrix filled from the defined pairs, as the
finite kernels of ``decomp`` and ``pea`` once did.  The package decides the
same laws with element bitsets and integer slice indices, and must return
the same reports and witnesses: the first violation for the type-II laws,
the last failing pair for ``ordered``.

``check_type_i`` takes the ideals from the caller, as ``ideals_enumerate``
lists them (``test_pea`` checks that list against a closure search), and
reads the ideal an element generates as the intersection of the ideals
that hold it.
"""

from fractions import Fraction

from ordalg.decomp import CyclicSystem, OrderedReport, TypeIReport
from ordalg.pea import cyclic_elements
from ordalg.scalars import Ordering, compare


def order_matrix(E):
    """leq[a][b]: a + c = b for some c."""
    leq = [[False] * E.size for _ in E.elements()]
    for (a, _c), s in E.table.items():
        leq[a][s] = True
    return leq


def lneg(E, a):
    """The d with d + a = 1, by a scan."""
    return next((d for d in E.elements() if E.add(d, a) == E.one), None)


def rneg(E, a):
    """The c with a + c = 1, by a scan."""
    return next((c for c in E.elements() if E.add(a, c) == E.one), None)


def symmetry_witness(E):
    """The first element whose negations differ, or None."""
    return next((a for a in E.elements() if lneg(E, a) != rneg(E, a)), None)


def infinitesimals(E):
    """The a with na defined for every n: add a until a sum is undefined or
    repeats (a finite table repeats or stops within E.size sums)."""
    out = set()
    for a in E.elements():
        acc, seen = E.zero, set()
        while acc is not None and acc not in seen:
            seen.add(acc)
            acc = E.add(acc, a)
        if acc is not None:
            out.add(a)
    return out


def scan_is_normal_ideal(E, ideal):
    """x + I and I + x by scanning the members through E.defined and E.add."""
    for x in E.elements():
        left = {E.add(x, i) for i in ideal if E.defined(x, i)}
        right = {E.add(j, x) for j in ideal if E.defined(j, x)}
        if left != right:
            return False
    return True


def subset_maximal(ideals, everything):
    """The proper ideals that no other proper ideal contains."""
    proper = [i for i in ideals if i != everything]
    return [i for i in proper if not any(i < j for j in proper)]


def type_ii_violation(D):
    """The negation and addition laws, pair by pair; None if clean."""
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
            ln, rn = lneg(E, x), rneg(E, x)
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


def check_ordered(E, D):
    leq = order_matrix(E)
    one = D.H.one()
    ordered, witness = True, None
    for s, ms in D.slices:
        for t, mt in D.slices:
            if compare(s, t) is Ordering.LT:
                for x in ms:
                    for y in mt:
                        if not leq[x][y]:
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
    normal_ok = scan_is_normal_ideal(E, e0)
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


def generated_ideal(x, ideals):
    """The least ideal holding x: the intersection of those that do."""
    return frozenset.intersection(*(i for i in ideals if x in i))


def check_type_i(E, D, ideals):
    one = D.H.one()
    sums_ok = True
    for s, ms in D.slices:
        for t, mt in D.slices:
            if compare(s + t, one) is Ordering.LT:
                if any(not E.defined(x, y) for x in ms for y in mt):
                    sums_ok = False
    index = {t: m for t, m in D.slices}
    e0 = index.get(D.H.zero(), frozenset())
    # e0 is the unique maximal ideal exactly when it is a proper ideal and
    # every x outside it generates all of E; the detail names the first
    # element minimal outside e0 among those that do not
    everything = frozenset(E.elements())
    if e0 not in ideals or e0 == everything:
        unique_max, detail = False, "E_0 is not a proper ideal"
    else:
        leq = order_matrix(E)
        outside = [x for x in E.elements() if x not in e0]
        failing = [x for x in outside if generated_ideal(x, ideals) != everything]
        unique_max, detail = not failing, ""
        if failing:
            x = next(x for x in failing if not any(leq[y][x] for y in outside if y != x))
            detail = f"{x} generates a proper ideal: {sorted(generated_ideal(x, ideals))}"
    idem = {E.add(x, y) for x in e0 for y in e0 if E.defined(x, y)} == set(e0)
    return TypeIReport(sums_ok and unique_max, sums_ok, unique_max, idem, detail)


def slice_directed(E, members):
    leq = order_matrix(E)
    for a in members:
        for b in members:
            if not any(leq[c][a] and leq[c][b] for c in members):
                return False
            if not any(leq[a][c] and leq[b][c] for c in members):
                return False
    return True


def commutes_with_all(E, a):
    for x in E.elements():
        if E.defined(x, a) != E.defined(a, x):
            return False
        if E.defined(x, a) and E.add(x, a) != E.add(a, x):
            return False
    return True


def find_cyclic_system(E, D, strong=False):
    H = D.H
    if H.is_dense:
        return None
    n = H.n
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
            return CyclicSystem(tuple(entries), commutes_with_all(E, cand.element))
    return None


def grid_states(E, n):
    """Every state of E valued in (1/n)Z, as value tuples, by brute force.

    Walks the elements in label order through every value k/n, and prunes a
    partial assignment once some defined sum x + y = z among the labels
    assigned so far is not additive; zero takes 0 and one takes 1.
    """
    checks = [[] for _ in E.elements()]  # the sums whose last label is i
    for (x, y), z in E.table.items():
        checks[max(x, y, z)].append((x, y, z))
    values = [None] * E.size

    def walk(i):
        if i == E.size:
            yield tuple(Fraction(v, n) for v in values)
            return
        for v in range(n + 1):
            if (i == E.zero and v != 0) or (i == E.one and v != n):
                continue
            values[i] = v
            if all(values[x] + values[y] == values[z] for x, y, z in checks[i]):
                yield from walk(i + 1)
        values[i] = None

    return list(walk(0))


def grid_decompositions(E, n):
    """(every (1/n)Z decomposition, the ordered ones): the states of
    ``grid_states`` that take every value k/n, and those of them with x <= y
    wherever s(x) < s(y)."""
    leq = order_matrix(E)
    onto = [s for s in grid_states(E, n) if len(set(s)) == n + 1]
    ordered = [
        s for s in onto
        if all(leq[x][y] for x in E.elements() for y in E.elements() if s[x] < s[y])
    ]
    return onto, ordered
