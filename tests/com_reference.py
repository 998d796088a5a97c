"""The enumerate-or-sample commutation search: the reference for ``groups.com_check``.

``com_check`` decides every descriptor by an exact rule and returns
constructed witnesses.  The search below is the one it replaced.  Abelian
descriptors and disjoint endpoints hold at once, as there.  Two finite
intervals are then enumerated, and otherwise seeded pairs are drawn from the
two intervals.  The search answers "holds", "fails" with a witness pair, or
"inconclusive".  It knows nothing of the exact rule, so a sampled witness
against an exact "holds" is evidence of a fault in one of them.

``interval_is_finite`` and ``enumerate_interval`` walk a descriptor tree by
its classes.  They also build finite grids for other tests.
"""

import itertools
import random
from fractions import Fraction

from ordalg import groups as g


def interval_is_finite(desc, hi) -> bool:
    """Whether the order interval [0, hi] of a positive hi has finitely many elements."""
    if isinstance(desc, g.Scalar):
        return not desc.H.is_dense or hi == desc.zero()
    if isinstance(desc, g.IntVector):
        return True
    if isinstance(desc, g.AffineQ):
        return hi == desc.zero()
    if isinstance(desc, g.Product):
        return all(interval_is_finite(part, h) for part, h in zip(desc.parts, hi))
    # a strictly positive lex head lets all of {0} x bottom+ below
    return hi[0] == desc.top.zero() and interval_is_finite(desc.bottom, hi[1])


def enumerate_interval(desc, hi):
    """All elements of [0, hi]; only valid when ``interval_is_finite`` holds."""
    if hi == desc.zero():
        return [hi]
    if isinstance(desc, g.Scalar):
        n = desc.H.n
        return [k if n == 1 else Fraction(k, n) for k in range(int(hi * n) + 1)]
    if isinstance(desc, g.IntVector):
        return list(itertools.product(*(range(v + 1) for v in hi)))
    if isinstance(desc, g.Product):
        return list(itertools.product(*map(enumerate_interval, desc.parts, hi)))
    return [(hi[0], t) for t in enumerate_interval(desc.bottom, hi[1])]


def searched_com_check(desc, a, b, draws=200, seed=0):
    """(status, witness) for positive endpoints a and b, by enumeration or seeded draws."""
    if desc.is_abelian() or desc.meet(a, b) == desc.zero():
        return "holds", None
    if interval_is_finite(desc, a) and interval_is_finite(desc, b):
        for x in enumerate_interval(desc, a):
            for y in enumerate_interval(desc, b):
                if desc.add(x, y) != desc.add(y, x):
                    return "fails", (x, y)
        return "holds", None
    rng = random.Random(seed)
    for x, y in itertools.chain([(a, b)], ((desc.sample_interval(a, rng), desc.sample_interval(b, rng))
                                           for _ in range(draws))):
        if desc.add(x, y) != desc.add(y, x):
            return "fails", (x, y)
    return "inconclusive", None
