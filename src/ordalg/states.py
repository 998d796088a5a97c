"""States on pseudo effect algebras.

For a finite algebra the state space is an exact rational polytope: the
additivity constraints form a linear system, the nonnegativity constraints
its facets.  :func:`states_finite` solves the system by fraction-exact
Gaussian elimination and enumerates the extreme points with a double
description pass, so uniqueness claims are decided exactly.

Interval algebras over Lex(Scalar(H), G) carry the canonical first
coordinate state (t, g) -> t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedError
from .pea import FinitePea, IntervalPea
from .scalars import ScalarSubgroup

DIMENSION_CAP = 10


# ---------------------------------------------------------------------------
# exact linear algebra


def _reduce(mat, k):
    """Gauss-Jordan elimination on the first k columns of a Fraction matrix, in place.

    Returns the pivot columns: row i ends with a 1 in the i-th pivot column
    and zeros elsewhere in it.  A column is a pivot exactly when it is
    independent of the columns before it.
    """
    m = len(mat)
    pivots = []
    for c in range(k):
        r = len(pivots)
        if r == m:
            break
        pivot = next((i for i in range(r, m) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [v / pv for v in mat[r]]
        for i in range(m):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [v - factor * w for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
    return pivots


def solve_affine(rows, rhs):
    """Solve A x = b over the rationals.

    Returns (particular, basis) where basis spans the kernel, or None when
    the system is inconsistent.
    """
    n = len(rows[0]) if rows else 0
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = _reduce(aug, n)
    if any(row[n] != 0 for row in aug[len(pivots):]):
        return None
    free = [c for c in range(n) if c not in pivots]
    particular = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        particular[c] = aug[i][n]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -aug[i][fc]
        basis.append(vec)
    return particular, basis


# ---------------------------------------------------------------------------
# double description over the rationals


def _normalize_ray(ray):
    from math import gcd

    dens = [v.denominator for v in ray]
    mult = 1
    for d in dens:
        mult = mult * d // gcd(mult, d)
    ints = [int(v * mult) for v in ray]
    common = 0
    for v in ints:
        common = gcd(common, abs(v))
    if common > 1:
        ints = [v // common for v in ints]
    return tuple(Fraction(v) for v in ints)


def extreme_rays(rows):
    """Extreme rays of the pointed cone {z: row . z >= 0 for all rows}.

    Standard double description: seed with a simplicial subcone from a
    nonsingular row subset, then insert the remaining halfspaces, joining
    adjacent rays across each new hyperplane.
    """
    dim = len(rows[0])
    # the first dim independent rows span the initial simplicial cone: they
    # are the pivot columns of the transposed rows
    chosen = _reduce([[Fraction(v) for v in col] for col in zip(*rows)], len(rows))
    if len(chosen) < dim:
        raise UnsupportedError("cone is not pointed; state polytope is unbounded")
    # reducing [B | I] leaves the inverse of B on the right; its columns are the rays
    aug = [[Fraction(v) for v in rows[i]] + [Fraction(int(p == q)) for q in range(dim)]
           for p, i in enumerate(chosen)]
    _reduce(aug, dim)
    rays = [_normalize_ray(tuple(aug[r][dim + c] for r in range(dim))) for c in range(dim)]
    processed = list(chosen)
    for idx, row in enumerate(rows):
        if idx in chosen:
            continue
        processed.append(idx)
        pos, zero_, neg = [], [], []
        for ray in rays:
            s = sum(a * b for a, b in zip(row, ray))
            (pos if s > 0 else neg if s < 0 else zero_).append(ray)
        if not neg:
            rays = pos + zero_
            continue
        new_rays = pos + zero_
        for rp in pos:
            sp = sum(a * b for a, b in zip(row, rp))
            for rn in neg:
                if not _adjacent(rp, rn, rays, rows, processed[:-1]):
                    continue
                sn = sum(a * b for a, b in zip(row, rn))
                combo = tuple(sp * vn - sn * vp for vp, vn in zip(rp, rn))
                new_rays.append(_normalize_ray(combo))
        rays = new_rays
    return rays


def _zero_set(ray, rows, idxs):
    return frozenset(i for i in idxs if sum(a * b for a, b in zip(rows[i], ray)) == 0)


def _adjacent(r1, r2, rays, rows, idxs):
    z = _zero_set(r1, rows, idxs) & _zero_set(r2, rows, idxs)
    for other in rays:
        if other is r1 or other is r2 or other == r1 or other == r2:
            continue
        if z <= _zero_set(other, rows, idxs):
            return False
    return True


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class FiniteState:
    """A state on a finite algebra, stored as exact values per element."""

    values: tuple

    def __call__(self, a):
        return self.values[a]

    def kernel(self):
        return frozenset(i for i, v in enumerate(self.values) if v == 0)


def states_finite(E: FinitePea):
    """Vertices of the state polytope of E as exact rational states.

    Raises when the affine hull has dimension above DIMENSION_CAP; returns
    an empty list when no state exists.
    """
    n = E.size
    rows, rhs = [], []
    row = [Fraction(0)] * n
    row[E.one] = Fraction(1)
    rows.append(row)
    rhs.append(Fraction(1))
    row = [Fraction(0)] * n
    row[E.zero] = Fraction(1)
    rows.append(row)
    rhs.append(Fraction(0))
    for (i, j), k in sorted(E.table.items()):
        row = [Fraction(0)] * n
        row[i] += 1
        row[j] += 1
        row[k] -= 1
        if any(v != 0 for v in row):
            rows.append(row)
            rhs.append(Fraction(0))
    solved = solve_affine(rows, rhs)
    if solved is None:
        return []
    particular, basis = solved
    k = len(basis)
    if k > DIMENSION_CAP:
        raise UnsupportedError(f"state polytope dimension {k} exceeds cap {DIMENSION_CAP}")
    if k == 0:
        if all(v >= 0 for v in particular):
            return [FiniteState(tuple(particular))]
        return []
    # polytope {y: N y + p >= 0} homogenized to the cone over (y, t)
    cone_rows = []
    for i in range(n):
        cone_rows.append(tuple(basis[j][i] for j in range(k)) + (particular[i],))
    cone_rows.append(tuple([Fraction(0)] * k) + (Fraction(1),))
    rays = extreme_rays(cone_rows)
    vertices = []
    for ray in rays:
        t = ray[-1]
        if t == 0:
            raise AssertionError("state polytope has a recession ray; must be bounded")
        y = [v / t for v in ray[:-1]]
        values = tuple(
            particular[i] + sum(basis[j][i] * y[j] for j in range(k)) for i in range(n)
        )
        state = FiniteState(values)
        if state not in vertices:
            vertices.append(state)
    vertices.sort(key=lambda s: s.values)
    return vertices


@dataclass(frozen=True)
class FirstCoordinateState:
    """The canonical state (t, g) -> t on a scalar-headed lex interval."""

    pea: IntervalPea

    def __call__(self, x):
        return x[0]

    @property
    def H(self) -> ScalarSubgroup:
        return self.pea.head_subgroup
