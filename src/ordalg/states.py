"""States on pseudo effect algebras.

For a finite algebra the state space is an exact rational polytope: the
additivity constraints form a linear system, the nonnegativity constraints
its facets.  :func:`states_finite` writes every element's value as an
integer vector over the generators (the nonzero elements that are not a
sum of two nonzero elements), so the system has one column per generator.
It solves that system by fraction-free integer Gauss-Jordan elimination
(rows scaled to integers, combinations reduced by their gcd) and
enumerates the extreme points with a double description pass over integer
rays whose zero sets are bitmasks, so uniqueness claims are decided
exactly.

Interval algebras over Lex(Scalar(H), G) carry the canonical first
coordinate state (t, g) -> t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import UnsupportedError
from .pea import FinitePea, IntervalPea
from .scalars import ScalarSubgroup

DIMENSION_CAP = 10


# ---------------------------------------------------------------------------
# exact linear algebra, in integers


def _primitive(row):
    """The rational row scaled by a positive number to coprime integers.

    A positive scale changes neither the solutions of an equation (taken
    with its right-hand side) nor the halfspace of a cone inequality.
    """
    scale = lcm(*(v.denominator for v in row))
    ints = [v.numerator * (scale // v.denominator) for v in row]
    common = gcd(*ints)
    return [v // common for v in ints] if common > 1 else ints


def _reduce(mat, k):
    """Fraction-free Gauss-Jordan elimination on the first k columns of an int matrix, in place.

    Returns the pivot columns: row i ends with a nonzero entry d_i in the
    i-th pivot column and zeros elsewhere in it, so dividing row i by d_i
    gives the reduced row echelon form.  Each combination clears a column
    by the gcd-reduced multipliers and divides out the row's content, so
    the entries stay small.  A column is a pivot exactly when it is
    independent of the columns before it.
    """
    m = len(mat)
    pivots = []
    for c in range(k):
        r = len(pivots)
        if r == m:
            break
        pivot = next((i for i in range(r, m) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        prow = mat[r]
        pv = prow[c]
        for i in range(m):
            a = mat[i][c]
            if i != r and a:
                common = gcd(pv, a)
                f, h = pv // common, a // common
                row = [f * v - h * w for v, w in zip(mat[i], prow)]
                common = gcd(*row)
                mat[i] = [v // common for v in row] if common > 1 else row
        pivots.append(c)
    return pivots


def solve_affine(rows, rhs):
    """Solve A x = b over the rationals (entries are ints or Fractions).

    Returns (particular, basis) where basis spans the kernel, or None when
    the system is inconsistent.
    """
    n = len(rows[0]) if rows else 0
    # a commutative table gives each equation twice
    unique = dict.fromkeys(tuple(_primitive([*row, b])) for row, b in zip(rows, rhs))
    aug = [list(row) for row in unique]
    pivots = _reduce(aug, n)
    if any(row[n] != 0 for row in aug[len(pivots):]):
        return None
    free = [c for c in range(n) if c not in pivots]
    particular = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        particular[c] = Fraction(aug[i][n], aug[i][c])
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = Fraction(-aug[i][fc], aug[i][c])
        basis.append(vec)
    return particular, basis


# ---------------------------------------------------------------------------
# double description over the integers


def extreme_rays(rows):
    """Extreme rays of the pointed cone {z: row . z >= 0 for all rows}.

    Each ray is a primitive integer vector, returned as a tuple of Fractions.
    Standard double description over the rows scaled to integers: seed with
    a simplicial subcone from a nonsingular row subset, then insert the
    remaining halfspaces, joining adjacent rays across each new hyperplane.
    Each ray carries its zero set over the rows inserted so far as a bitmask
    (bit i for rows[i]); a ray made from a pair is tight exactly where both
    are, and on the new row.  Two rays are adjacent when no third ray is
    tight wherever both are; only pairs tight together on at least dim - 2
    rows can be (Fukuda-Prodon 1996).
    """
    rows = [_primitive(row) for row in rows]
    dim = len(rows[0])
    # the first dim independent rows span the initial simplicial cone: they
    # are the pivot columns of the transposed rows
    chosen = _reduce([list(col) for col in zip(*rows)], len(rows))
    if len(chosen) < dim:
        raise UnsupportedError("cone is not pointed; state polytope is unbounded")
    # reducing [B | I] leaves the inverse of B, row i scaled by d_i, on the
    # right; its columns are the rays
    aug = [rows[i] + [int(p == q) for q in range(dim)] for p, i in enumerate(chosen)]
    _reduce(aug, dim)
    scale = lcm(*(row[p] for p, row in enumerate(aug)))
    rays = []
    for c in range(dim):
        ray = _primitive([row[dim + c] * (scale // row[p]) for p, row in enumerate(aug)])
        tight = sum(1 << i for i in chosen if _dot(rows[i], ray) == 0)
        rays.append((tuple(ray), tight))
    chosen = set(chosen)
    for idx, row in enumerate(rows):
        if idx in chosen:
            continue
        bit = 1 << idx
        pos, zero_, neg = [], [], []
        for ray, tight in rays:
            s = _dot(row, ray)
            if s > 0:
                pos.append((ray, tight, s))
            elif s < 0:
                neg.append((ray, tight, s))
            else:
                zero_.append((ray, tight | bit))
        new_rays = [(ray, tight) for ray, tight, _ in pos] + zero_
        if neg:
            masks = [tight for _, tight in rays]
            for rp, zp, sp in pos:
                for rn, zn, sn in neg:
                    common = zp & zn
                    if common.bit_count() < dim - 2 or any(
                        z & common == common and z != zp and z != zn for z in masks
                    ):
                        continue
                    combo = _primitive([sp * vn - sn * vp for vp, vn in zip(rp, rn)])
                    new_rays.append((tuple(combo), common | bit))
        rays = new_rays
    return [tuple(Fraction(v) for v in ray) for ray, _ in rays]


def _dot(row, ray):
    return sum(map(mul, row, ray))


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


def _generator_coordinates(E: FinitePea):
    """Each element's value under a state as an int vector over the generators.

    Returns (vectors, defining): zero maps to the zero vector, the c-th
    generator to the c-th unit vector, and every other nonzero element k to
    the sum of the vectors of the summands of its one defining pair
    defining[k] = (i, j), a defined i + j = k with i and j nonzero, placed
    after its summands by memoised recursion.  In an algebra the summands lie
    strictly below k in the derived order, so the pairs have no cycle; a
    table that skipped the axiom check may have one, and then this raises.
    """
    zero = E.zero
    defining = {}
    for (i, j), k in E.table.items():
        if i != zero and j != zero and k not in defining:
            defining[k] = (i, j)
    generators = [x for x in E.elements() if x != zero and x not in defining]
    vectors = [None] * E.size
    vectors[zero] = [0] * len(generators)
    for c, x in enumerate(generators):
        vectors[x] = [int(c == q) for q in range(len(generators))]
    placing = set()

    def place(k):
        if vectors[k] is None:
            if k in placing:
                raise AssertionError("the defining sums of the table form a cycle")
            placing.add(k)
            i, j = defining[k]
            vectors[k] = [a + b for a, b in zip(place(i), place(j))]
        return vectors[k]

    for k in defining:
        place(k)
    return vectors, defining


def states_finite(E: FinitePea):
    """Vertices of the state polytope of E as exact rational states.

    The unknowns are the values on the generators; every defined sum of two
    nonzero elements other than a defining pair, and s(1) = 1, gives one
    equation.  The solution set is the same affine space as over one column
    per element, so the vertices are too.  Raises when its dimension is
    above DIMENSION_CAP; returns an empty list when no state exists.
    """
    vectors, defining = _generator_coordinates(E)
    zero = E.zero
    rows, rhs = [vectors[E.one]], [1]
    for (i, j), k in E.table.items():
        if i != zero and j != zero and defining.get(k) != (i, j):
            row = [a + b - c for a, b, c in zip(vectors[i], vectors[j], vectors[k])]
            if any(row):
                rows.append(row)
                rhs.append(0)
    solved = solve_affine(rows, rhs)
    if solved is None:
        return []
    particular, basis = solved
    k = len(basis)
    if k > DIMENSION_CAP:
        raise UnsupportedError(f"state polytope dimension {k} exceeds cap {DIMENSION_CAP}")
    # basis and particular solution times their common denominator; an
    # element's cone row is (N y + p) times scale, each entry a dot product
    # with its generator vector, for the polytope {y: N y + p >= 0}
    # homogenized to the cone over (y, t)
    scale = lcm(*(v.denominator for vec in (particular, *basis) for v in vec))
    columns = [[v.numerator * (scale // v.denominator) for v in vec] for vec in (*basis, particular)]
    cone_rows = [[_dot(column, vec) for column in columns] for vec in vectors]
    if k == 0:
        if all(row[0] >= 0 for row in cone_rows):
            return [FiniteState(tuple(Fraction(row[0], scale) for row in cone_rows))]
        return []
    cone_rows.append([0] * k + [1])
    rays = [[v.numerator for v in ray] for ray in extreme_rays(cone_rows)]
    if any(ray[-1] == 0 for ray in rays):
        raise AssertionError("state polytope has a recession ray; must be bounded")
    # state value i is (N y + p)_i at y = ray[:-1] / t, t = ray[-1]: the int
    # _dot(row, ray) over scale * t, or that times D // t over scale * D for
    # one common multiple D of the t, so the int tuples dedup and sort as the
    # values do
    D = lcm(*(ray[-1] for ray in rays))
    vertices = {tuple(_dot(row, ray) * (D // ray[-1]) for row in cone_rows[:-1]) for ray in rays}
    return [FiniteState(tuple(Fraction(v, scale * D) for v in vertex)) for vertex in sorted(vertices)]


@dataclass(frozen=True)
class FirstCoordinateState:
    """The canonical state (t, g) -> t on a scalar-headed lex interval."""

    pea: IntervalPea

    def __call__(self, x):
        return x[0]

    @property
    def H(self) -> ScalarSubgroup:
        return self.pea.head_subgroup
