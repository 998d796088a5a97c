"""States in element coordinates: the reference for ``states.states_finite``.

This solver has one unknown per element and one equation per defined pair,
plus s(0) = 0 and s(1) = 1, and hands the solution to the same
``solve_affine`` and ``extreme_rays`` kernels.  ``states_finite`` solves the
same system over the generators alone, so the two must return the same
sorted vertices on every algebra.
"""

from fractions import Fraction
from math import lcm

from ordalg.errors import UnsupportedError
from ordalg.states import DIMENSION_CAP, FiniteState, extreme_rays, solve_affine


def element_states(E):
    """Vertices of the state polytope of E, from one column per element."""
    n = E.size
    rows, rhs = [], []
    row = [0] * n
    row[E.one] = 1
    rows.append(row)
    rhs.append(1)
    row = [0] * n
    row[E.zero] = 1
    rows.append(row)
    rhs.append(0)
    for (i, j), k in sorted(E.table.items()):
        row = [0] * n
        row[i] += 1
        row[j] += 1
        row[k] -= 1
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
    if k == 0:
        if all(v >= 0 for v in particular):
            return [FiniteState(tuple(particular))]
        return []
    # polytope {y: N y + p >= 0} homogenized to the cone over (y, t); row i
    # is (N_i, p_i) times the common denominator of N and p
    scale = lcm(*(v.denominator for vec in (particular, *basis) for v in vec))
    cone_rows = [[int(v * scale) for v in column] for column in zip(*basis, particular)]
    cone_rows.append([0] * k + [1])
    vertices = set()
    for ray in extreme_rays(cone_rows):
        ray = [v.numerator for v in ray]
        t = ray[-1]
        if t == 0:
            raise AssertionError("state polytope has a recession ray; must be bounded")
        # state value i is (N y + p)_i at y = ray[:-1] / t
        values = (Fraction(sum(a * b for a, b in zip(row, ray)), scale * t) for row in cone_rows[:n])
        vertices.add(FiniteState(tuple(values)))
    return sorted(vertices, key=lambda s: s.values)
