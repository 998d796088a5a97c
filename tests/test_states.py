"""The exact state kernels against references, all seeded.

``solve_affine`` is compared with a test-local Fraction Gauss-Jordan
elimination (the rational reference the integer elimination replaced),
``extreme_rays`` with a brute force over every (dim - 1)-subset of rows,
and ``states_finite`` with the known vertices of chains, Boolean algebras
and horizontal sums of a chain and 2^2 blocks, and with the solver over one
column per element in ``element_states``, under seeded relabellings.
"""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from ordalg import states
from ordalg.errors import UnsupportedError
from ordalg.pea import FinitePea, _axiom_failure, boolean_algebra, check_pea_axioms, finite_chain
from ordalg.states import DIMENSION_CAP, FiniteState, _dot, extreme_rays, solve_affine, states_finite

from element_states import element_states
from test_pea import stock_tables

# -- rational reference ------------------------------------------------------


def reference_reduce(mat, k):
    """Gauss-Jordan elimination on the first k columns of a Fraction matrix, in place."""
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


def reference_solve(rows, rhs):
    n = len(rows[0]) if rows else 0
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = reference_reduce(aug, n)
    if any(row[n] != 0 for row in aug[len(pivots):]):
        return None
    particular = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        particular[c] = aug[i][n]
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -aug[i][fc]
        basis.append(vec)
    return particular, basis


def dot(row, x):
    return sum(a * b for a, b in zip(row, x))


# -- solve_affine ------------------------------------------------------------


def random_entry(rng, rational):
    if rng.random() < 0.4:
        return 0
    if rational:
        return Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 6]))
    return rng.randint(-3, 3)


def random_system(rng, kind, rational):
    n, m = rng.randint(1, 6), rng.randint(1, 6)
    rows = [[random_entry(rng, rational) for _ in range(n)] for _ in range(m)]
    x0 = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
    if kind == "deficient":  # an exact duplicate, a multiple and a combination
        a, b = rng.choice(rows), rng.choice(rows)
        rows += [list(a), [3 * v for v in a], [u - 2 * v for u, v in zip(a, b)]]
        rng.shuffle(rows)
    rhs = [dot(row, x0) for row in rows]
    if kind == "inconsistent":  # row a + row b with a right-hand side off by one
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        rows.append([u + v for u, v in zip(rows[i], rows[j])])
        rhs.append(rhs[i] + rhs[j] + 1)
    return rows, rhs


@pytest.mark.parametrize("kind", ["consistent", "inconsistent", "deficient"])
@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
def test_solve_affine_matches_the_rational_reference(kind, rational):
    rng = random.Random(f"{kind}-{rational}")
    for _ in range(35):
        rows, rhs = random_system(rng, kind, rational)
        got, want = solve_affine(rows, rhs), reference_solve(rows, rhs)
        assert got == want
        if kind == "inconsistent":
            assert got is None
            continue
        particular, basis = got
        assert [dot(row, particular) for row in rows] == rhs
        assert all(dot(row, vec) == 0 for row in rows for vec in basis)
        assert all(type(v) is Fraction for v in particular + sum(basis, []))


def test_solve_affine_edge_shapes():
    assert solve_affine([], []) == ([], [])
    assert solve_affine([[0, 0]], [1]) is None
    assert solve_affine([[1, 1], [1, 1]], [1, 2]) is None
    assert solve_affine([[0, 0], [0, 0]], [0, 0]) == reference_solve([[0, 0], [0, 0]], [0, 0])
    half = Fraction(1, 2)
    assert solve_affine([[half, half], [1, 1]], [1, 2]) == ([2, 0], [[-1, 1]])


# -- extreme_rays ------------------------------------------------------------


def primitive(vec):
    scale = 1
    for v in vec:
        scale = scale * v.denominator // gcd(scale, v.denominator)
    ints = [int(v * scale) for v in vec]
    common = gcd(*ints)
    return tuple(v // common for v in ints)


def brute_force_rays(rows):
    """Rays tight on a (dim - 1)-subset of rank dim - 1 that satisfy every row."""
    dim = len(rows[0])
    rays = set()
    for subset in itertools.combinations(rows, dim - 1):
        _, basis = reference_solve(list(subset), [0] * len(subset))
        if len(basis) != 1:
            continue
        for sign in (1, -1):
            ray = [sign * v for v in basis[0]]
            if all(dot(row, ray) >= 0 for row in rows):
                rays.add(primitive(ray))
    return rays


def random_pointed_cone(rng):
    """The nonnegative orthant cut by random rows, in shuffled order.

    A row and its negation sometimes enter together, so some cones are
    lower dimensional; every one is pointed.
    """
    dim = rng.randint(2, 4)
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(rng.randint(0, 4)):
        row = [rng.randint(-2, 3) for _ in range(dim)]
        rows.append(row)
        if rng.random() < 0.15:
            rows.append([-v for v in row])
    if rng.random() < 0.3:
        rows = [[Fraction(v, rng.randint(1, 3)) for v in row] for row in rows]
    rng.shuffle(rows)
    return rows


def test_extreme_rays_match_brute_force():
    rng = random.Random(77)
    found = 0
    for _ in range(80):
        rows = random_pointed_cone(rng)
        rays = extreme_rays(rows)
        as_ints = [tuple(int(v) for v in ray) for ray in rays]
        assert all(type(v) is Fraction and v == int(v) for ray in rays for v in ray)
        assert all(gcd(*ray) == 1 for ray in as_ints)
        assert len(set(as_ints)) == len(as_ints)
        assert set(as_ints) == brute_force_rays(rows)
        found += len(rays)
    assert found > 150


def test_extreme_rays_reject_a_cone_with_a_line():
    with pytest.raises(UnsupportedError):
        extreme_rays([[1, 0, 0], [0, 1, 0], [1, 1, 0]])


# -- states_finite -----------------------------------------------------------


def horizontal_sum(k, n=1):
    """The n-chain beside k copies of 2^2, glued at 0 and 1.

    Element 1 + j is the chain's j-th step (0 < j < n); the atoms
    n + 1 + 2i and n + 2 + 2i of block i add to 1.  With n = 1 this is
    the k-cube sum.
    """
    size = n + 1 + 2 * k
    steps = [0] + list(range(2, n + 1)) + [1]  # the chain's elements, bottom to top
    table = {(0, x): x for x in range(size)} | {(x, 0): x for x in range(size)}
    for i, a in enumerate(steps):
        for j, b in enumerate(steps[: n + 1 - i]):
            table[(a, b)] = steps[i + j]
    for i in range(k):
        a = n + 1 + 2 * i
        table[(a, a + 1)] = table[(a + 1, a)] = 1
    return size, 0, 1, table


def known_vertices(kind, k):
    """The extreme states, as value tuples, of the chain, 2^k or a horizontal sum."""
    if kind == "chain":
        return [tuple(Fraction(i, k) for i in range(k + 1))]
    if kind == "bool":
        return [tuple(Fraction((x >> i) & 1) for x in range(1 << k)) for i in range(k)]
    n = SUM_CHAIN[kind]
    vertices = []
    for picks in itertools.product((0, 1), repeat=k):
        values = [Fraction(0), Fraction(1)] + [Fraction(j, n) for j in range(1, n)]
        for pick in picks:
            values += [Fraction(pick), Fraction(1 - pick)]
        vertices.append(tuple(values))
    return vertices


# horizontal sums: the k-cube, and the 3-chain beside k blocks (values in thirds)
SUM_CHAIN = {"hsum": 1, "thirds": 3}


def structure(kind, k):
    if kind in SUM_CHAIN:
        return horizontal_sum(k, SUM_CHAIN[kind])
    E = finite_chain(k) if kind == "chain" else boolean_algebra(k)
    return E.size, E.zero, E.one, E.table


def relabelled(struct, perm):
    size, zero, one, table = struct
    table = {(perm[i], perm[j]): perm[s] for (i, j), s in table.items()}
    return check_pea_axioms(size, perm[zero], perm[one], table).pea


def permuted(values, perm):
    out = [None] * len(values)
    for x, v in enumerate(values):
        out[perm[x]] = v
    return tuple(out)


CASES = [("chain", n) for n in (1, 2, 5, 9, 63)] + [("bool", k) for k in (1, 2, 3, 4, 6)]
CASES += [("hsum", k) for k in (1, 2, 3, 4)] + [("thirds", k) for k in (0, 1, 2, 3)]


@pytest.mark.parametrize("kind, k", CASES, ids=[f"{kind}{k}" for kind, k in CASES])
def test_states_finite_known_vertices_under_relabelling(kind, k):
    struct = structure(kind, k)
    plain = [s.values for s in states_finite(relabelled(struct, list(range(struct[0]))))]
    assert plain == sorted(known_vertices(kind, k))
    rng = random.Random(f"{kind}{k}")
    for _ in range(3):
        perm = list(range(struct[0]))
        rng.shuffle(perm)
        got = [s.values for s in states_finite(relabelled(struct, perm))]
        assert got == sorted(permuted(values, perm) for values in plain)


def test_states_finite_at_the_dimension_cap():
    # the 10-cube: 1,024 vertices, every one a choice of atom per block
    E = relabelled(horizontal_sum(DIMENSION_CAP), list(range(2 + 2 * DIMENSION_CAP)))
    vertices = states_finite(E)
    assert len(vertices) == 1 << DIMENSION_CAP
    assert [s.values for s in vertices] == sorted(known_vertices("hsum", DIMENSION_CAP))
    E = relabelled(horizontal_sum(DIMENSION_CAP + 1), list(range(4 + 2 * DIMENSION_CAP)))
    with pytest.raises(UnsupportedError):
        states_finite(E)


# the reference is quadratic in the elements: 0.3-0.4 s on the 63-chain
REFERENCE_CASES = CASES + [("chain", 40), ("hsum", 7), ("thirds", 5)]


@pytest.mark.parametrize("kind, k", REFERENCE_CASES, ids=[f"{kind}{k}" for kind, k in REFERENCE_CASES])
def test_states_finite_matches_element_coordinates(kind, k):
    struct = structure(kind, k)
    rng = random.Random(f"elements-{kind}{k}")
    for _ in range(4):
        perm = list(range(struct[0]))
        rng.shuffle(perm)
        E = relabelled(struct, perm)
        assert states_finite(E) == element_states(E)


def test_states_finite_matches_element_coordinates_on_stock_tables():
    # the stock tables include the non-commutative cycles of atoms
    rng = random.Random("elements-stock")
    algebras = [check_pea_axioms(*table) for _ in range(3) for table in stock_tables(rng)]
    algebras = [verdict.pea for verdict in algebras if verdict.valid]
    assert len(algebras) == 3 * 15
    for E in algebras:
        assert states_finite(E) == element_states(E)


def former_vertex_stage(cone_rows, rays, scale):
    """The vertex stage as it was: a set of FiniteStates of Fractions, one
    per ray, sorted by their value tuples."""
    vertices = set()
    for ray in rays:
        ray = [v.numerator for v in ray]
        t = ray[-1]
        values = (Fraction(_dot(row, ray), scale * t) for row in cone_rows[:-1])
        vertices.add(FiniteState(tuple(values)))
    return sorted(vertices, key=lambda s: s.values)


def test_vertex_stage_matches_the_former_fraction_stage(monkeypatch):
    # the integer keys dedup and sort as the Fraction tuples did, and the
    # values come out as the same Fractions, fed the same solved system and rays
    seen = {}

    def recording(name, fn):
        def wrapper(*args):
            seen[name] = (args, fn(*args))
            return seen[name][1]
        return wrapper

    monkeypatch.setattr(states, "solve_affine", recording("solve", solve_affine))
    monkeypatch.setattr(states, "extreme_rays", recording("rays", extreme_rays))
    structs = [structure(kind, k) for kind, k in CASES]
    structs += [t for t in stock_tables(random.Random("vertex-stage")) if check_pea_axioms(*t).valid]
    rng = random.Random("vertex-stage")
    staged = 0
    for struct in structs:
        perms = [list(range(struct[0]))]
        for _ in range(3):
            perms.append(rng.sample(perms[0], len(perms[0])))
        for perm in perms:
            seen.clear()
            got = states_finite(relabelled(struct, perm))
            if "rays" not in seen:
                continue  # a single state, solved without the stage
            particular, basis = seen["solve"][1]
            scale = lcm(*(v.denominator for vec in (particular, *basis) for v in vec))
            (cone_rows,), rays = seen["rays"]
            assert got == former_vertex_stage(cone_rows, rays, scale)
            assert all(type(v) is Fraction for s in got for v in s.values)
            staged += 1
    assert staged >= 70, staged


def test_one_element_algebra_has_no_state():
    # no generator, and s(1) = 1 contradicts s(0) = 0 when one is zero
    E = check_pea_axioms(1, 0, 0, {(0, 0): 0}).pea
    assert states_finite(E) == [] == element_states(E)


@pytest.mark.parametrize("size, table", [
    (2, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}),
    (3, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (0, 2): 2, (2, 0): 2, (1, 1): 2, (2, 2): 1}),
], ids=["self", "pair"])
def test_defining_sums_in_a_cycle_raise(size, table):
    # tables that skipped the axiom check: 1 + 1 = 1, and 1 + 1 = 2, 2 + 2 = 1
    E = FinitePea(size, 0, 1, table, _rows=_axiom_failure(size, 0, 1, table)[1])
    with pytest.raises(AssertionError, match="form a cycle"):
        states_finite(E)
