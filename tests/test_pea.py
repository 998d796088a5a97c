"""Finite and interval pseudo effect algebras."""

import itertools
import random
from fractions import Fraction

import pytest

from ordalg import groups as g
from ordalg.errors import ParseError, PreconditionError, UnsupportedError
from ordalg.pea import (
    AxiomFailure,
    CyclicElement,
    ExchangeVerdict,
    FinitePea,
    IdealInfo,
    IdealsReport,
    IntervalPea,
    boolean_algebra,
    check_pea_axioms,
    cyclic_elements,
    cyclic_exchange_check,
    finite_chain,
    ideals_enumerate,
    infinitesimals,
    is_symmetric,
)
from ordalg.pea import _axiom_failure, _is_normal_ideal
from ordalg.parsing import format_pea_file, parse_pea_file
from ordalg.scalars import ScalarSubgroup
from ordalg.states import FiniteState, states_finite

from finite_slices import infinitesimals as scan_infinitesimals
from finite_slices import scan_is_normal_ideal, subset_maximal
from test_properties import TREES, strong_unit

Z = g.ZZ
Q = g.QQ
AFF = g.AffineQ()


def f(x):
    return Fraction(x)


def chain_table(n):
    return {(i, j): i + j for i in range(n + 1) for j in range(n + 1) if i + j <= n}


def test_chain_c3_valid():
    verdict = check_pea_axioms(3, 0, 2, chain_table(2))
    assert verdict.valid


def test_boolean_4_valid():
    E = boolean_algebra(2)
    assert E.size == 4


def test_missing_complement_fails_pe2():
    table = chain_table(2)
    del table[(1, 1)]  # drop a + a = 1, leaving a with no complement
    verdict = check_pea_axioms(3, 0, 2, table)
    assert not verdict.valid
    assert verdict.failure.axiom == "PE2"
    assert verdict.failure.witness == (1,)


def test_chain_derived_negations():
    E = finite_chain(2)  # 0 < a < 1 with a + a = 1
    assert E.lneg(1) == 1 and E.rneg(1) == 1


def test_interval_lex_negation():
    E = IntervalPea(g.Lex(Q, Z), (f(1), f(0)))
    got = E.lneg((Fraction(1, 3), f(5)))
    assert got == (Fraction(2, 3), f(-5))


def test_lneg_of_zero_is_one():
    for E in (finite_chain(3), boolean_algebra(2)):
        assert E.lneg(E.zero) == E.one
    EI = IntervalPea(g.Lex(Q, Z), (f(1), f(0)))
    assert EI.lneg(EI.zero) == EI.one


def test_derived_order_agrees_both_sides():
    valid = [check_pea_axioms(*algebra) for algebra in stock_tables(random.Random(7))]
    for E in [finite_chain(4), boolean_algebra(3)] + [v.pea for v in valid if v.valid]:
        for a in E.elements():
            for b in E.elements():
                right = any(E.add(a, c) == b for c in E.elements())
                assert E.leq(a, b) == right
        assert all(E.leq(E.zero, a) and E.leq(a, E.one) for a in E.elements())


def assert_derived(size, zero, one, table):
    """Assert what the axioms imply of the derived order and the table.

    a <= b holds when a + c = b for some c (the derived order); the left
    order asks for d + a = b.  The order must be bounded by zero and one,
    antisymmetric and equal to the left order, and the defined sums in each
    row, and in each column, pairwise distinct (cancellation).
    """
    row_sums = [[] for _ in range(size)]  # a + c over defined c
    column_sums = [[] for _ in range(size)]  # d + a over defined d
    for (d, c), s in table.items():
        row_sums[d].append(s)
        column_sums[c].append(s)
    leq = [set(sums) for sums in row_sums]
    for a in range(size):
        if a not in leq[zero] or one not in leq[a]:
            raise AssertionError("derived order lost its bounds")
        left_above = set(column_sums[a])
        for b in range(size):
            if b in leq[a] and a in leq[b] and a != b:
                raise AssertionError(f"derived order not antisymmetric at ({a}, {b})")
            if (b in leq[a]) != (b in left_above):
                raise AssertionError(f"left/right order disagree at ({a}, {b})")
    for a in range(size):
        if len(set(row_sums[a])) != len(row_sums[a]):
            raise AssertionError(f"left cancellation fails at {a}")
        if len(set(column_sums[a])) != len(column_sums[a]):
            raise AssertionError(f"right cancellation fails at {a}")


# tables that break the axioms, each tripping one check of assert_derived
SELF_CHECK_FAILURES = [
    (2, {(0, 0): 0, (0, 1): 0, (1, 0): 1}, "derived order lost its bounds"),
    (2, {(0, 0): 0, (0, 1): 1, (1, 0): 0}, r"derived order not antisymmetric at \(0, 1\)"),
    (2, {(0, 0): 1, (0, 1): 0, (1, 0): 1}, r"left/right order disagree at \(0, 0\)"),
    (2, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}, "left cancellation fails at 1"),
    (3, {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (1, 1): 2, (2, 0): 2, (2, 1): 2},
     "right cancellation fails at 1"),
]


@pytest.mark.parametrize("size, table, message", SELF_CHECK_FAILURES)
def test_self_checks_name_the_failure(size, table, message):
    with pytest.raises(AssertionError, match=message):
        assert_derived(size, 0, size - 1, table)
    assert check_pea_axioms(size, 0, size - 1, table).failure is not None


def hsum_table(k):
    """Horizontal sum of k copies of 2^2: 0, 1, then atoms 2+2i and 3+2i add to 1."""
    table = {}
    for x in range(2 + 2 * k):
        table[(0, x)] = x
        table[(x, 0)] = x
    for i in range(k):
        table[(2 + 2 * i, 3 + 2 * i)] = 1
        table[(3 + 2 * i, 2 + 2 * i)] = 1
    return 2 + 2 * k, 0, 1, table


def cycle_table(n):
    """0, 1 and atoms 2..n+1, each atom plus the next one (cyclically) equal to 1.

    A valid algebra for n >= 2, non-commutative for n >= 3: an atom's left
    and right complements are its two neighbours.
    """
    size = n + 2
    table = {(0, x): x for x in range(size)}
    table.update({(x, 0): x for x in range(size)})
    table.update({(2 + i, 2 + (i + 1) % n): 1 for i in range(n)})
    return size, 0, 1, table


def arc_table(n):
    """Arcs of an n-cycle, joined end to start; PE1, PE2 and PE4 hold, PE3 fails for n >= 3.

    Element 0 is the empty arc and 1 the full circle; arc (i, k) starts at
    i and has length 0 < k < n.  The sum (i, k) + (i + k, m) is the arc
    (i, k + m), but d + (i, k) = (i, k + m) would need an arc d of length m
    from i back to i.
    """
    arcs = {(i, k): 1 + (n - 1) * i + k for i in range(n) for k in range(1, n)}
    spans = [(0, 0, 0), (1, 0, n)] + [(x, i, k) for (i, k), x in arcs.items()]
    table = {}
    for x, i, k in spans:
        for y, j, m in spans:
            if k == 0 or m == 0:
                table[(x, y)] = y if k == 0 else x
            elif j == (i + k) % n and k + m <= n:
                table[(x, y)] = 1 if k + m == n else arcs[(i, k + m)]
    return 2 + len(arcs), 0, 1, table


def relabel(size, zero, one, table, rng):
    perm = list(range(size))
    rng.shuffle(perm)
    return size, perm[zero], perm[one], {(perm[i], perm[j]): perm[k] for (i, j), k in table.items()}


def stock_tables(rng):
    for n in (1, 2, 3, 5, 8, 12):
        yield relabel(n + 1, 0, n, chain_table(n), rng)
    for k in (1, 2, 3, 4):
        E = boolean_algebra(k)
        yield relabel(E.size, E.zero, E.one, E.table, rng)
    for k in (2, 3, 5):
        yield relabel(*hsum_table(k), rng)
    for n in (3, 4):
        yield relabel(*cycle_table(n), rng)
        yield relabel(*arc_table(n), rng)
    for n in (2, 5):
        # the group Z/n, all sums defined: only PE4 fails
        yield relabel(n, 0, 1, {(i, j): (i + j) % n for i in range(n) for j in range(n)}, rng)


def exhaustive_axiom_failure(size, zero, one, table):
    """Reference: the range check and PE1-PE4 by a lexicographic scan of all triples and pairs."""
    els = range(size)
    for (i, j), k in table.items():
        if not (0 <= i < size and 0 <= j < size and 0 <= k < size):
            return AxiomFailure("table", (i, j, k))
    add = table.get
    for a, b, c in itertools.product(els, repeat=3):
        ab = add((a, b))
        left_def = ab is not None and add((ab, c)) is not None
        bc = add((b, c))
        right_def = bc is not None and add((a, bc)) is not None
        if left_def != right_def or (left_def and add((ab, c)) != add((a, bc))):
            return AxiomFailure("PE1", (a, b, c))
    for a in els:
        rights = [d for d in els if add((a, d)) == one]
        lefts = [e for e in els if add((e, a)) == one]
        if len(rights) != 1 or len(lefts) != 1:
            return AxiomFailure("PE2", (a,))
    for a, b in itertools.product(els, repeat=2):
        s = add((a, b))
        if s is None:
            continue
        if not any(add((d, a)) == s for d in els) or not any(add((b, e)) == s for e in els):
            return AxiomFailure("PE3", (a, b))
    for a in els:
        if (add((a, one)) is not None or add((one, a)) is not None) and a != zero:
            return AxiomFailure("PE4", (a,))
    return None


def mutate(size, one, table, rng):
    """One to three random deletions, value changes and added entries.

    Half the new values are `one`, to make extra complements; one value past
    the last element trips the range check.
    """
    table = dict(table)
    for _ in range(rng.randint(1, 3)):
        how = rng.choice(("delete", "change", "add"))
        value = rng.choice((one, rng.randrange(size + 1)))
        if how == "add" or not table:
            table[(rng.randrange(size), rng.randrange(size))] = value
        elif how == "delete":
            del table[rng.choice(sorted(table))]
        else:
            table[rng.choice(sorted(table))] = value
    return table


def test_axiom_failure_matches_the_exhaustive_scan():
    rng = random.Random(20261018)
    axioms = set()
    for _ in range(12):
        for size, zero, one, table in stock_tables(rng):
            for mutated in [table] + [mutate(size, one, table, rng) for _ in range(3)]:
                failure = _axiom_failure(size, zero, one, mutated)
                assert failure == exhaustive_axiom_failure(size, zero, one, mutated)
                axioms.add(None if failure is None else failure.axiom)
    assert axioms == {None, "table", "PE1", "PE2", "PE3", "PE4"}


def test_accepted_tables_have_the_derived_properties():
    # FinitePea trusts these consequences of the axioms without re-deriving them
    rng = random.Random(20261020)
    accepted = {False: 0, True: 0}  # stock tables, mutated tables
    for _ in range(12):
        for size, zero, one, table in stock_tables(rng):
            for mutated in [table] + [mutate(size, one, table, rng) for _ in range(3)]:
                if check_pea_axioms(size, zero, one, mutated).valid:
                    assert_derived(size, zero, one, mutated)
                    accepted[mutated is not table] += 1
    # all but the arc tables and the groups Z/n are algebras
    assert accepted[False] == 12 * 15 and accepted[True] > 20


def test_axiom_failure_passes_the_largest_stock_algebras():
    assert _axiom_failure(64, 0, 63, chain_table(63)) is None
    E = boolean_algebra(6)
    assert _axiom_failure(E.size, E.zero, E.one, E.table) is None


def out_of_range(size, table, rng):
    """The table with one key or value replaced by -1 or size."""
    table = dict(table)
    (i, j), k = rng.choice(sorted(table.items()))
    del table[(i, j)]
    entry = [i, j, k]
    entry[rng.randrange(3)] = rng.choice((-1, size))
    table[tuple(entry[:2])] = entry[2]
    return table


def test_axiom_failure_matches_the_exhaustive_scan_at_the_caps():
    # sizes up to 64, where the byte rows' sentinel is 64; arc tables fail
    # PE3 alone, the group Z/64 PE4 alone, and the n = 1 tables the range
    # check, PE2 or nothing
    rng = random.Random(20261019)
    B = boolean_algebra(6)
    algebras = [
        (64, 0, 63, chain_table(63)), (B.size, B.zero, B.one, B.table), hsum_table(31),
        cycle_table(62), arc_table(8), arc_table(4), hsum_table(9), (33, 0, 32, chain_table(32)),
        (64, 0, 1, {(i, j): (i + j) % 64 for i in range(64) for j in range(64)}),
    ]
    cases = [(1, 0, 0, table) for table in ({(0, 0): 0}, {}, {(0, 0): 1}, {(0, -1): 0}, {(-1, 0): 0})]
    for algebra in algebras:
        for _ in range(3):
            size, zero, one, table = relabel(*algebra, rng)
            mutated = [mutate(size, one, table, rng) for _ in range(3)] + [out_of_range(size, table, rng)]
            cases += [(size, zero, one, t) for t in [table] + mutated]
    axioms = set()
    for size, zero, one, table in cases:
        failure = _axiom_failure(size, zero, one, table)
        assert failure == exhaustive_axiom_failure(size, zero, one, table)
        axioms.add(None if failure is None else failure.axiom)
    assert axioms == {None, "table", "PE1", "PE2", "PE3", "PE4"}


def test_size_cap_and_designators_hold_on_every_route():
    with pytest.raises(UnsupportedError, match="capped at 64 elements"):
        check_pea_axioms(65, 0, 64, chain_table(64))
    with pytest.raises(UnsupportedError, match="capped at 64 elements"):
        FinitePea(65, 0, 64, chain_table(64))
    with pytest.raises(UnsupportedError, match="capped at 64 elements"):
        finite_chain(64)
    with pytest.raises(UnsupportedError, match="capped at 64 elements"):
        boolean_algebra(7)
    assert finite_chain(63).size == boolean_algebra(6).size == 64
    # the file route: the cap, an element numeral equal to n, the largest files
    body = "".join(f"add {i} {j} {k}\n" for (i, j), k in chain_table(64).items())
    with pytest.raises(UnsupportedError, match="capped at 64 elements"):
        parse_pea_file("pea n=65 zero=0 one=64\n" + body)
    lines = format_pea_file(finite_chain(63)).splitlines()
    lines[100] = "add 0 64 63"
    with pytest.raises(ParseError) as err:
        parse_pea_file("\n".join(lines))
    assert str(err.value) == "101:1: add arguments out of range"
    for E in (finite_chain(63), boolean_algebra(6)):
        verdict = parse_pea_file(format_pea_file(E))
        assert verdict.valid and verdict.pea.size == 64 and verdict.pea.table == E.table
    for zero, one in ((0, 3), (-1, 2), (3, 2)):
        with pytest.raises(PreconditionError, match="zero/one designators out of range"):
            check_pea_axioms(3, zero, one, chain_table(2))
        with pytest.raises(PreconditionError, match="zero/one designators out of range"):
            FinitePea(3, zero, one, chain_table(2))


def pe1_row_failures(size, table, a):
    """The PE1 failures (a, b, c) at row a: the left-defined ones, then the others."""
    add = table.get
    left, right = [], []
    for b, c in itertools.product(range(size), repeat=2):
        ab, bc = add((a, b)), add((b, c))
        left_def = ab is not None and add((ab, c)) is not None
        right_def = bc is not None and add((a, bc)) is not None
        if left_def and (not right_def or add((ab, c)) != add((a, bc))):
            left.append((a, b, c))
        elif right_def and not left_def:
            right.append((a, b, c))
    return left, right


def without(size, zero, one, table, pair):
    table = dict(table)
    del table[pair]
    return size, zero, one, table


# (algebra, its PE1 witness, whether the left-defined triples at the
# witness's row all pass, so that only its right-defined triples fail)
PE1_ROWS = [
    # a deleted 0 + 1: the failures at row 0 are right-defined alone
    (without(4, 0, 3, chain_table(3), (0, 1)), (0, 1, 1), True),
    (without(8, 0, 7, boolean_algebra(3).table, (0, 1)), (0, 1, 2), True),
    # the first failing row comes after clean rows
    (without(8, 0, 7, boolean_algebra(3).table, (4, 3)), (4, 1, 2), False),
    (without(*hsum_table(3), (6, 0)), (6, 0, 7), True),
]


@pytest.mark.parametrize("algebra, witness, left_clean", PE1_ROWS)
def test_pe1_witness_is_the_least_failure_of_the_first_failing_row(algebra, witness, left_clean):
    size, zero, one, table = algebra
    failure = _axiom_failure(size, zero, one, table)
    assert failure == exhaustive_axiom_failure(size, zero, one, table) == AxiomFailure("PE1", witness)
    a = witness[0]
    assert not any(any(pe1_row_failures(size, table, r)) for r in range(a))
    left, right = pe1_row_failures(size, table, a)
    assert min(left + right) == witness
    assert (not left) == left_clean


def test_ideals_of_chain():
    E = finite_chain(2)
    report = ideals_enumerate(E)
    sets = {info.members for info in report.ideals}
    assert sets == {frozenset({0}), frozenset({0, 1, 2})}
    assert report.radical == frozenset({0})
    maximal = [info.members for info in report.ideals if info.maximal]
    assert maximal == [frozenset({0})]


def test_ideals_of_boolean_square():
    E = boolean_algebra(2)  # elements 0, 1=x, 2=x', 3=1
    report = ideals_enumerate(E)
    sets = {info.members for info in report.ideals}
    assert sets == {
        frozenset({0}),
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({0, 1, 2, 3}),
    }
    assert report.radical == frozenset({0})


def test_zero_ideal_always_present():
    for E in (finite_chain(3), boolean_algebra(3)):
        report = ideals_enumerate(E)
        assert frozenset({E.zero}) in {i.members for i in report.ideals}


def test_normal_ideals_match_the_member_scan():
    rng = random.Random(13)
    algebras = [finite_chain(n) for n in (1, 2, 5, 63)] + [boolean_algebra(k) for k in range(1, 7)]
    algebras += [FinitePea(*hsum_table(k)) for k in (2, 3, 5)]
    algebras += [FinitePea(*cycle_table(n)) for n in (3, 4, 5)]
    verdicts = set()
    for E in algebras:
        # every ideal, and seeded subsets that are mostly not ideals
        subsets = [info.members for info in ideals_enumerate(E).ideals]
        subsets += [frozenset(rng.sample(range(E.size), rng.randint(1, E.size))) for _ in range(20)]
        for members in subsets:
            verdict = _is_normal_ideal(E, members)
            assert verdict == scan_is_normal_ideal(E, members)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def closure_ideals_enumerate(E):
    """Reference: each ideal closed by rescanning members x members until stable."""

    def closure(seed):
        members = set(seed) | {E.zero}
        changed = True
        while changed:
            changed = False
            for a in list(members):
                for b in list(members):
                    s = E.add(a, b)
                    if s is not None and s not in members:
                        members.add(s)
                        changed = True
            for x in E.elements():
                if x not in members and any(E.leq(x, a) for a in members):
                    members.add(x)
                    changed = True
        return frozenset(members)

    found = {closure([])}
    frontier = list(found)
    while frontier:
        base = frontier.pop()
        for x in E.elements():
            if x not in base:
                grown = closure(set(base) | {x})
                if grown not in found:
                    found.add(grown)
                    frontier.append(grown)
    all_elements = frozenset(E.elements())
    maximal = set(subset_maximal(found, all_elements))
    infos = tuple(
        IdealInfo(i, i in maximal, scan_is_normal_ideal(E, i))
        for i in sorted(found, key=lambda s: (len(s), sorted(s)))
    )
    radical = all_elements.intersection(*maximal)
    normal_radical = all_elements.intersection(*(i.members for i in infos if i.maximal and i.normal))
    return IdealsReport(infos, radical, normal_radical)


def test_ideals_match_the_closure_search():
    # up to the caps where the reference takes under about 0.3 s a copy; on
    # 2^6 it takes over 2 s
    rng = random.Random(9)
    algebras = [finite_chain(n) for n in (1, 2, 4, 7, 40, 63)] + [boolean_algebra(k) for k in (3, 4, 5)]
    algebras += [FinitePea(*hsum_table(k)) for k in (3, 4, 5)]
    algebras += [FinitePea(*cycle_table(n)) for n in (3, 4, 5)]
    for E in algebras:
        for size, zero, one, table in ((E.size, E.zero, E.one, E.table),
                                       relabel(E.size, E.zero, E.one, E.table, rng)):
            F = FinitePea(size, zero, one, table)
            assert ideals_enumerate(F) == closure_ideals_enumerate(F)


def stock_algebras():
    """Each stock table up to the caps, and one seeded relabelling of it."""
    rng = random.Random("stock-algebras")
    structs = [(n + 1, 0, n, chain_table(n)) for n in (1, 2, 3, 5, 8, 12, 24, 40, 63)]
    structs += [(E.size, E.zero, E.one, E.table) for E in map(boolean_algebra, range(1, 7))]
    structs += [hsum_table(k) for k in range(2, 8)]
    structs += [cycle_table(n) for n in (3, 4, 5)]
    for struct in structs:
        yield FinitePea(*struct)
        yield FinitePea(*relabel(*struct, rng))


def test_maximal_flags_equal_the_subset_definition():
    counts = set()
    for E in stock_algebras():
        report = ideals_enumerate(E)
        ideals = [info.members for info in report.ideals]
        assert [info.members for info in report.ideals if info.maximal] == subset_maximal(
            ideals, frozenset(E.elements())
        )
        counts.add(sum(info.maximal for info in report.ideals))
    # a chain has one maximal ideal, 2^k has k and the sum of k blocks 2^k
    assert counts == {1, 2, 3, 4, 5, 6, 8, 16, 32, 64, 128}


def test_infinitesimals_finite():
    assert infinitesimals(finite_chain(2)) == {0}
    assert infinitesimals(boolean_algebra(2)) == {0}


def test_finite_infinitesimals_are_zero_on_every_accepted_table():
    # infinitesimals answers {0} on a finite algebra by cancellation; the
    # element loop agrees on the stock tables, their relabellings and the
    # mutated tables that pass the axiom check
    rng = random.Random(20261021)
    algebras = list(stock_algebras())
    mutated = 0
    for _ in range(12):
        for size, zero, one, table in stock_tables(rng):
            for _ in range(3):
                verdict = check_pea_axioms(size, zero, one, mutate(size, one, table, rng))
                if verdict.valid:
                    algebras.append(verdict.pea)
                    mutated += 1
    assert mutated > 20
    for E in algebras:
        assert scan_infinitesimals(E) == infinitesimals(E) == {E.zero}


def test_infinitesimals_symbolic():
    E = IntervalPea(g.Lex(Z, Z), (f(1), f(0)))
    info = infinitesimals(E)
    assert info.contains((f(0), f(5)))
    assert not info.contains((f(1), f(0)))
    assert not info.contains((f(0), f(-2)))


def test_states_chain_unique():
    E = finite_chain(2)
    vertices = states_finite(E)
    assert len(vertices) == 1
    assert vertices[0].values == (Fraction(0), Fraction(1, 2), Fraction(1))


def test_states_boolean_square_two_extremal():
    E = boolean_algebra(2)
    vertices = states_finite(E)
    assert len(vertices) == 2
    values = {v.values for v in vertices}
    assert values == {
        (Fraction(0), Fraction(0), Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(0), Fraction(1)),
    }


def test_states_trivial_algebra():
    E = finite_chain(1)  # only 0 and 1
    vertices = states_finite(E)
    assert len(vertices) == 1
    assert vertices[0].values == (Fraction(0), Fraction(1))


def test_states_boolean_cube_three_extremal():
    vertices = states_finite(boolean_algebra(3))
    assert len(vertices) == 3


def test_state_negation_identity_and_kernel_normal():
    for E in (finite_chain(3), boolean_algebra(2), boolean_algebra(3)):
        report = ideals_enumerate(E)
        normal_ideals = {i.members for i in report.ideals if i.normal}
        for s in states_finite(E):
            for a in E.elements():
                assert s(E.lneg(a)) == 1 - s(a)
            assert s.kernel() in normal_ideals


def check_interval_axioms_sampled(E: IntervalPea, rng, rounds=120):
    """Sampled PE1-PE4 probe for interval algebras; returns a witness or None.

    Every interval of a unital po-group is an algebra (Dvurecenskij and
    Vetterlein, 2001), so the library checks no axioms on one; this probe is
    the test-side cross-check of that, through the algebra's own operations.
    """
    for _ in range(rounds):
        a, b, c = E.sample(rng), E.sample(rng), E.sample(rng)
        ab = E.add(a, b)
        left = ab is not None and E.add(ab, c) is not None
        bc = E.add(b, c)
        right = bc is not None and E.add(a, bc) is not None
        if left != right:
            return AxiomFailure("PE1", (a, b, c))
        if left and E.add(ab, c) != E.add(a, bc):
            return AxiomFailure("PE1", (a, b, c))
        if E.add(a, E.rneg(a)) != E.one or E.add(E.lneg(a), a) != E.one:
            return AxiomFailure("PE2", (a,))
        if ab is not None:
            d = E.minus_left(ab, a)
            e = E.minus_right(b, ab)
            if d is None or E.add(d, a) != ab:
                return AxiomFailure("PE3", (a, b))
            if e is None or E.add(b, e) != ab:
                return AxiomFailure("PE3", (a, b))
        if a != E.zero and (E.add(a, E.one) is not None or E.add(E.one, a) is not None):
            return AxiomFailure("PE4", (a,))
    return None


def test_interval_axioms_sampled():
    rng = random.Random(5)
    H2 = ScalarSubgroup.quadratic(2)
    cases = [
        IntervalPea(g.Lex(Q, Z), (f(1), f(0))),
        IntervalPea(g.Lex(Z, g.IntVector(2)), (f(1), (0, 0))),
        IntervalPea(g.Lex(Z, AFF), (f(1), (f(2), f(0)))),
        IntervalPea(g.IntVector(2), (2, 3)),
        IntervalPea(g.Lex(g.Scalar(H2), Z), (H2.one(), f(0))),
    ]
    for E in cases:
        assert check_interval_axioms_sampled(E, rng) is None


def test_interval_operations_equal_the_group_forwarders():
    # IntervalPea calls its group's methods, bound once; on the property
    # trees each operation equals the one spelled through the groups module
    rng = random.Random(2500)
    differences = 0
    for desc in TREES:
        E = IntervalPea(desc, strong_unit(desc, rng))
        u, zero = E.unit, desc.zero()
        for _ in range(4):
            x, y, w = E.sample(rng), E.sample(rng), desc.sample_element(rng, 4)
            for v in (x, y, w):
                assert E.contains(v) == (g.leq(desc, zero, v) and g.leq(desc, v, u))
                assert E.lneg(v) == g.add(desc, u, g.neg(desc, v))
                assert E.rneg(v) == g.add(desc, g.neg(desc, v), u)
            s = g.add(desc, x, y)
            assert E.add(x, y) == (s if g.leq(desc, s, u) else None)
            for a, b in ((x, y), (y, x), (x, s), (zero, x), (x, u), (w, x)):
                below = g.leq(desc, a, b)
                assert E.leq(a, b) == below
                assert E.minus_left(b, a) == (desc.sub_right(b, a) if below else None)
                assert E.minus_right(a, b) == (g.sub_left(desc, a, b) if below else None)
                differences += below
    assert differences >= 600


def test_cyclic_elements_chain():
    E = IntervalPea(g.ZZ, Fraction(2))  # Gamma(Z, 2): the 3-element chain
    found = cyclic_elements(E, 2)
    assert len(found) == 1
    assert found[0].element == f(1) and found[0].strong


def test_cyclic_elements_lex_rationals():
    E = IntervalPea(g.Lex(Q, Z), (f(1), f(0)))
    found = cyclic_elements(E, 3)
    assert len(found) == 1
    assert found[0].element == (Fraction(1, 3), f(0))
    assert found[0].strong


def test_cyclic_elements_quadratic_head_empty():
    H = ScalarSubgroup.quadratic(2)
    E = IntervalPea(g.Lex(g.Scalar(H), Z), (H.one(), f(0)))
    assert cyclic_elements(E, 2) == []
    only = cyclic_elements(E, 1)
    assert len(only) == 1 and only[0].element == E.one


def test_symmetry_boolean():
    assert is_symmetric(boolean_algebra(2)).symmetric


def test_symmetry_lex_affine_depends_on_unit_tail():
    bad = IntervalPea(g.Lex(Z, AFF), (f(1), (f(2), f(0))))
    verdict = is_symmetric(bad)
    assert not verdict.symmetric
    x = verdict.witness
    assert x == (0, (f(1), f(1))) and bad.contains(x)
    assert bad.lneg(x) != bad.rneg(x)
    good = IntervalPea(g.Lex(Z, AFF), (f(1), (f(1), f(0))))
    assert is_symmetric(good).symmetric


def test_cyclic_exchange_finite_exhaustive():
    E = finite_chain(2)
    verdict = cyclic_exchange_check(E, 1)
    assert verdict.holds and verdict.exhaustive


def test_cyclic_exchange_one():
    E = finite_chain(3)
    verdict = cyclic_exchange_check(E, E.one)
    assert verdict.holds


def test_cyclic_exchange_interval_sampled():
    E = IntervalPea(g.Lex(Q, Z), (f(1), f(0)))
    verdict = cyclic_exchange_check(E, (Fraction(1, 2), f(0)))
    assert verdict == ExchangeVerdict(True, exhaustive=True)


@pytest.mark.parametrize("desc,unit,order", [
    (AFF, (f(16), f(5)), 4),
    (g.Lex(g.Scalar(ScalarSubgroup.cyclic(6)), AFF), (f(1), (f(64), f(7))), 6),
])
def test_cyclic_exchange_holds_at_non_central_cyclic_elements(desc, unit, order):
    # nc = u makes c commute with u, whether or not c is central; seeded
    # draws cross-check the exact answer
    E = IntervalPea(desc, unit)
    c = g.divide(desc, unit, order)
    assert not desc.center_member(c) and E.times(order, c) == E.one
    assert cyclic_exchange_check(E, c) == ExchangeVerdict(True, exhaustive=True)
    rng = random.Random(order)
    for _ in range(200):
        x = E.sample(rng)
        assert E.defined(x, c) == E.defined(c, x)


def commutes_by_scan(E, a):
    return all(E.defined(x, a) == E.defined(a, x) and E.add(x, a) == E.add(a, x)
               for x in E.elements())


def exchange_failure_by_scan(E, c):
    return next((x for x in E.elements() if E.defined(x, c) != E.defined(c, x)), None)


def test_cyclic_flags_and_exchange_match_the_element_loops():
    # on the stock tables, their relabellings and their mutations, checked
    # or not: on an algebra the exchange always holds (both complements of
    # c are (n-1)c), and the stock cyclic elements all commute, so the
    # False answers come from tables that fail the axioms
    rng = random.Random(20261019)
    strong, holds = set(), set()
    for _ in range(6):
        for size, zero, one, table in stock_tables(rng):
            for mutated in [table] + [mutate(size, one, table, rng) for _ in range(3)]:
                E = FinitePea(size, zero, one, mutated, _validated=True)
                for n in range(1, size + 1):
                    cyclic = [a for a in E.elements() if E.times(n, a) == E.one]
                    assert cyclic_elements(E, n) == [
                        CyclicElement(a, n, commutes_by_scan(E, a)) for a in cyclic
                    ]
                    strong.update(commutes_by_scan(E, a) for a in cyclic)
                for c in E.elements():
                    try:
                        verdict = cyclic_exchange_check(E, c, max_order=size)
                    except PreconditionError:  # c is not cyclic
                        continue
                    witness = exchange_failure_by_scan(E, c)
                    assert verdict == ExchangeVerdict(witness is None, witness, exhaustive=True)
                    holds.add(verdict.holds)
    assert strong == holds == {False, True}


def test_exchange_requires_cyclic():
    E = IntervalPea(g.Lex(Q, Z), (f(1), f(0)))
    with pytest.raises(PreconditionError):
        cyclic_exchange_check(E, (Fraction(1, 3), f(5)), max_order=8)
