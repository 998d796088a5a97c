"""The four seeded workloads and their answer checks.

Each workload turns a seed into a corpus: a list of rounds, each round a
shuffled list of ops.  An op is one verdict: ``call()`` asks the package
(timed), ``check(result)`` judges the answer with the benchmark's own
arithmetic from :mod:`models` (untimed) and returns ``(ok, verdict_text)``.
Rounds mix the op kinds in fixed proportions, so stopping at a round
boundary keeps every run's mix the same.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
from fractions import Fraction

from models import (
    AffModel,
    LexModel,
    ProdModel,
    ScalarModel,
    VecModel,
    axiom_violated,
    boolean_table,
    chain_table,
    format_table,
    hsum_table,
    instance_from_table,
    is_additive,
    leq,
    relabel,
    table_errors,
)


class Op:
    __slots__ = ("kind", "text", "call", "check")

    def __init__(self, kind, text, call, check):
        self.kind = kind  # op kind label, e.g. "refine:lexZZ"
        self.text = text  # canonical input text, hashed into the corpus digest
        self.call = call
        self.check = check


class Api:
    """The package modules an op calls, looked up at call time so tracing can patch them."""

    def __init__(self):
        from ordalg import cli, groups as g, riesz, scalars

        self.cli, self.g, self.riesz, self.scalars = cli, g, riesz, scalars
        z2 = g.IntVector(2)
        self.descriptors = {
            "lexZZ": g.Lex(g.ZZ, g.ZZ),
            "lexZZ2": g.Lex(g.ZZ, z2),
            "lexQZ2": g.Lex(g.QQ, z2),
            "lexQ2Z2": g.Lex(g.Scalar(scalars.ScalarSubgroup.quadratic(2)), z2),
            "aff": g.AffineQ(),
            "prodZZ2": g.Product(g.ZZ, z2),
            "Z2": z2,
            "prodZZ": g.Product(g.ZZ, g.ZZ),
        }


Z, Q, Q2 = ScalarModel("Z"), ScalarModel("Q"), ScalarModel("Q2")
V2 = VecModel(2)


def to_prog(api, model, x):
    """Canonical value -> the package's value type."""
    if isinstance(model, ScalarModel) and model.kind == "Q2":
        return api.scalars.QuadraticNumber(x[0], x[1], 2)
    if isinstance(model, LexModel):
        return (to_prog(api, model.top, x[0]), to_prog(api, model.bottom, x[1]))
    if isinstance(model, ProdModel):
        return (to_prog(api, model.left, x[0]), to_prog(api, model.right, x[1]))
    return x


MODELS = {
    "lexZZ": LexModel(Z, Z),
    "lexZZ2": LexModel(Z, V2),
    "lexQZ2": LexModel(Q, V2),
    "lexQ2Z2": LexModel(Q2, V2),
    "aff": AffModel(),
    "prodZZ2": ProdModel(Z, V2),
    "Z2": V2,
    "prodZZ": ProdModel(Z, Z),
}


def _random_table(model, rng, bound):
    """Four positive entries whose off-diagonal pair commutes (one is 0 on Aff)."""
    c = [model.sample_pos(rng, bound) for _ in range(4)]
    if isinstance(model, AffModel):
        c[1 + rng.randrange(2)] = model.zero()
    return c


# ---------------------------------------------------------------------------
# refine: constructive solver stream

# (family, level, instance bound, ops per round).  Counts balance the round by
# time: a quadratic-head op costs about eight discrete ones.
REFINE_FAMILIES = (
    ("lexZZ", "rdp1", 20, 24),
    ("lexZZ2", "rdp1", 20, 24),
    ("lexQZ2", "rdp", 20, 24),
    ("lexQ2Z2", "rdp", 8, 3),
    ("aff", "rdp2", 9, 24),
    ("prodZZ2", "rdp2", 20, 24),
)
# rip_interpolate queries per round, on non-linear families
INTERP_FAMILIES = (("lexZZ2", 20, 4), ("lexQZ2", 20, 4), ("prodZZ2", 20, 4))
REFINE_ROUNDS = 60


def _refine_op(api, name, level, inst_c):
    model, desc = MODELS[name], api.descriptors[name]
    inst = tuple(to_prog(api, model, x) for x in inst_c)
    riesz = api.riesz
    side_expected = "holds" if level in ("rdp1", "rdp2") else None

    def call():
        table = riesz.rdp_decompose(desc, *inst, level=level)
        return table, riesz.rdp_table_verify(desc, *inst, table, level=level)

    def check(result):
        table, res = result
        entries = tuple(model.canon(c) for c in table.entries())
        errors = table_errors(model, inst_c, entries)
        ok = res.ok and res.side_condition == side_expected and not errors
        return ok, f"{entries!r} {res.ok} {res.side_condition} {errors}"

    return Op(f"refine:{name}", f"rdp {name} {level} {inst_c!r}", call, check)


def _interp_op(api, name, lows, highs):
    model, desc = MODELS[name], api.descriptors[name]
    args = tuple(to_prog(api, model, x) for x in lows + highs)

    def call():
        return api.riesz.rip_interpolate(desc, *args)

    def check(c):
        c = model.canon(c)
        ok = all(leq(model, lo, c) for lo in lows) and all(leq(model, c, hi) for hi in highs)
        return ok, repr(c)

    return Op(f"refine:rip:{name}", f"rip {name} {lows!r} {highs!r}", call, check)


def build_refine(api, seed, count=REFINE_ROUNDS):
    rng = random.Random(f"refine-{seed}")
    rounds = []
    for _ in range(count):
        ops = []
        for name, level, bound, count in REFINE_FAMILIES:
            model = MODELS[name]
            for _ in range(count):
                table_c = _random_table(model, rng, bound)
                inst_c = instance_from_table(model, *table_c)
                ops.append(_refine_op(api, name, level, inst_c))
        for name, bound, count in INTERP_FAMILIES:
            model = MODELS[name]
            for _ in range(count):
                centre = model.sample(rng, bound)
                lows = tuple(model.add(centre, model.neg(model.sample_pos(rng, bound))) for _ in range(2))
                highs = tuple(model.add(centre, model.sample_pos(rng, bound)) for _ in range(2))
                ops.append(_interp_op(api, name, lows, highs))
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


# ---------------------------------------------------------------------------
# oracle: exhaustive refinement search

# The search walks c11 upwards from 0, first coordinate outermost, and only
# the first coordinate decides how long it takes.  On an instance built from
# a table with c11 first coordinate d and c22 first coordinate 0, it must
# pass d whole levels of that coordinate before a table exists.  Fixing the
# depths per round fixes the round's cost profile, so seeds differ only in
# the data they draw, not in how much searching they ask for.
ORACLE_FAMILIES = (
    # family, box, instance bound, depths (one op each)
    ("lexZZ", 60, 20, (0, 0, 1, 2, 3, 5, 8, 12)),
    ("lexZZ2", 20, 6, (0, 0, 1)),
    ("Z2", 60, 20, (0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 6, 6, 8, 8, 12, 12)),
    ("prodZZ", 60, 20, (0, 1, 2, 3, 4, 6, 8, 12)),
)
ORACLE_ROUNDS = 40


def _oracle_op(api, name, box, inst_c, depth):
    model, desc = MODELS[name], api.descriptors[name]
    inst = tuple(to_prog(api, model, x) for x in inst_c)

    def call():
        return api.riesz.rdp_oracle_search(desc, *inst, box=box)

    def check(res):
        if not res.found:
            return False, "absent"
        entries = tuple(model.canon(c) for c in res.table.entries())
        errors = table_errors(model, inst_c, entries)
        return not errors, f"{entries!r} {errors}"

    return Op(f"oracle:{name}:d{depth}", f"oracle {name} box={box} {inst_c!r}", call, check)


def _lex_table_at_depth(model, rng, bound, depth):
    bottom = model.bottom
    c11 = (Fraction(depth), bottom.sample(rng, bound) if depth else bottom.sample_pos(rng, bound))
    c12 = model.sample_pos(rng, bound)
    c21 = model.sample_pos(rng, bound)
    c22 = (Fraction(0), bottom.sample_pos(rng, bound))
    return c11, c12, c21, c22


def _pair_table_at_depth(model, rng, bound, depth):
    """Z^2 or prod(Z, Z): the second coordinate ranges over exactly [0, bound]
    at every skipped level, and the first candidate at level d is a table."""
    y11 = rng.randint(0, bound)
    y12, y21 = bound - y11 + rng.randint(0, bound), bound - y11
    if rng.random() < 0.5:
        y12, y21 = y21, y12
    rows = ((depth, y11), (rng.randint(0, bound), y12), (rng.randint(0, bound), y21),
            (0, y11 + rng.randint(0, bound)))
    if isinstance(model, ProdModel):
        return tuple((Fraction(x), Fraction(y)) for x, y in rows)
    return rows


def build_oracle(api, seed, count=ORACLE_ROUNDS):
    rng = random.Random(f"oracle-{seed}")
    rounds = []
    for _ in range(count):
        ops = []
        for name, box, bound, depths in ORACLE_FAMILIES:
            model = MODELS[name]
            make = _lex_table_at_depth if isinstance(model, LexModel) else _pair_table_at_depth
            for depth in depths:
                inst_c = instance_from_table(model, *make(model, rng, bound, depth))
                ops.append(_oracle_op(api, name, box, inst_c, depth))
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


# ---------------------------------------------------------------------------
# CLI helpers


def run_cli(api, argv):
    """cli.main with captured stdout; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = api.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def machine_lines(out):
    """The ``#!`` key=value lines as dicts."""
    rows = []
    for line in out.splitlines():
        if line.startswith("#! "):
            rows.append(dict(p.split("=", 1) for p in line[3:].split(" ") if "=" in p))
    return rows


def _cli_op(api, kind, argv, judge):
    def call():
        return run_cli(api, argv)

    def check(result):
        code, out = result
        try:
            ok = judge(code, out, machine_lines(out))
        except (KeyError, ValueError, IndexError):
            ok = False
        return bool(ok), f"{code}\n{out}"

    return Op(kind, " ".join(argv), call, check)


# ---------------------------------------------------------------------------
# finite: table files through the CLI


def _structure(kind, size):
    return {"chain": chain_table, "bool": boolean_table, "hsum": hsum_table}[kind](size)


def _expected_states(kind, size):
    """The extremal states as tuples of values indexed by element."""
    if kind == "chain":
        return {tuple(Fraction(k, size) for k in range(size + 1))}
    if kind == "bool":
        n = 1 << size
        return {tuple(Fraction(int(bool(x >> i & 1))) for x in range(n)) for i in range(size)}
    states = set()
    for picks in itertools.product((0, 1), repeat=size):
        vals = [Fraction(0), Fraction(1)]
        for p in picks:
            vals += [Fraction(p), Fraction(1 - p)]
        states.add(tuple(vals))
    return states


def _expected_ideals(kind, size):
    """The ideals as frozensets of elements."""
    if kind == "chain":
        return {frozenset([0]), frozenset(range(size + 1))}
    if kind == "bool":
        n = 1 << size
        return {frozenset(x for x in range(n) if x & ~top == 0) for top in range(n)}
    ideals = {frozenset(range(2 + 2 * size))}
    for picks in itertools.product((None, 0, 1), repeat=size):
        members = {0}
        for i, p in enumerate(picks):
            if p is not None:
                members.add(2 + 2 * i + p)
        ideals.add(frozenset(members))
    return ideals


def _mutate(structure, rng, how):
    """A table that provably breaks an axiom, with the reason why.

    del-zero removes 0 + x, so x + 0 = x has no left shift (PE3);
    del-complement removes a + a' = 1, leaving a without a right complement
    (PE2); add-one defines 1 + x for x != 0 (PE4).
    """
    size, zero, one, table = structure
    table = dict(table)
    if how == "del-zero":
        x = rng.choice([x for x in range(size) if x != zero])
        del table[(zero, x)]
    elif how == "del-complement":
        pairs = [(a, b) for (a, b), s in table.items() if s == one and zero not in (a, b)]
        del table[rng.choice(pairs)]
    else:
        x = rng.choice([x for x in range(size) if x != zero])
        table[(one, x)] = rng.randrange(size)
    return size, zero, one, table


FINITE_VALID = (("chain", 2), ("chain", 4), ("chain", 8), ("chain", 16), ("chain", 32),
                ("chain", 63), ("bool", 3), ("bool", 4), ("bool", 5), ("bool", 6))
FINITE_VALID += tuple(("hsum", k) for k in range(3, 8))
# Mutated tables stay at n <= 33: where the scan meets the broken entry is
# seeded, and above that size the spread of their cost reaches the cost of the
# kernel ops that set the tail percentile.
FINITE_MUTATION_BASES = (("chain", 3), ("chain", 6), ("chain", 9), ("chain", 12), ("chain", 24),
                         ("chain", 32), ("bool", 2), ("bool", 3), ("bool", 4), ("bool", 5))
FINITE_MUTATION_BASES += tuple(("hsum", k) for k in range(2, 8))
FINITE_MUTATIONS = ("del-zero", "del-complement", "add-one")
# States stop at 2^5 and the 6-cube: 2^6 and the 7-cube take seconds each, and
# the speed gauge (speed.py) samples only between ops, so one op that long
# can span a change in machine speed that its scaling then misses.
FINITE_STATES = (("chain", 4), ("chain", 8), ("chain", 16), ("chain", 24), ("bool", 2),
                 ("bool", 3), ("bool", 4), ("bool", 5)) + tuple(("hsum", k) for k in range(2, 7))
FINITE_IDEALS = (("chain", 16), ("chain", 32), ("bool", 3), ("bool", 4), ("bool", 5),
                 ("hsum", 3), ("hsum", 4), ("hsum", 5))
FINITE_DECOMPOSE = (("chain", 8), ("chain", 12), ("bool", 3), ("bool", 4), ("hsum", 3), ("hsum", 4))
FINITE_CLASSIFY = (("chain", 8), ("chain", 12), ("chain", 20), ("bool", 3), ("bool", 4),
                   ("hsum", 3), ("hsum", 4))


class TableFiles:
    """Writes table files into one directory and hands out their names."""

    def __init__(self, directory):
        self.directory = directory
        self.count = 0

    def write(self, structure):
        name = f"t{self.count:04d}.pea"
        self.count += 1
        with open(os.path.join(self.directory, name), "w", encoding="utf-8") as fh:
            fh.write(format_table(structure))
        return name


def _renamed(rng, kind, size):
    """The structure with its elements renamed by a seeded permutation.

    Only the mutated tables are renamed.  The other ops keep the natural
    labels, because their cost depends on the labelling: the double
    description pass inserts facets in label order, and a renaming alone
    moves the cost of the 2^6 state polytope by a factor of two, which would
    make one seed's run incomparable with another's.
    """
    base = _structure(kind, size)
    perm = list(range(base[0]))
    rng.shuffle(perm)
    return relabel(base, perm)


def _sets_by_label(rows, key):
    return [frozenset(int(m) for m in row[key].split(",")) if row[key] != "-" else frozenset()
            for row in rows if key in row]


def _finite_ops(api, rng, files, plan):
    ops = []

    def add(kind, argv, judge):
        ops.append(_cli_op(api, kind, argv, judge))

    for kind, size in plan["valid"]:
        s = _structure(kind, size)
        n = s[0]
        add(f"finite:check-axioms:{kind}", ["check-axioms", files.write(s)],
            lambda code, out, rows, n=n: code == 0 and rows[-1] == {"verdict": "pass", "n": str(n)})

    for (kind, size), how in plan["mutated"]:
        bad = _mutate(_renamed(rng, kind, size), rng, how)

        def judge(code, out, rows, bad=bad):
            row = rows[-1]
            witness = tuple(int(w) for w in row["witness"].split(","))
            return code == 1 and row["verdict"] == "fail" and axiom_violated(row["axiom"], bad, witness)

        add(f"finite:check-axioms:mutated:{how}", ["check-axioms", files.write(bad)], judge)

    for kind, size in plan["states"]:
        s = _structure(kind, size)
        expected = _expected_states(kind, size)

        def judge(code, out, rows, expected=expected):
            got = [tuple(Fraction(v) for v in row["values"].split(",")) for row in rows if "state" in row]
            count_ok = rows[-1]["count"] == str(len(expected))
            return code == 0 and count_ok and len(got) == len(expected) and set(got) == expected

        cube = "cube" if kind == "hsum" else "solve"
        add(f"finite:states:{cube}:{kind}{size}", ["states", files.write(s)], judge)

    for kind, size in plan["ideals"]:
        s = _structure(kind, size)
        expected = _expected_ideals(kind, size)

        def judge(code, out, rows, expected=expected):
            got = _sets_by_label(rows, "ideal")
            return code == 0 and len(got) == len(expected) and set(got) == expected

        add(f"finite:ideals:{kind}", ["ideals", files.write(s)], judge)

    for kind, size in plan["decompose"]:
        s = _structure(kind, size)
        H = f"Z/{size}" if kind == "chain" else "Z/1"

        def judge(code, out, rows, s=s, kind=kind, size=size):
            values = [None] * s[0]
            for line in out.splitlines():
                line = line.strip()
                if line.startswith("E_") and " = {" in line:
                    t, members = line[2:].split(" = {", 1)
                    for m in members.rstrip("}").split(","):
                        values[int(m)] = Fraction(t)
            slices = (size + 1) if kind == "chain" else 2
            return (code == 0 and rows[-1]["verdict"] == "pass" and rows[-1]["slices"] == str(slices)
                    and None not in values and is_additive(s, values))

        add(f"finite:decompose:{kind}", ["decompose", "--pea", files.write(s), "--H", H], judge)

    for kind, size in plan["classify"]:
        s = _structure(kind, size)
        H = f"Z/{size}" if kind == "chain" else "Z/1"
        # a chain of n+1 elements is the interval [0, n] of Z: (1/n)Z-perfect;
        # 2^k and horizontal sums (k >= 2) have incomparable elements across
        # the 0 and 1 slices, so they are not Z-perfect
        want = "True" if kind == "chain" else "False"

        def judge(code, out, rows, want=want):
            row = rows[-1]
            return (code == 0 and row["h_perfect"] == want and row["strong_h_perfect"] == want
                    and row["symmetric"] == "True")

        add(f"finite:classify:{kind}", ["classify-perfect", "--pea", files.write(s), "--H", H,
                                        "--seed", str(rng.randrange(1 << 16))], judge)
    return ops


def build_finite(api, seed, files):
    rng = random.Random(f"finite-{seed}")
    mutated = [(base, how) for base in FINITE_MUTATION_BASES for how in FINITE_MUTATIONS] * 2
    plan = {"valid": FINITE_VALID, "mutated": mutated, "states": FINITE_STATES,
            "ideals": FINITE_IDEALS, "decompose": FINITE_DECOMPOSE, "classify": FINITE_CLASSIFY}
    ops = _finite_ops(api, rng, files, plan)
    rng.shuffle(ops)
    return [ops]


# ---------------------------------------------------------------------------
# interval: interval algebras through the CLI

REPRESENT_CASES = (
    ("Q", "Z", "identity"),
    ("Q", "Z^2", "permute(1,0)"),
    ("Z/4", "Z", "translate(1)"),
    ("Q[sqrt 2]", "Z^2", "permute(1,0)"),
)
# (algebra, H, expected flags); the flags follow from the unit: (1, 0) over a
# Z^2 tail is strongly perfect, (1, 1) over Z is not strongly 1-divisible,
# and over Aff the unit (1, (1, 0)) is central while (1, (2, 0)) is not
CLASSIFY_CASES = (
    ("gamma(lex(Q, Z^2), (1, (0, 0)))", "Q", {"h_perfect": "True", "strong_h_perfect": "True"}),
    ("gamma(lex(Q, Z), (1, 1))", "Q", {"h_perfect": "True", "strong_one_divisible": "False"}),
    ("gamma(lex(Z, Aff), (1, (2, 0)))", "Z/1",
     {"h_perfect": "True", "strong_cyclic": "False", "symmetric": "False"}),
    ("gamma(lex(Z, Aff), (1, (1, 0)))", "Z/1",
     {"h_perfect": "True", "strong_cyclic": "True", "symmetric": "True"}),
)
DECOMPOSE_CASES = (
    ("gamma(lex(Z/4, Z), (1, 0))", "Z/4", "5"),
    ("gamma(lex(Q, Z^2), (1, (0, 0)))", "Q", None),
    ("gamma(lex(Z, Aff), (1, (1, 0)))", "Z/1", None),
)
FUNCTOR_CASES = (("scale(2)", "Z", "Q"), ("permute(1,0)", "Z^2", "Q"), ("scale(3)", "Z^2", "Z/2"))
INTERVAL_ROUNDS = 7
REPRESENT_SAMPLES = 100


def _interval_ops(api, rng, samples):
    ops = []

    def seed():
        return str(rng.randrange(1 << 16))

    def clean(code, out, rows, n=samples):
        row = rows[-1]
        probes = row["surjectivity"].split("/")
        return (code == 0 and row["verdict"] == "pass" and row["samples"] == str(n)
                and row["hom_failures"] == "0" and row["inj_failures"] == "0"
                and row["order_failures"] == "0" and probes[0] == probes[1])

    for H, G, shuffle in REPRESENT_CASES:
        argv = ["represent", "--H", H, "--G", G, "--shuffle", shuffle,
                "--samples", str(samples), "--seed", seed()]
        ops.append(_cli_op(api, f"interval:represent:{H}", argv, clean))

    def corrupted(code, out, rows):
        # negative control: dropping the cyclic-entry subtraction breaks additivity
        return code == 1 and rows[-1]["verdict"] == "fail" and int(rows[-1]["hom_failures"]) > 0

    argv = ["represent", "--H", "Z/4", "--G", "Z", "--shuffle", "translate(1)", "--corrupt",
            "--samples", str(samples), "--seed", seed()]
    ops.append(_cli_op(api, "interval:represent:corrupt", argv, corrupted))

    for pea, H, flags in CLASSIFY_CASES:
        def judge(code, out, rows, flags=flags):
            return code == 0 and all(rows[-1][k] == v for k, v in flags.items())

        argv = ["classify-perfect", "--pea", pea, "--H", H, "--seed", seed()]
        ops.append(_cli_op(api, "interval:classify", argv, judge))

    for pea, H, slices in DECOMPOSE_CASES:
        def judge(code, out, rows, slices=slices):
            row = rows[-1]
            return code == 0 and row["verdict"] == "pass" and slices in (None, row["slices"])

        argv = ["decompose", "--pea", pea, "--H", H, "--seed", seed()]
        ops.append(_cli_op(api, "interval:decompose", argv, judge))

    for hom, G, H in FUNCTOR_CASES:
        def judge(code, out, rows):
            return code == 0 and rows[-1] == {"verdict": "pass", "identity": "True",
                                              "composition": "True"}

        argv = ["functor", "--hom", hom, "--G", G, "--H", H, "--seed", seed()]
        ops.append(_cli_op(api, "interval:functor", argv, judge))
    return ops


def build_interval(api, seed):
    rng = random.Random(f"interval-{seed}")
    rounds = []
    for _ in range(INTERVAL_ROUNDS):
        ops = _interval_ops(api, rng, REPRESENT_SAMPLES)
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


# ---------------------------------------------------------------------------
# warm-up: one small op of each kind, untimed


def warmup_ops(api, workload, files):
    rng = random.Random(f"warmup-{workload}")
    if workload == "refine":
        ops = {}
        for op in build_refine(api, "warmup", 1)[0]:
            ops.setdefault(op.kind, op)
        return list(ops.values())
    if workload == "oracle":
        ops = {}
        for op in build_oracle(api, "warmup", 1)[0]:
            if op.kind.endswith(":d0"):
                ops.setdefault(op.kind, op)
        return list(ops.values())
    if workload == "finite":
        plan = {"valid": (("chain", 3),), "mutated": ((("chain", 3), "del-zero"),),
                "states": (("chain", 3), ("hsum", 2)), "ideals": (("bool", 2),),
                "decompose": (("chain", 3),), "classify": (("chain", 3),)}
        return _finite_ops(api, rng, files, plan)
    ops = {}
    for op in _interval_ops(api, rng, 10):
        ops.setdefault(op.kind, op)
    return list(ops.values())


BUILDERS = {
    "refine": lambda api, seed, files: build_refine(api, seed),
    "oracle": lambda api, seed, files: build_oracle(api, seed),
    "finite": build_finite,
    "interval": lambda api, seed, files: build_interval(api, seed),
}


# ---------------------------------------------------------------------------
# checker self-test: answers known to be wrong


class _Table:
    def __init__(self, entries):
        self._entries = entries

    def entries(self):
        return self._entries


class _Found:
    def __init__(self, found, table=None):
        self.found, self.table = found, table


class _Verified:
    ok, side_condition = True, "holds"


class _MemoryFiles:
    """TableFiles stand-in that keeps the structures instead of writing them."""

    def __init__(self):
        self.written = []

    def write(self, structure):
        self.written.append(structure)
        return f"mem{len(self.written)}.pea"


def wrong_answers(api):
    """(op, result) pairs whose result is wrong; the checks must reject each one."""
    cases = []
    model = MODELS["lexZZ"]
    rng = random.Random("selftest")
    table_c = _random_table(model, rng, 20)
    inst_c = instance_from_table(model, *table_c)
    op = _refine_op(api, "lexZZ", "rdp1", inst_c)
    shifted = model.add(table_c[0], (Fraction(0), Fraction(1)))
    wrong = [to_prog(api, model, c) for c in (shifted,) + tuple(table_c[1:])]
    cases.append((op, (_Table(tuple(wrong)), _Verified())))

    op = _oracle_op(api, "lexZZ", 60, inst_c, 0)
    cases.append((op, _Found(False)))

    lows = ((Fraction(0), (0, 0)), (Fraction(0), (1, 0)))
    highs = ((Fraction(1), (0, 0)), (Fraction(1), (5, 5)))
    op = _interp_op(api, "lexZZ2", lows, highs)
    cases.append((op, (Fraction(2), (0, 0))))

    files = _MemoryFiles()
    plan = {"valid": (), "mutated": ((("chain", 4), "del-zero"),), "states": (("chain", 4),),
            "ideals": (), "decompose": (), "classify": ()}
    mutated_op, states_op = _finite_ops(api, random.Random("selftest"), files, plan)
    bad = files.written[0]
    zero = bad[1]
    cases.append((mutated_op, (0, f"#! verdict=pass n={bad[0]}\n")))
    cases.append((mutated_op, (1, f"#! verdict=fail axiom=PE1 witness={zero},{zero},{zero}\n")))
    chain = files.written[1]
    even = ",".join("1/5" for _ in range(chain[0]))
    cases.append((states_op, (0, f"#! state=0 values={even}\n#! verdict=pass count=1\n")))

    corrupt = next(op for op in _interval_ops(api, random.Random("selftest"), 10)
                   if op.kind == "interval:represent:corrupt")
    cases.append((corrupt, (0, "#! verdict=pass samples=10 hom_failures=0 inj_failures=0 "
                               "order_failures=0 surjectivity=10/10\n")))
    return cases
