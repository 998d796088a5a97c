"""Command-line front end.

Every verb prints human-readable lines plus machine-readable lines prefixed
with ``#!`` carrying key=value verdicts and witnesses.  Runs are
deterministic given identical inputs and --seed, whose default is 0.
The exit code is 0 exactly when every requested verdict passes.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import re
import sys

from .decomp import (
    _level_state,
    check_ordered,
    check_type_i,
    classify_perfect,
    decomposition_from_state,
)
from .errors import OrdalgError, PreconditionError
from .parsing import (
    parse_descriptor,
    parse_element,
    parse_interval_pea,
    parse_pea_file,
    parse_spec,
    parse_subgroup,
)
from .pea import IntervalPea, ideals_enumerate
from .represent import (
    GroupHom,
    PhiMap,
    build_lex_pea,
    functor_map,
    make_shuffled,
    phi_represent,
    verify_isomorphism,
)
from .riesz import rdp_decompose, rdp_oracle_search, rdp_table_verify, rip_interpolate
from .scalars import format_scalar
from .states import FirstCoordinateState, states_finite


def _print_table(desc, a1, a2, b1, b2, table, out):
    fmt = desc.format_element
    rows = [
        (fmt(a1), fmt(table.c11), fmt(table.c12)),
        (fmt(a2), fmt(table.c21), fmt(table.c22)),
        ("", fmt(b1), fmt(b2)),
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    out.append(f"{rows[0][0]:>{widths[0]}} | {rows[0][1]:>{widths[1]}}  {rows[0][2]:>{widths[2]}}")
    out.append(f"{rows[1][0]:>{widths[0]}} | {rows[1][1]:>{widths[1]}}  {rows[1][2]:>{widths[2]}}")
    out.append("-" * widths[0] + "-+-" + "-" * (widths[1] + widths[2] + 2))
    out.append(f"{'':>{widths[0]}} | {rows[2][1]:>{widths[1]}}  {rows[2][2]:>{widths[2]}}")


def _machine(out, **kv):
    out.append("#! " + " ".join(f"{k}={v}" for k, v in kv.items()))


def _read_table(path):
    """The axiom verdict of a table file."""
    # newline="" keeps a lone "\r" inside its line, as parse_pea_file reads text
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        return parse_pea_file(fh.read())


def _read_algebra(path):
    """The algebra of a table file, which must pass the axioms."""
    verdict = _read_table(path)
    if not verdict.valid:
        raise OrdalgError(f"invalid algebra file: {verdict.failure}")
    return verdict.pea


def _read_pea_arg(value):
    """--pea accepts a gamma(...) descriptor or a path to a table file."""
    if re.match(r"\s*gamma\s*\(", value):
        return parse_interval_pea(value)
    return _read_algebra(value)


def cmd_check_axioms(args, out):
    verdict = _read_table(args.file)
    if verdict.valid:
        out.append(f"{args.file}: all axioms hold (n={verdict.pea.size})")
        _machine(out, verdict="pass", n=verdict.pea.size)
        return 0
    out.append(f"{args.file}: {verdict.failure}")
    _machine(
        out,
        verdict="fail",
        axiom=verdict.failure.axiom,
        witness=",".join(str(w) for w in verdict.failure.witness),
    )
    return 1


def cmd_states(args, out):
    vertices = states_finite(_read_algebra(args.file))
    out.append(f"extremal states: {len(vertices)}")
    for idx, s in enumerate(vertices):
        vals = " ".join(str(v) for v in s.values)
        out.append(f"  state {idx}: {vals}")
        _machine(out, state=idx, values=",".join(str(v) for v in s.values))
    _machine(out, verdict="pass", count=len(vertices))
    return 0


def cmd_ideals(args, out):
    report = ideals_enumerate(_read_algebra(args.file))
    out.append(f"ideals: {len(report.ideals)}")
    for info in report.ideals:
        members = ",".join(str(m) for m in sorted(info.members))
        flags = []
        if info.maximal:
            flags.append("maximal")
        if info.normal:
            flags.append("normal")
        out.append(f"  {{{members}}}" + (f"  [{' '.join(flags)}]" if flags else ""))
        _machine(out, ideal=members or "-", maximal=info.maximal, normal=info.normal)
    _machine(out, radical=",".join(str(m) for m in sorted(report.radical)))
    _machine(out, normal_radical=",".join(str(m) for m in sorted(report.normal_radical)))
    return 0


def cmd_check_rdp(args, out):
    desc = parse_descriptor(args.group)
    vals = [parse_element(desc, v) for v in (args.a1, args.a2, args.b1, args.b2)]
    a1, a2, b1, b2 = vals
    table = rdp_decompose(desc, a1, a2, b1, b2, level=args.level)
    _print_table(desc, a1, a2, b1, b2, table, out)
    res = rdp_table_verify(desc, a1, a2, b1, b2, table, level=args.level)
    side = f" side_condition={res.side_condition}" if res.side_condition else ""
    out.append(f"verification: {'valid' if res.ok else 'invalid'}{side}")
    _machine(
        out,
        verdict="pass" if res.ok else "fail",
        level=args.level,
        side=res.side_condition or "-",
    )
    code = 0 if res.ok else 1
    if args.oracle:
        oracle = rdp_oracle_search(desc, a1, a2, b1, b2, level=args.level, box=args.box)
        out.append(f"oracle: {'found' if oracle.found else 'not found'} (box {args.box})")
        # the oracle enumerates c11 inside the box only, so it must find a
        # table exactly when the solver's c11 lies there
        if any(desc.iter_bounded([table.c11], [table.c11], args.box)):
            agree = oracle.found
            if not agree:
                code = 1
        else:
            agree = "inconclusive"
            out.append(f"agreement: inconclusive, the solver's c11 = "
                       f"{desc.format_element(table.c11)} lies outside box {args.box}")
        _machine(out, oracle="found" if oracle.found else "absent", agree=agree)
    return code


def cmd_oracle_rdp(args, out):
    desc = parse_descriptor(args.group)
    vals = [parse_element(desc, v) for v in (args.a1, args.a2, args.b1, args.b2)]
    res = rdp_oracle_search(desc, *vals, level=args.level, box=args.box)
    if res.found:
        _print_table(desc, *vals, res.table, out)
        _machine(out, verdict="pass", oracle="found")
        return 0
    # every instance over the grammar's l-groups has a table, the meet
    # table, so a miss says only that the box did not reach one
    out.append(f"no table within box {args.box}: the search covers c11 inside --box only")
    _machine(out, verdict="inconclusive", oracle="absent")
    return 1


def cmd_interpolate(args, out):
    desc = parse_descriptor(args.group)
    vals = [parse_element(desc, v) for v in (args.a1, args.a2, args.b1, args.b2)]
    c = rip_interpolate(desc, *vals)
    out.append(f"interpolant: {desc.format_element(c)}")
    _machine(out, verdict="pass", c=desc.format_element(c).replace(" ", ""))
    return 0


def cmd_decompose(args, out):
    H = parse_subgroup(args.H)
    E = _read_pea_arg(args.pea)
    if isinstance(E, IntervalPea):
        D = decomposition_from_state(E, FirstCoordinateState(E), H)
        grid = [t for t in D.grid]
        out.append(f"symbolic slices over {H}: E_t = {{(t, g)}} on {len(grid)} grid points")
        ordered = check_ordered(E, D)
        type_i = check_type_i(E, D)
        out.append(f"ordered: {ordered.ordered}; type I: {type_i.is_type_i}")
        _machine(out, verdict="pass" if ordered.ordered and type_i.is_type_i else "fail",
                 slices=len(grid), ordered=ordered.ordered, type_i=type_i.is_type_i)
        return 0 if ordered.ordered and type_i.is_type_i else 1
    for s in _finite_candidates(E, H):
        try:
            D = decomposition_from_state(E, s, H)
        except OrdalgError:
            continue
        out.append(f"slices over {H}:")
        for t, members in D.slices:
            body = ",".join(str(m) for m in sorted(members))
            out.append(f"  E_{format_scalar(t)} = {{{body}}}")
        ordered = check_ordered(E, D)
        out.append(f"ordered: {ordered.ordered}")
        _machine(out, verdict="pass", slices=len(D.slices), ordered=ordered.ordered)
        return 0
    out.append(f"no decomposition over {H} from the order's levels or from an extremal state")
    _machine(out, verdict="fail", reason="no-valued-state")
    return 1


def _finite_candidates(E, H):
    """The level map over H, the one ordered decomposition if any (``decomp``),
    then the extremal states, enumerated only if they are reached."""
    level = _level_state(E, H)
    if level is not None:
        yield level
    yield from states_finite(E)


def cmd_classify_perfect(args, out):
    H = parse_subgroup(args.H)
    E = _read_pea_arg(args.pea)
    report = classify_perfect(E, H)
    flags = [
        ("h_perfect", report.is_h_perfect),
        ("directness", report.directness),
        ("cyclic_system", report.cyclic_system is not None),
        ("strong_cyclic", report.strong_cyclic),
        ("one_divisible", report.one_divisible),
        ("strong_one_divisible", report.strong_one_divisible),
        ("unique_roots", report.unique_roots),
        ("torsion_free", report.torsion_free),
        ("symmetric", report.symmetric),
        ("strong_h_perfect", report.is_strong_h_perfect),
    ]
    for name, value in flags:
        shown = "undetermined" if value is None else value
        out.append(f"{name}: {shown}")
    if report.missing_slice is not None:
        out.append(f"missing slice at t = {format_scalar(report.missing_slice)}")
    if report.first_divisibility_failure is not None:
        out.append(f"first divisibility failure at n = {report.first_divisibility_failure}")
    _machine(out, **{k: ("undetermined" if v is None else v) for k, v in flags})
    return 0


def cmd_represent(args, out):
    if args.shuffle is not None and args.g0 is not None:
        raise PreconditionError("--g0 and --shuffle cannot be combined: a shuffle re-encodes the unit (1, 0)")
    H = parse_subgroup(args.H)
    G = parse_descriptor(args.G)
    if args.shuffle is not None:
        E, _alpha = make_shuffled(H, G, parse_spec("shuffle", args.shuffle, G))
    elif args.g0 is not None:
        E = build_lex_pea(H, G, parse_element(G, args.g0))
    else:
        E = build_lex_pea(H, G)
    phi = phi_represent(E)
    if args.corrupt:
        phi = PhiMap(phi.source, phi.target, corrupt=True)
    report = verify_isomorphism(phi, E, phi.target, samples=args.samples, seed=args.seed)
    out.append(report.summary())
    out.append(f"isomorphism: {'clean' if report.clean else 'FAILED'}")
    _machine(
        out,
        verdict="pass" if report.clean else "fail",
        samples=report.sample_count,
        hom_failures=report.homomorphism_failures,
        inj_failures=report.injectivity_failures,
        order_failures=report.order_reflection_failures,
        surjectivity=f"{report.surjectivity_probes_hit}/{report.surjectivity_probes}",
    )
    return 0 if report.clean else 1


def cmd_functor(args, out):
    H = parse_subgroup(args.H)
    G = parse_descriptor(args.G)
    h = GroupHom(G, G, parse_spec("homomorphism", args.hom, G))
    # raises unless h passes the sampled homomorphism check
    functor_map(h, H, random.Random(args.seed), args.samples)
    # the identity lift returns its argument, and h after the identity lifts
    # to the lift of h, so both laws hold by construction
    out.append("identity law: True")
    out.append("composition law: True")
    _machine(out, verdict="pass", identity=True, composition=True)
    return 0


GRAMMAR_HELP = """\
grammars:
  subgroups     Z/1 | Z/n (the grid (1/n)Z) | Q | Q[sqrt d] (the lattice Z+Z*sqrt(d))
  descriptors   Z | Z/n | Z^k | Q | Q[sqrt d] | Aff | lex(A, B) | prod(A, B)
  algebras      gamma(DESC, UNIT) or a path to a table file
                (header `pea n=<size> zero=<id> one=<id>`, lines `add <i> <j> <k>`)
  elements      scalars as p/q or p/q + r/s*sqrt(d); composites as nested
                tuples, e.g. (1/2, (3, -4)); affine pairs as (a, b)
  shuffles      identity | permute(i,j,...) | translate(ELEMENT) | conjugate(ELEMENT)
  homomorphisms identity | scale(c) | permute(i,j,...), where permute reorders
                the k coordinates of a Z^k tail; the map is sampled once

Machine-readable verdict lines are prefixed with `#!`; the exit code is 0
exactly when all requested verdicts pass.
"""


def _count(low):
    """An argparse type: an integer of at least ``low``."""

    def count(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    return count


def _file_args(p):
    p.add_argument("file")


# the refinement instance; interpolate takes neither --level nor --box, and
# only check-rdp takes --oracle
def _instance_args(p, refine=True, oracle=True):
    p.add_argument("--group", required=True)
    if refine:
        p.add_argument("--level", default="rdp", choices=["rdp0", "rdp", "rdp1", "rdp2"])
    for name in ("--a1", "--a2", "--b1", "--b2"):
        p.add_argument(name, required=True)
    if oracle:
        p.add_argument("--oracle", action="store_true")
    if refine:
        p.add_argument("--box", type=_count(0), default=20)


def _slices_args(p):
    p.add_argument("--pea", required=True, help="gamma(DESC, UNIT) or a table file")
    p.add_argument("--H", required=True)
    p.add_argument("--seed", type=int, default=0)


def _represent_args(p):
    p.add_argument("--H", required=True)
    p.add_argument("--G", required=True)
    p.add_argument("--g0", default=None)
    p.add_argument("--shuffle", default=None)
    p.add_argument("--corrupt", action="store_true", help="negative control")
    p.add_argument("--samples", type=_count(1), default=300)
    p.add_argument("--seed", type=int, default=0)


def _functor_args(p):
    p.add_argument("--hom", required=True, help="identity | scale(c) | permute(i,j,...)")
    p.add_argument("--G", required=True)
    p.add_argument("--H", required=True)
    p.add_argument("--samples", type=_count(1), default=100)
    p.add_argument("--seed", type=int, default=0)


# verb -> (help, adds its arguments, handler), in the order of the help
# listing; main dispatches through it
VERBS = {
    "check-axioms": ("verify a finite algebra file", _file_args, cmd_check_axioms),
    "states": ("extremal states of a finite algebra file", _file_args, cmd_states),
    "ideals": ("ideals, flags and radicals of a finite algebra file", _file_args, cmd_ideals),
    "check-rdp": ("solve and verify a refinement instance", _instance_args, cmd_check_rdp),
    "oracle-rdp": ("exhaustive refinement search",
                   lambda p: _instance_args(p, oracle=False), cmd_oracle_rdp),
    "interpolate": ("find c with a1, a2 <= c <= b1, b2",
                    lambda p: _instance_args(p, False, False), cmd_interpolate),
    "decompose": ("slice decomposition of an algebra", _slices_args, cmd_decompose),
    "classify-perfect": ("perfectness flag report", _slices_args, cmd_classify_perfect),
    "represent": ("verify the representation isomorphism", _represent_args, cmd_represent),
    "functor": ("functor-law checks for a lifted homomorphism", _functor_args, cmd_functor),
}


def _usage_words(action):
    """One argument's words in a usage line: ``[-h]``, ``--a1`` and ``A1``,
    ``file``, or the verb list and ``...``."""
    metavar = action.metavar or (
        "{" + ",".join(action.choices) + "}" if action.choices
        else action.dest.upper() if action.option_strings else action.dest
    )
    if not action.option_strings:
        return [metavar, "..."] if action.nargs == argparse.PARSER else [metavar]
    words = [action.option_strings[0]] + ([metavar] if action.nargs != 0 else [])
    return words if action.required else ["[" + " ".join(words) + "]"]


def _usage(prog, actions, width):
    """The usage text after ``usage: ``, wrapped between words to ``width``.

    The options (every parser has ``-h``) follow ``prog``, and the
    positionals start a line of their own; a ``prog`` wider than three
    quarters of the width stands alone.  This is argparse's rule up to
    Python 3.12.  3.13 keeps an option with its value and the verb list with
    its ``...``, so the package wraps its usage itself, the same on every
    interpreter.
    """
    options = [w for a in actions if a.option_strings for w in _usage_words(a)]
    positionals = [w for a in actions if not a.option_strings for w in _usage_words(a)]
    text = " ".join([prog, *options, *positionals])
    start = len("usage: ")
    if start + len(text) <= width:
        return text
    short = start + len(prog) <= 0.75 * width
    indent = start + len(prog) + 1 if short else start

    def fill(words, column):
        lines, used = [[]], column - 1
        for word in words:
            if lines[-1] and used + 1 + len(word) > width:
                lines.append([])
                used = indent - 1
            lines[-1].append(word)
            used += len(word) + 1
        return [" ".join(line) for line in lines if line]

    if short:
        lines = fill([prog] + options, start) + fill(positionals, indent)
    else:
        lines = fill(options + positionals, indent)
        if len(lines) > 1:
            lines = fill(options, indent) + fill(positionals, indent)
        lines = [prog] + lines
    return f"\n{' ' * indent}".join(lines)


class _Formatter(argparse.RawDescriptionHelpFormatter):
    """argparse's help with the usage text of :func:`_usage`."""

    def add_usage(self, usage, actions, groups, prefix=None):
        if usage is None and prefix is None:
            usage = _usage(self._prog, actions, self._width)
        super().add_usage(usage, actions, groups, prefix)


def build_parser():
    """The parser holding every verb; main asks it only for the top-level messages."""
    parser = argparse.ArgumentParser(
        prog="ordalg",
        description="Exact checks for ordered groups, refinement tables, "
        "pseudo effect algebras, slice decompositions and representations.",
        epilog=GRAMMAR_HELP,
        formatter_class=_Formatter,
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (help_text, add_arguments, _handler) in VERBS.items():
        add_arguments(sub.add_parser(name, help=help_text, formatter_class=_Formatter))
    return parser


@functools.cache
def _verb_parser(verb):
    """The parser of one verb alone."""
    parser = argparse.ArgumentParser(prog=f"ordalg {verb}", formatter_class=_Formatter)
    VERBS[verb][1](parser)
    return parser


def _parse_args(argv):
    """argv read by the parser of its verb, which prints that verb's help and errors.

    Each verb's parser is built once per process and reused, since parsing
    leaves it unchanged and argparse reads COLUMNS only when it prints.  A
    missing or unknown verb and leftover arguments go to build_parser, which
    prints them as the parser of every verb and is built afresh each time.
    """
    if argv and argv[0] in VERBS:
        parser = _verb_parser(argv[0])
        args, extra = parser.parse_known_args(argv[1:], argparse.Namespace(verb=argv[0]))
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    out = []
    try:
        args = _parse_args(argv)
        code = VERBS[args.verb][2](args, out)
    except (OrdalgError, OSError, UnicodeDecodeError) as err:
        out.append(f"error: {err}")
        out.append(f"#! verdict=error message={str(err).replace(' ', '_')}")
        code = 2
    try:
        print("\n".join(out), flush=True)
    except BrokenPipeError:
        # a reader that closed early (``ordalg ... | head``): point stdout at
        # devnull so that the exit flush stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    return code


if __name__ == "__main__":
    sys.exit(main())
