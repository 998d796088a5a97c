"""Command-line front end.

Every verb prints human-readable lines plus machine-readable lines prefixed
with ``#!`` carrying key=value verdicts and witnesses.  Runs are
deterministic given identical inputs and --seed (ORDALG_SEED is the
fallback seed source).  The exit code is 0 exactly when every requested
verdict passes.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys

from .decomp import (
    check_ordered,
    check_type_i,
    classify_perfect,
    decomposition_from_state,
)
from .errors import OrdalgError, ParseError, PreconditionError
from .parsing import (
    parse_descriptor,
    parse_element,
    parse_interval_pea,
    parse_pea_file,
    parse_subgroup,
)
from .pea import IntervalPea, ideals_enumerate
from .represent import (
    GroupHom,
    PeaHom,
    PhiMap,
    build_lex_pea,
    functor_map,
    hom_compose,
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


def _read_pea_arg(value):
    """--pea accepts a gamma(...) descriptor or a path to a table file."""
    if re.match(r"\s*gamma\s*\(", value):
        return parse_interval_pea(value)
    with open(value, "r", encoding="utf-8") as fh:
        verdict = parse_pea_file(fh.read())
    if not verdict.valid:
        raise OrdalgError(f"invalid algebra file: {verdict.failure}")
    return verdict.pea


def cmd_check_axioms(args, out):
    with open(args.file, "r", encoding="utf-8") as fh:
        verdict = parse_pea_file(fh.read())
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
    verdict = _read_pea_arg(args.file)
    vertices = states_finite(verdict)
    out.append(f"extremal states: {len(vertices)}")
    for idx, s in enumerate(vertices):
        vals = " ".join(str(v) for v in s.values)
        out.append(f"  state {idx}: {vals}")
        _machine(out, state=idx, values=",".join(str(v) for v in s.values))
    _machine(out, verdict="pass", count=len(vertices))
    return 0


def cmd_ideals(args, out):
    E = _read_pea_arg(args.file)
    report = ideals_enumerate(E)
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
        agree = oracle.found  # the solver produced a table, so both must succeed
        out.append(f"oracle: {'found' if oracle.found else 'not found'} (box {args.box})")
        _machine(out, oracle="found" if oracle.found else "absent", agree=agree)
        if not agree:
            code = 1
    return code


def cmd_oracle_rdp(args, out):
    desc = parse_descriptor(args.group)
    vals = [parse_element(desc, v) for v in (args.a1, args.a2, args.b1, args.b2)]
    res = rdp_oracle_search(desc, *vals, level=args.level, box=args.box)
    if res.found:
        _print_table(desc, *vals, res.table, out)
        _machine(out, verdict="pass", oracle="found")
        return 0
    out.append(f"no table within box {args.box}")
    _machine(out, verdict="fail", oracle="absent")
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
    candidates = states_finite(E)
    for s in candidates:
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
    out.append(f"no {H}-valued state on this algebra")
    _machine(out, verdict="fail", reason="no-valued-state")
    return 1


def cmd_classify_perfect(args, out):
    H = parse_subgroup(args.H)
    E = _read_pea_arg(args.pea)
    report = classify_perfect(E, H, seed=args.seed)
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


def _int_args(text, name):
    """The integers i, j, ... of ``name(i,j,...)``."""
    inner = text[len(name) + 1 : -1]
    try:
        return tuple(int(p) for p in inner.split(","))
    except ValueError:
        raise ParseError(
            f"{name}(...) takes integers, got {inner!r}", column=len(name) + 2
        ) from None


def _parse_shuffle(spec_text, G):
    text = spec_text.strip()
    if text == "identity":
        return ("identity",)
    if text.startswith("permute(") and text.endswith(")"):
        return ("permute", _int_args(text, "permute"))
    if text.startswith("translate(") and text.endswith(")"):
        return ("translate", parse_element(G, text[len("translate(") : -1]))
    if text.startswith("conjugate(") and text.endswith(")"):
        return ("conjugate", parse_element(G, text[len("conjugate(") : -1]))
    raise OrdalgError(f"unknown shuffle spec {spec_text!r}")


def cmd_represent(args, out):
    H = parse_subgroup(args.H)
    G = parse_descriptor(args.G)
    if args.shuffle:
        spec = _parse_shuffle(args.shuffle, G)
        E, _alpha = make_shuffled(H, G, spec)
    elif args.g0:
        E = build_lex_pea(H, G, parse_element(G, args.g0))
    else:
        E = build_lex_pea(H, G)
    phi = phi_represent(E, seed=args.seed)
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


def _parse_hom(text, G):
    text = text.strip()
    if text == "identity":
        return GroupHom(G, G, ("identity",))
    if text.startswith("scale(") and text.endswith(")"):
        factors = _int_args(text, "scale")
        if len(factors) != 1:
            raise ParseError(f"scale(...) takes one integer, got {len(factors)}", column=7)
        return GroupHom(G, G, ("scale", factors[0]))
    if text.startswith("permute(") and text.endswith(")"):
        return GroupHom(G, G, ("permute", _int_args(text, "permute")))
    raise OrdalgError(f"unknown homomorphism spec {text!r}")


def cmd_functor(args, out):
    H = parse_subgroup(args.H)
    G = parse_descriptor(args.G)
    h = _parse_hom(args.hom, G)
    rng = random.Random(args.seed)
    lifted = functor_map(h, H, rng, args.samples)
    # the identity and h after it are homomorphisms once h is one, so they
    # lift over the same algebras without being sampled again
    identity = GroupHom(G, G, ("identity",))
    ident = PeaHom(lifted.source, lifted.source, identity)
    composed = PeaHom(lifted.source, lifted.target, hom_compose(h, identity))
    ident_ok = comp_ok = True
    for _ in range(args.samples):
        x = lifted.source.sample(rng)
        if ident(x) != x:
            ident_ok = False
        if composed(x) != lifted(x):
            comp_ok = False
    out.append(f"identity law: {ident_ok}")
    out.append(f"composition law: {comp_ok}")
    ok = ident_ok and comp_ok
    _machine(out, verdict="pass" if ok else "fail", identity=ident_ok, composition=comp_ok)
    return 0 if ok else 1


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
exactly when all requested verdicts pass. ORDALG_SEED is the fallback seed.
"""


def _env_seed():
    value = os.environ.get("ORDALG_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise PreconditionError(f"ORDALG_SEED must be an integer, got {value!r}") from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ordalg",
        description="Exact checks for ordered groups, refinement tables, "
        "pseudo effect algebras, slice decompositions and representations.",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    default_seed = _env_seed()
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check-axioms", help="verify a finite algebra file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_axioms)

    p = sub.add_parser("states", help="extremal states of a finite algebra file")
    p.add_argument("file")
    p.set_defaults(func=cmd_states)

    p = sub.add_parser("ideals", help="ideals, flags and radicals of a finite algebra file")
    p.add_argument("file")
    p.set_defaults(func=cmd_ideals)

    p = sub.add_parser("check-rdp", help="solve and verify a refinement instance")
    p.add_argument("--group", required=True)
    p.add_argument("--level", default="rdp", choices=["rdp0", "rdp", "rdp1", "rdp2"])
    for name in ("--a1", "--a2", "--b1", "--b2"):
        p.add_argument(name, required=True)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--box", type=int, default=20)
    p.set_defaults(func=cmd_check_rdp)

    p = sub.add_parser("oracle-rdp", help="exhaustive refinement search")
    p.add_argument("--group", required=True)
    p.add_argument("--level", default="rdp", choices=["rdp0", "rdp", "rdp1", "rdp2"])
    for name in ("--a1", "--a2", "--b1", "--b2"):
        p.add_argument(name, required=True)
    p.add_argument("--box", type=int, default=20)
    p.set_defaults(func=cmd_oracle_rdp)

    p = sub.add_parser("interpolate", help="find c with a1, a2 <= c <= b1, b2")
    p.add_argument("--group", required=True)
    for name in ("--a1", "--a2", "--b1", "--b2"):
        p.add_argument(name, required=True)
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("decompose", help="slice decomposition of an algebra")
    p.add_argument("--pea", required=True, help="gamma(DESC, UNIT) or a table file")
    p.add_argument("--H", required=True)
    p.add_argument("--seed", type=int, default=default_seed)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("classify-perfect", help="perfectness flag report")
    p.add_argument("--pea", required=True, help="gamma(DESC, UNIT) or a table file")
    p.add_argument("--H", required=True)
    p.add_argument("--seed", type=int, default=default_seed)
    p.set_defaults(func=cmd_classify_perfect)

    p = sub.add_parser("represent", help="verify the representation isomorphism")
    p.add_argument("--H", required=True)
    p.add_argument("--G", required=True)
    p.add_argument("--g0", default=None)
    p.add_argument("--shuffle", default=None)
    p.add_argument("--corrupt", action="store_true", help="negative control")
    p.add_argument("--samples", type=int, default=300)
    p.add_argument("--seed", type=int, default=default_seed)
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("functor", help="functor-law checks for a lifted homomorphism")
    p.add_argument("--hom", required=True, help="identity | scale(c) | permute(i,j,...)")
    p.add_argument("--G", required=True)
    p.add_argument("--H", required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=default_seed)
    p.set_defaults(func=cmd_functor)

    return parser


def main(argv=None):
    out = []
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args, out)
    except (OrdalgError, OSError, UnicodeDecodeError) as err:
        out.append(f"error: {err}")
        out.append(f"#! verdict=error message={str(err).replace(' ', '_')}")
        code = 2
    print("\n".join(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
