"""Command-line interface: grammar, verbs, determinism and exit codes."""

import ast
import io
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ordalg import cli, riesz
from ordalg import groups as g
from ordalg.cli import main
from ordalg.errors import OrdalgError, ParseError, ShapeError
from ordalg.parsing import (
    _read_lines,
    format_pea_file,
    parse_descriptor,
    parse_element,
    parse_interval_pea,
    parse_pea_file,
    parse_spec,
    parse_subgroup,
    parse_value,
)
from ordalg.pea import boolean_algebra, check_pea_axioms, finite_chain
from ordalg.scalars import QuadraticNumber, ScalarSubgroup
from fractions import Fraction

from finite_slices import grid_decompositions
from one_verb_parse import assert_one_verb_parse_agrees
from test_cli_golden import CASES as GOLDEN_CASES
from test_decomp import SMALL_TABLES
from test_pea import stock_algebras, stock_tables


def run_cli(*argv):
    assert_one_verb_parse_agrees(argv)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_parse_descriptors():
    assert parse_descriptor("lex(Q, Z^2)") == g.Lex(g.QQ, g.IntVector(2))
    assert parse_descriptor("Z/4") == g.Scalar(ScalarSubgroup.cyclic(4))
    assert parse_descriptor("Q[sqrt 2]") == g.Scalar(ScalarSubgroup.quadratic(2))
    assert parse_descriptor("prod(Z^2, Aff)") == g.Product(g.IntVector(2), g.AffineQ())


def test_parse_lex_head_rule():
    with pytest.raises(ParseError) as err:
        parse_descriptor("lex(Z^2, Z)")
    assert "linearly ordered" in str(err.value)


def test_parse_elements():
    desc = parse_descriptor("lex(Q, Z)")
    assert parse_element(desc, "(1/2, -3)") == (Fraction(1, 2), Fraction(-3))
    vec = parse_element(parse_descriptor("Z^3"), "(1, 2, -3)")
    assert vec == (1, 2, -3)
    q = parse_element(parse_descriptor("Q[sqrt 2]"), "-1 + 3*sqrt(2)")
    assert q == QuadraticNumber(-1, 3, 2)


@pytest.mark.parametrize("text", ["1/2 + 3*sqrt(2)", "1/2*sqrt(2)", "1/3", "2 - 5/4*sqrt(2)"])
def test_quadratic_elements_are_lattice_points(text):
    # Q[sqrt d] is the lattice Z + Z*sqrt(d); rational coefficients were taken
    with pytest.raises(ShapeError, match="is not an element of Q\\[sqrt 2\\]"):
        parse_element(parse_descriptor("Q[sqrt 2]"), text)
    with pytest.raises(ShapeError):
        parse_element(parse_descriptor("lex(Q[sqrt 2], Z)"), f"({text}, 0)")
    code, output = run_cli("interpolate", "--group", "Q[sqrt 2]",
                           "--a1", text, "--a2", "0", "--b1", "10", "--b2", "10")
    assert code == 2 and output.startswith("error: ")


def test_parse_subgroups():
    assert parse_subgroup("Z/1") == ScalarSubgroup.cyclic(1)
    assert parse_subgroup("Q") == ScalarSubgroup.rationals()
    assert parse_subgroup("Q[sqrt 3]") == ScalarSubgroup.quadratic(3)


def test_parse_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_descriptor("lex(Q,")
    assert err.value.line == 1


# (text, column of the zero denominator); parse_value let each end in a
# ZeroDivisionError traceback
ZERO_DENOMINATORS = [
    ("1/0", 3),
    ("-7/00", 4),
    ("1 / 0", 5),
    ("(1/0, 0)", 4),
    ("(1, (2, 3/0))", 11),
    ("1 + 1/0*sqrt(2)", 7),
    ("1/0*sqrt(2)", 3),
]


@pytest.mark.parametrize("text, column", ZERO_DENOMINATORS)
def test_parse_value_zero_denominator_is_a_parse_error(text, column):
    with pytest.raises(ParseError) as err:
        parse_value(text)
    assert (err.value.line, err.value.column) == (1, column)
    assert str(err.value) == f"1:{column}: zero denominator"


@pytest.mark.parametrize("argv, column", [
    (("check-rdp", "--group", "Z", "--a1", "1/0", "--a2", "1", "--b1", "1", "--b2", "1"), 3),
    (("interpolate", "--group", "Q", "--a1", "1/0", "--a2", "1", "--b1", "1", "--b2", "1"), 3),
    (("decompose", "--pea", "gamma(lex(Q, Z), (1/0, 0))", "--H", "Q"), 21),
    (("represent", "--H", "Q", "--G", "Q", "--shuffle", "translate(1/0)"), 13),
    (("check-rdp", "--group", "Q[sqrt 2]", "--a1", "1 + 1/0*sqrt(2)",
      "--a2", "1", "--b1", "1", "--b2", "1"), 7),
])
def test_cli_zero_denominator_is_an_input_error(argv, column):
    assert run_cli(*argv) == (
        2, f"error: 1:{column}: zero denominator\n"
        f"#! verdict=error message=1:{column}:_zero_denominator\n"
    )


@pytest.mark.parametrize("text, column", [("\u00b2", 1), ("(1, \u0663)", 5), ("1/\u00b2", 3)])
def test_parse_value_reads_ascii_digits_only(text, column):
    # str.isdigit passed the superscript two, and int() then ended in a
    # ValueError traceback; other digits that int() reads are refused alike
    with pytest.raises(ParseError) as err:
        parse_value(text)
    assert err.value.column == column
    assert "unexpected character" in str(err.value)
    code, output = run_cli("check-rdp", "--group", "lex(Z, Z)", "--a1", f"({text}, 0)",
                           "--a2", "(0, 0)", "--b1", "(1, 0)", "--b2", "(0, 0)")
    assert code == 2 and output.startswith(f"error: 1:{column + 1}: unexpected character")


@pytest.mark.parametrize("verb", ["check-axioms", "states", "ideals"])
def test_file_verbs_take_a_table_file_only(verb, tmp_path, monkeypatch):
    # states and ideals read their file as --pea is read, so a gamma(...)
    # argument reached the finite kernels and ended in an AttributeError
    monkeypatch.chdir(tmp_path)
    code, output = run_cli(verb, "gamma(lex(Q,Z),(1,0))")
    assert code == 2
    assert output.splitlines()[0].startswith("error: [Errno 2] No such file or directory")
    assert output.splitlines()[1].startswith("#! verdict=error message=")


def test_pea_file_round_trip():
    # every stock algebra up to the 64-element cap, and a seeded relabelling
    for E in stock_algebras():
        verdict = parse_pea_file(format_pea_file(E))
        assert verdict.valid
        F = verdict.pea
        assert (F.size, F.zero, F.one, F.table) == (E.size, E.zero, E.one, E.table)
        assert list(F.table) == sorted(E.table)


HEADER = "pea n=2 zero=0 one=1\n"

# (table file, line of the error, message): every ParseError of parse_pea_file
PEA_FILE_ERRORS = [
    ("pea n=2 zero=0\n", 1, "pea header needs n=, zero=, one="),
    ("# a comment\n\npea n=two zero=0 one=1\n", 3, "pea header needs n=, zero=, one="),
    ("add 0 0 0\n" + HEADER, 1, "add line before pea header"),
    (HEADER + "add 0 0\n", 2, "add lines read: add <i> <j> <k>"),
    (HEADER + "add 0 0 0 0\n", 2, "add lines read: add <i> <j> <k>"),
    (HEADER + "add 0 0 0\n  add 0 x 1  # comment\n", 3, "add arguments must be integers"),
    (HEADER + "add 0 2 0\n", 2, "add arguments out of range"),
    (HEADER + "add -1 0 0\n", 2, "add arguments out of range"),
    (HEADER + "add 0 0 0\n\nadd 0 0 0\nadd 0 0 1\n", 5, "conflicting sum for (0, 0)"),
    (HEADER + "# add 0 0 0\nfrob 1\n", 3, "unknown directive 'frob'"),
    ("# only a comment\n\n", 1, "missing pea header"),
    ("", 1, "missing pea header"),
    # a header is read once, with each of its three fields once
    (HEADER + "add 0 1 1\npea n=3 zero=0 one=2\n", 3, "second pea header"),
    ("pea n=4 zero=0 one=3\nadd 0 3 3\nadd 3 0 3\n" + HEADER, 4, "second pea header"),
    ("pea n=2 zero=0 one=1 n=3\n", 1, "repeated pea header field 'n'"),
    ("pea n=2 zero=0 one=1 3\n", 1, "pea header field '3' is not n=, zero= or one="),
    ("pea n=2 zero=0 size=2 one=1\n", 1, "pea header field 'size=2' is not n=, zero= or one="),
    # a line ends at "\n" alone: a form feed is whitespace within a line
    (HEADER + "\x0c\nadd 0 5 0\n", 3, "add arguments out of range"),
    ("pea n=2 zero=0 one=1 \x0c\nadd 0 5 0\n", 2, "add arguments out of range"),
    # and so is a lone carriage return, in the file route too
    ("pea n=1 zero=0 one=0\radd 0 0 0\r", 1, "pea header field 'add' is not n=, zero= or one="),
]


@pytest.mark.parametrize("text, line, message", PEA_FILE_ERRORS)
def test_pea_file_errors_name_line_and_message(tmp_path, text, line, message):
    with pytest.raises(ParseError) as err:
        parse_pea_file(text)
    assert (err.value.line, err.value.column) == (line, 1)
    assert str(err.value) == f"{line}:1: {message}"
    path = tmp_path / "bad.pea"
    path.write_text(text)
    expected = f"error: {line}:1: {message}\n#! verdict=error message={line}:1:_{message.replace(' ', '_')}\n"
    for verb in ("check-axioms", "states"):
        assert run_cli(verb, str(path)) == (2, expected)


def test_cli_skips_a_byte_order_mark(tmp_path, monkeypatch):
    text = format_pea_file(finite_chain(2))
    outputs = []
    for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "chain.pea").write_text(text, encoding=encoding)
        monkeypatch.chdir(tmp_path / name)
        outputs.append(run_cli("check-axioms", "chain.pea"))
    assert (tmp_path / "bom" / "chain.pea").read_bytes().startswith(b"\xef\xbb\xbf")
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and "#! verdict=pass n=3" in outputs[0][1]


def test_cli_reads_a_crlf_file_as_its_lf_twin(tmp_path, monkeypatch):
    text = format_pea_file(finite_chain(2))
    outputs = []
    for name, end in (("lf", "\n"), ("crlf", "\r\n")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "chain.pea").write_bytes(text.replace("\n", end).encode())
        monkeypatch.chdir(tmp_path / name)
        outputs.append(run_cli("check-axioms", "chain.pea"))
    assert b"\r\n" in (tmp_path / "crlf" / "chain.pea").read_bytes()
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and "#! verdict=pass n=3" in outputs[0][1]


def table_text(size, zero, one, table):
    """A table file with its add lines in the table's order."""
    lines = [f"pea n={size} zero={zero} one={one}"] + [f"add {i} {j} {k}" for (i, j), k in table.items()]
    return "\n".join(lines) + "\n"


def respelled(token, rng):
    """The numeral as int() also reads it: a leading 0 or +, or Arabic-Indic digits."""
    how = rng.randrange(3)
    if how == 0:
        return "0" + token
    if how == 1:
        return "+" + token
    return "".join(chr(0x0660 + int(d)) for d in token)


def perturbed(text, rng):
    """Seeded variants of a table file: those the format accepts, then broken ones."""
    head, *adds = text.splitlines()
    out = []

    def put(lines, end="\n"):
        out.append(end.join(lines) + end)

    def some(lines, change):
        lines = list(lines)
        i = rng.randrange(len(lines))
        lines[i] = change(lines[i])
        return lines

    put([head] + adds, "\r\n")
    put([head] + [line.replace(" ", rng.choice((" ", "\t", " \t "))) for line in adds])
    put(["   " + head] + ["\t" + line for line in adds])
    blank = [head] + adds
    for _ in range(3):
        blank.insert(rng.randrange(1, len(blank) + 1), rng.choice(("", "  ", "\t", "\r")))
    put(blank)
    put(["# a table file", "", head + "  # the header", "# the sums"]
        + [line + " # sum" if rng.randrange(2) else line for line in adds] + ["# end"])
    fields = head.split()[1:]
    rng.shuffle(fields)
    put(["pea " + " ".join(fields)] + adds)
    put(["", "\t", "# before the header", head] + adds)
    if adds:
        again = list(adds)
        for _ in range(2):
            again.insert(rng.randrange(len(again) + 1), rng.choice(adds))
        put([head] + again)
        shuffled = list(adds)
        rng.shuffle(shuffled)
        put([head] + shuffled)
        put([head] + some(adds, lambda line: " ".join(
            [t if k == 0 or rng.randrange(2) else respelled(t, rng) for k, t in enumerate(line.split())])))
        sep = rng.choice(("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"))
        put([head] + some(adds, lambda line: line.replace(" ", sep, 1)))
        # rejected: each names its line
        put([head] + some(adds, lambda line: line.rsplit(" ", 1)[0]))
        put([head] + some(adds, lambda line: line + " 0"))
        i = rng.randrange(len(adds))
        put([head] + adds[:i] + [adds[i] + " " + (adds + [head])[i + 1]] + adds[i + 2:])
        put([head] + adds[:i] + [adds[i] + "\r" + (adds + [head])[i + 1]] + adds[i + 2:])
        n = int(head.split("n=")[1].split()[0])
        at = rng.randrange(1, 4)
        put([head] + some(adds, lambda line: " ".join(line.split()[:at] + [str(n)] + line.split()[at + 1:])))
        _, a, b, c = rng.choice(adds).split()
        put([head] + adds + [f"add {a} {b} {(int(c) + 1) % n}"])
    return out


def pea_file_outcome(parse, text):
    try:
        verdict = parse(text)
    except OrdalgError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    E = verdict.pea
    return verdict.valid, verdict.failure, E and (E.size, E.zero, E.one, list(E.table.items()))


def test_bulk_read_of_pea_files_equals_the_line_loop():
    # the bulk read accepts what the line loop accepts, with the same table
    # in the same order, and the line loop names the error of the rest
    rng = random.Random("pea-file-texts")
    texts = [text for text, _, _ in PEA_FILE_ERRORS]
    for E in stock_algebras():
        texts += [format_pea_file(E)] + perturbed(format_pea_file(E), rng)
    for struct in stock_tables(rng):
        texts += [table_text(*struct)] + perturbed(table_text(*struct), rng)
    outcomes = set()
    for text in texts:
        bulk = pea_file_outcome(parse_pea_file, text)
        assert bulk == pea_file_outcome(lambda t: check_pea_axioms(*_read_lines(t)), text), repr(text)
        outcomes.add(bulk[0] if bulk[0] in (True, False) else bulk[1].split(": ", 1)[1])
    assert {True, False, "add lines read: add <i> <j> <k>", "add arguments out of range"} <= outcomes
    assert any(message.startswith("conflicting sum") for message in outcomes if isinstance(message, str))


def test_gamma_parsing():
    E = parse_interval_pea("gamma(lex(Q, Z), (1, 0))")
    assert E.unit == (Fraction(1), Fraction(0))


def test_cli_check_axioms_pass(tmp_path):
    path = tmp_path / "chain.pea"
    path.write_text(format_pea_file(finite_chain(2)))
    code, output = run_cli("check-axioms", str(path))
    assert code == 0
    assert "#! verdict=pass" in output


def test_cli_check_axioms_fail(tmp_path):
    path = tmp_path / "bad.pea"
    path.write_text("pea n=3 zero=0 one=2\nadd 0 0 0\nadd 0 1 1\nadd 1 0 1\n")
    code, output = run_cli("check-axioms", str(path))
    assert code == 1
    assert "#! verdict=fail" in output
    assert "axiom=PE2" in output


def test_cli_states(tmp_path):
    path = tmp_path / "chain4.pea"
    path.write_text(format_pea_file(finite_chain(4)))
    code, output = run_cli("states", str(path))
    assert code == 0
    assert "extremal states: 1" in output
    assert "0 1/4 1/2 3/4 1" in output


def test_cli_ideals(tmp_path):
    path = tmp_path / "bool.pea"
    from ordalg.pea import boolean_algebra

    path.write_text(format_pea_file(boolean_algebra(2)))
    code, output = run_cli("ideals", str(path))
    assert code == 0
    assert "radical=0" in output


def test_cli_table_path_starting_with_gamma_is_a_file(tmp_path, monkeypatch):
    # only gamma followed by "(" is an interval descriptor
    (tmp_path / "gamma_chain.pea").write_text(format_pea_file(finite_chain(4)))
    monkeypatch.chdir(tmp_path)
    code, output = run_cli("states", "gamma_chain.pea")
    assert code == 0
    assert "extremal states: 1" in output
    code, output = run_cli("ideals", "gamma_chain.pea")
    assert code == 0
    assert "radical=0" in output


def test_cli_check_rdp_matches_worked_example():
    code, output = run_cli(
        "check-rdp",
        "--group", "lex(Z, Z)",
        "--level", "rdp1",
        "--a1", "(3, 7)",
        "--a2", "(0, 4)",
        "--b1", "(1, 2)",
        "--b2", "(2, 9)",
        "--oracle", "--box", "45",
    )
    assert code == 0
    assert "(2, 5)" in output  # c12 of the meet table
    assert "#! verdict=pass" in output
    assert "oracle=found" in output


WORKED_INSTANCE = ("--group", "lex(Z, Z)", "--a1", "(3, 7)", "--a2", "(0, 4)",
                   "--b1", "(1, 2)", "--b2", "(2, 9)", "--box", "45")


def test_check_rdp_verifies_each_table_once(monkeypatch):
    # rdp_decompose returns its table unverified, check-rdp verifies it
    # once, and the oracle checks the table it finds for the side condition
    # only, since its own loop proves the rest
    verify, decompose = riesz.rdp_table_verify, riesz.rdp_decompose
    verified, solved = [], []

    def counting_verify(*args, **kwargs):
        verified.append(args[5])
        return verify(*args, **kwargs)

    def recording_decompose(*args, **kwargs):
        solved.append(decompose(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(riesz, "rdp_table_verify", counting_verify)
    monkeypatch.setattr(cli, "rdp_table_verify", counting_verify)
    monkeypatch.setattr(cli, "rdp_decompose", recording_decompose)
    riesz.rdp_decompose(g.ZZ, 3, 1, 2, 2)
    assert verified == []
    for oracle in ((), ("--oracle",)):
        verified.clear()
        solved.clear()
        code, output = run_cli("check-rdp", *WORKED_INSTANCE, *oracle)
        assert code == 0 and "verification: valid" in output
        assert ("#! oracle=found agree=True" in output) == bool(oracle)
        assert len(verified) == 1 and verified[0] is solved[0]


def test_check_rdp_reports_a_wrong_table_as_invalid(monkeypatch):
    # the solver's table is verified by check-rdp alone, so a wrong
    # construction is a failed verdict, not an internal error
    monkeypatch.setattr(riesz, "_meet_table", lambda desc, a1, a2, b1, b2: (a1, a2, b1, b2))
    code, output = run_cli("check-rdp", *WORKED_INSTANCE)
    assert code == 1
    assert "verification: invalid\n#! verdict=fail level=rdp side=-\n" in output


@pytest.mark.parametrize("group, a, zero", [
    ("Z", "30", "0"),
    ("lex(Z, Z^2)", "(1, (30, 0))", "(0, (0, 0))"),
])
def test_check_rdp_oracle_outside_the_box_is_inconclusive(group, a, zero):
    # a1 = b1 = a and a2 = b2 = 0 leave one table, whose c11 = a lies
    # outside box 20, so the oracle's "not found" proves nothing
    instance = ("--group", group, "--a1", a, "--a2", zero, "--b1", a, "--b2", zero)
    code, output = run_cli("check-rdp", *instance, "--oracle")
    assert code == 0
    assert output.endswith(
        "oracle: not found (box 20)\n"
        f"agreement: inconclusive, the solver's c11 = {a} lies outside box 20\n"
        "#! oracle=absent agree=inconclusive\n"
    )
    code, output = run_cli("check-rdp", *instance, "--oracle", "--box", "30")
    assert code == 0 and output.endswith("#! oracle=found agree=True\n")
    # oracle-rdp reads the same miss as inconclusive, and still exits 1
    code, output = run_cli("oracle-rdp", *instance)
    assert code == 1
    assert output == ("no table within box 20: the search covers c11 inside --box only\n"
                      "#! verdict=inconclusive oracle=absent\n")
    code, output = run_cli("oracle-rdp", *instance, "--box", "30")
    assert code == 0 and output.endswith("#! verdict=pass oracle=found\n")


def test_check_rdp_oracle_missing_a_table_in_the_box_disagrees(monkeypatch):
    monkeypatch.setattr(cli, "rdp_oracle_search", lambda *a, **k: riesz.OracleResult(False))
    code, output = run_cli("check-rdp", *WORKED_INSTANCE, "--oracle")
    assert code == 1
    assert output.endswith("oracle: not found (box 45)\n#! oracle=absent agree=False\n")


def test_cli_interpolate():
    code, output = run_cli(
        "interpolate",
        "--group", "lex(Q, Z)",
        "--a1", "(0, 5)", "--a2", "(0, 7)",
        "--b1", "(1, -3)", "--b2", "(1, -9)",
    )
    assert code == 0
    assert "interpolant: (1/2, 0)" in output


def test_cli_decompose_interval():
    code, output = run_cli(
        "decompose", "--pea", "gamma(lex(Z/4, Z), (1, 0))", "--H", "Z/4", "--seed", "5"
    )
    assert code == 0
    assert "ordered: True" in output


def test_cli_classify_perfect():
    code, output = run_cli(
        "classify-perfect",
        "--pea", "gamma(lex(Q, Z^2), (1, (0, 0)))",
        "--H", "Q",
        "--seed", "3",
    )
    assert code == 0
    assert "strong_h_perfect: True" in output


def test_cli_unit_head_other_than_one_is_an_error():
    # s((1, 0)) = 1/2 here, so no Z-valued state exists and the slices by head
    # would index [0, 2]; both lex verbs refuse the algebra
    for verb in ("decompose", "classify-perfect"):
        for H in ("Z", "Z/2"):
            code, output = run_cli(verb, "--pea", "gamma(lex(Z, Z), (2, 0))", "--H", H)
            assert code == 2
            assert output.startswith("error: lex slice decompositions need the unit head 1, got 2\n")
            assert "#! verdict=error message=" in output


def test_cli_head_values_outside_H_are_the_same_error():
    # 3 - 2*sqrt(2) is a head value of the algebra and not a rational, so no
    # Q-valued state exists; classify-perfect must not report a missing slice
    outputs = []
    for verb in ("decompose", "classify-perfect"):
        code, output = run_cli(verb, "--pea", "gamma(lex(Q[sqrt 2], Z), (1, 0))", "--H", "Q")
        assert code == 2
        assert output.startswith("error: state is not valued in Q: s((3 + -2*sqrt(2), 0)) = ")
        assert "missing slice" not in output
        outputs.append(output)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("group, wrap", [("Aff", "{}"), ("lex(Z, Aff)", "(0, {})")])
def test_cli_quadratic_affine_component_is_an_error(group, wrap):
    # Fraction(sqrt(2)) used to end in a TypeError traceback with exit 1
    root, one = wrap.format("(sqrt(2), 0)"), wrap.format("(1, 0)")
    code, output = run_cli(
        "check-rdp", "--group", group, "--level", "rdp2",
        "--a1", root, "--a2", one, "--b1", root, "--b2", one,
    )
    assert code == 2
    lines = output.splitlines()
    assert lines[0].startswith("error: affine pair needs rational components, got QuadraticNumber(")
    assert lines[1].startswith("#! verdict=error message=")


def test_cli_represent_and_corrupt():
    code, output = run_cli(
        "represent", "--H", "Z/4", "--G", "Z",
        "--shuffle", "translate(1)", "--samples", "120", "--seed", "2",
    )
    assert code == 0 and "#! verdict=pass" in output
    code2, output2 = run_cli(
        "represent", "--H", "Z/4", "--G", "Z",
        "--shuffle", "translate(1)", "--samples", "120", "--seed", "2",
        "--corrupt",
    )
    assert code2 == 1
    assert "hom_failures=0" not in output2


def test_cli_represent_refuses_g0_beside_shuffle(monkeypatch):
    # a shuffle re-encodes the unit (1, 0), and --g0 used to be dropped unread
    def no_sampling(*args, **kwargs):
        raise AssertionError("represent sampled despite an input error")

    monkeypatch.setattr(cli, "verify_isomorphism", no_sampling)
    for g0 in ("garbage", "3"):
        code, output = run_cli("represent", "--H", "Z/2", "--G", "Z", "--g0", g0,
                               "--shuffle", "identity", "--samples", "5")
        assert code == 2
        lines = output.splitlines()
        assert len(lines) == 2 and lines[1].startswith("#! verdict=error")
        assert "--g0" in lines[1] and "--shuffle" in lines[1]
    # an empty --g0 or --shuffle is read, and refused, like any other spec
    for option in ("--g0", "--shuffle"):
        code, output = run_cli("represent", "--H", "Z/2", "--G", "Z", option, "", "--samples", "5")
        assert code == 2 and output.startswith("error: 1:1: ")


def test_cli_functor():
    code, output = run_cli(
        "functor", "--hom", "scale(2)", "--G", "Z", "--H", "Q", "--samples", "60"
    )
    assert code == 0
    assert "identity law: True" in output


@pytest.mark.parametrize("hom, G, message", [
    ("permute(0)", "Z", "error: permute needs a Z^k tail, not Z"),
    ("permute(0)", "Q", "error: permute needs a Z^k tail, not Q"),
    ("permute(1,0)", "prod(Z, Q)", "error: permute needs a Z^k tail, not prod(Z, Q)"),
    ("permute(0,5)", "Z^2", "error: permute(0,5) does not permute the 2 coordinates of Z^2"),
    ("permute(1,0)", "Z^3", "error: permute(1,0) does not permute the 3 coordinates of Z^3"),
    ("permute(0)", "Z^2", "error: permute(0) does not permute the 2 coordinates of Z^2"),
])
def test_cli_functor_permute_needs_a_permutation_of_a_vector_tail(hom, G, message):
    # these used to die with a traceback or pass for a map that leaves G
    code, output = run_cli("functor", "--hom", hom, "--G", G, "--H", "Q", "--samples", "20")
    assert code == 2
    assert output.splitlines()[0] == message
    assert output.splitlines()[1].startswith("#! verdict=error")


def test_cli_functor_samples_only_the_parsed_homomorphism(monkeypatch):
    import ordalg.represent as represent

    checked = []
    real = represent.hom_verify

    def counting(h, rng, samples=200):
        checked.append(h.rule)
        return real(h, rng, samples)

    monkeypatch.setattr(represent, "hom_verify", counting)
    code, _ = run_cli("functor", "--hom", "scale(3)", "--G", "Z^2", "--H", "Z/2", "--samples", "20")
    assert code == 0
    assert checked == [("scale", 3)]


def test_cli_functor_permute_on_the_plane_passes():
    code, output = run_cli(
        "functor", "--hom", "permute(1,0)", "--G", "Z^2", "--H", "Q", "--samples", "20"
    )
    assert code == 0
    assert output.splitlines()[-1] == "#! verdict=pass identity=True composition=True"


def test_cli_shuffle_permute_names_its_fault():
    code, output = run_cli("represent", "--H", "Q", "--G", "Z^2", "--shuffle", "permute(0,5)")
    assert code == 2
    assert output.startswith("error: permute(0,5) does not permute the 2 coordinates of Z^2")


@pytest.mark.parametrize("argv, message", [
    (("functor", "--hom", "permute(a)"), "error: 1:9: expected an integer"),
    (("functor", "--hom", "scale(x)"), "error: 1:7: expected an integer"),
    (("functor", "--hom", "scale(1,2)"), "error: 1:8: expected ')'"),
    (("represent", "--shuffle", "permute(x)"), "error: 1:9: expected an integer"),
])
def test_cli_integer_arguments_that_are_not_integers_are_parse_errors(argv, message):
    # a bare int() let these end in a ValueError traceback
    code, output = run_cli(*argv, "--G", "Z^2", "--H", "Q")
    assert code == 2
    assert output.splitlines()[0] == message


# (verb, spec, column, message): each fault is reported at its token inside
# the spec, not inside the text between its parentheses
SPEC_FAULTS = [
    ("represent", "translate(1/0)", 13, "zero denominator"),
    ("represent", "translate((1,x))", 15, "expected sqrt"),
    ("represent", "conjugate((1, 1/0))", 17, "zero denominator"),
    ("represent", "conjugate((1,x))", 15, "expected sqrt"),
    ("represent", "permute(0,a)", 11, "expected an integer"),
    ("represent", "permute(0,1", 12, "expected ')'"),
    ("represent", "  shift(1)", 3,
     "'shift' is not a shuffle name (identity, permute, translate, conjugate)"),
    ("functor", "scale(1,2)", 8, "expected ')'"),
    ("functor", "scale(1_000)", 8, "unexpected character '_'"),
    ("functor", "permute(0,\u0661)", 11, "unexpected character '\u0661'"),
    ("functor", "identity()", 9, "trailing input"),
    ("functor", "rotate", 1, "'rotate' is not a homomorphism name (identity, scale, permute)"),
]


@pytest.mark.parametrize("verb, spec, column, message", SPEC_FAULTS)
def test_cli_spec_faults_point_into_the_spec(verb, spec, column, message):
    option = "--shuffle" if verb == "represent" else "--hom"
    code, output = run_cli(verb, option, spec, "--G", "Z^2", "--H", "Z/3")
    assert code == 2
    assert output.splitlines()[0] == f"error: 1:{column}: {message}"


def _reference_rule(kind, spec_text, G):
    """The rule that cli's string-slicing spec parsers returned, kept as a
    reference: a stripped NAME or NAME(...), integers read by int()."""
    text = spec_text.strip()
    if text == "identity":
        return ("identity",)
    for name in ("permute", "scale", "translate", "conjugate"):
        if text.startswith(f"{name}(") and text.endswith(")"):
            inner = text[len(name) + 1 : -1]
            if name == "permute":
                return (name, tuple(int(p) for p in inner.split(",")))
            if name == "scale" and kind == "homomorphism":
                (factor,) = (int(p) for p in inner.split(","))
                return (name, factor)
            if name != "scale" and kind == "shuffle":
                return (name, parse_element(G, inner))
    raise ValueError(f"not a {kind} spec: {spec_text!r}")


def _documented_specs():
    """Every (kind, spec) of the README, the CLI goldens and the benchmark corpora."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    specs = set(re.findall(r"--(shuffle|hom)\s+'([^']*)'", readme))
    specs |= {(opt[2:], spec) for argv in GOLDEN_CASES.values()
              for opt, spec in zip(argv, argv[1:]) if opt in ("--shuffle", "--hom")}
    tree = ast.parse((root / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    corpora = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
               and node.targets[0].id in ("REPRESENT_CASES", "FUNCTOR_CASES")}
    specs |= {("shuffle", spec) for _H, _G, spec in corpora["REPRESENT_CASES"]}
    specs |= {("hom", spec) for spec, _G, _H in corpora["FUNCTOR_CASES"]}
    return sorted(("homomorphism" if kind == "hom" else kind, spec) for kind, spec in specs)


def _spellings(spec):
    """spec; then with spaces around it, inside each parenthesis and around each
    comma; then also with a + before each unsigned integer."""
    spaced = "  " + re.sub(r"\s*,\s*", " , ", spec.replace("(", "( ").replace(")", " )")) + " "
    return [spec, spaced, re.sub(r"(?<=[(,] )(\d)", r"+\1", spaced)]


def test_documented_specs_parse_to_the_rules_of_the_reference():
    specs = _documented_specs()
    assert {spec for _, spec in specs} >= {
        "identity", "permute(1,0)", "translate(1)", "translate((1, 2))", "scale(2)",
    }
    tails = [parse_descriptor(text) for text in ("Z", "Z^2", "Z^3", "Q", "lex(Q, Z)")]
    checked = 0
    for kind, spec in specs:
        for text in _spellings(spec):
            for G in tails:
                try:
                    expected = _reference_rule(kind, text, G)
                except (ValueError, OrdalgError):
                    with pytest.raises(OrdalgError):
                        parse_spec(kind, text, G)
                    continue
                assert parse_spec(kind, text, G) == expected, (kind, text, G)
                checked += 1
    assert checked >= 3 * len(specs)


@pytest.mark.parametrize("H, shuffle", [("Z/3", "translate((1, 2))"), ("Q", "conjugate((1, 2))")])
def test_cli_shuffle_elements_parse_against_the_tail(H, shuffle):
    # parsed without --G, (1, 2) became a pair of Fractions and failed the Z^2 check
    code, output = run_cli(
        "represent", "--H", H, "--G", "Z^2", "--shuffle", shuffle, "--samples", "60"
    )
    assert code == 0
    assert "isomorphism: clean" in output


def test_cli_byte_identical_runs():
    argv = [
        "represent", "--H", "Q", "--G", "Z^2",
        "--shuffle", "permute(1,0)", "--samples", "80", "--seed", "9",
    ]
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first == second


def test_cli_error_exit_code():
    code, output = run_cli("check-rdp", "--group", "lex(Z^2, Z)",
                           "--a1", "(0,0)", "--a2", "(0,0)", "--b1", "(0,0)", "--b2", "(0,0)")
    assert code == 2
    assert "error:" in output


def test_cli_closed_stdout_exits_quietly():
    # as in ``ordalg ... | head``: the reader has gone before the output is
    # written, so main exits 2, as for any other OSError, and stderr stays
    # empty, without the interpreter's exit-flush message either
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["classify-perfect", "--pea", "gamma(lex(Q, Z), (1, 0))", "--H", "Q"]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ordalg.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, b"")
    # in process, a StringIO stdout never breaks
    assert run_cli(*argv)[0] == 0


def test_cli_errors_keep_the_contract(tmp_path):
    not_utf8 = tmp_path / "binary.pea"
    not_utf8.write_bytes(b"\xffpea n=2")
    for argv in (
        ("check-rdp", "--group", "Z^0", "--a1", "0", "--a2", "0", "--b1", "0", "--b2", "0"),
        ("check-rdp", "--group", "Z/0", "--a1", "0", "--a2", "0", "--b1", "0", "--b2", "0"),
        ("check-axioms", str(tmp_path / "missing.pea")),
        ("states", str(tmp_path / "missing.pea")),
        ("check-axioms", str(not_utf8)),
        ("states", str(not_utf8)),
    ):
        code, output = run_cli(*argv)
        assert code == 2
        assert output.startswith("error: ")
        assert "#! verdict=error message=" in output


def test_cli_decompose_finite_file(tmp_path):
    path = tmp_path / "chain.pea"
    path.write_text(format_pea_file(finite_chain(2)))
    code, output = run_cli("decompose", "--pea", str(path), "--H", "Z/2")
    assert code == 0
    assert "E_0 = {0}" in output
    assert "E_1/2 = {1}" in output


def printed_state(E, output):
    """The values of the state whose preimages ``decompose`` printed."""
    values = [None] * E.size
    for line in output.splitlines():
        if line.startswith("  E_"):
            t, members = line[4:].split(" = {")
            for m in members.rstrip("}").split(","):
                values[int(m)] = Fraction(t)
    return tuple(values)


def test_decompose_agrees_with_every_grid_state(tmp_path):
    # decompose prints the ordered decomposition exactly when the brute force
    # finds one, and every decomposition it prints is a grid state's; for an
    # unordered one it still reads the extremal states alone, and so misses
    # those off them, such as (0, 1/3, 2/3, 1) on 2^2 over Z/3
    missed = []
    for name, E in SMALL_TABLES:
        path = tmp_path / f"{name}.pea"
        path.write_text(format_pea_file(E), encoding="utf-8")
        for n in range(1, 7):
            onto, ordered = grid_decompositions(E, n)
            code, output = run_cli("decompose", "--pea", str(path), "--H", f"Z/{n}")
            if code == 1:
                assert output.endswith("#! verdict=fail reason=no-valued-state\n")
                assert not ordered, (name, n)
                if onto:
                    missed.append((name, n))
                continue
            values = printed_state(E, output)
            assert values in onto, (name, n)
            assert output.endswith(f"#! verdict=pass slices={n + 1} ordered={values in ordered}\n")
            if ordered:
                assert values == ordered[0], (name, n)
    assert len(missed) == 20, missed


def test_decompose_one_element_algebra_answers_are_unchanged(tmp_path):
    path = tmp_path / "one.pea"
    path.write_text("pea n=1 zero=0 one=0\nadd 0 0 0\n", encoding="utf-8")
    for H in ("Z", "Z/2", "Q"):
        code, output = run_cli("decompose", "--pea", str(path), "--H", H)
        assert code == 1 and output.endswith("#! verdict=fail reason=no-valued-state\n")


@pytest.mark.parametrize("E, H, perfect, slices", [
    (finite_chain(63), "Z/63", True, 64),
    (boolean_algebra(6), "Z/1", False, 2),
], ids=["chain63", "bool6"])
def test_slice_verbs_at_the_size_caps(tmp_path, E, H, perfect, slices):
    # the table size cap, where a slice kernel that turns into a search runs
    # into the CI job's timeout: the 63-chain stops at its levels, and 2^6
    # over Z reaches the extremal states; goldens 42 and 43 hold the ten-block
    # sum over Z/2, at the state dimension cap
    path = tmp_path / "cap.pea"
    path.write_text(format_pea_file(E), encoding="utf-8")
    code, output = run_cli("classify-perfect", "--pea", str(path), "--H", H)
    assert code == 0 and output.startswith(f"h_perfect: {perfect}\n")
    code, output = run_cli("decompose", "--pea", str(path), "--H", H)
    assert code == 0 and output.endswith(f"#! verdict=pass slices={slices} ordered={perfect}\n")


def test_cli_oracle_rdp():
    code, output = run_cli(
        "oracle-rdp", "--group", "lex(Z, Z)",
        "--a1", "(1, 2)", "--a2", "(0, 3)",
        "--b1", "(1, 5)", "--b2", "(0, 0)",
        "--box", "25",
    )
    assert code == 0
    assert "#! verdict=pass" in output


def test_cli_oracle_rdp_non_scalar_discrete_heads():
    # linear discrete heads that are not scalars: Z^1 and a lex product
    for group, a1, a2, b1, b2 in (
        ("lex(Z^1, Z)", "(2, 1)", "(1, -3)", "(1, 4)", "(2, -6)"),
        ("lex(lex(Z, Z), Z)", "((1, 0), 2)", "((0, 1), 3)", "((0, 2), 1)", "((1, -1), 4)"),
    ):
        args = ("--group", group, "--a1", a1, "--a2", a2, "--b1", b1, "--b2", b2, "--box", "6")
        code, output = run_cli("oracle-rdp", *args)
        assert code == 0 and output.endswith("#! verdict=pass oracle=found\n")
        code, output = run_cli("check-rdp", *args, "--oracle")
        assert code == 0 and "#! oracle=found agree=True" in output


@pytest.mark.parametrize("argv, message", [
    (("represent", "--H", "Q", "--G", "Z", "--samples", "0"),
     "argument --samples: must be at least 1, got 0"),
    (("represent", "--H", "Q", "--G", "Z", "--samples", "-3"),
     "argument --samples: must be at least 1, got -3"),
    (("functor", "--hom", "identity", "--G", "Z", "--H", "Q", "--samples", "-1"),
     "argument --samples: must be at least 1, got -1"),
    (("functor", "--hom", "identity", "--G", "Z", "--H", "Q", "--samples", "0"),
     "argument --samples: must be at least 1, got 0"),
    (("oracle-rdp", "--group", "Z", "--a1", "1", "--a2", "1", "--b1", "1", "--b2", "1",
      "--box", "-1"), "argument --box: must be at least 0, got -1"),
    (("check-rdp", "--group", "Z", "--a1", "1", "--a2", "1", "--b1", "1", "--b2", "1",
      "--oracle", "--box", "-1"), "argument --box: must be at least 0, got -1"),
    (("represent", "--H", "Q", "--G", "Z", "--samples", "many"),
     "argument --samples: invalid count value: 'many'"),
])
def test_cli_vacuous_counts_are_input_errors(argv, message, capsys):
    # no samples checks nothing and a negative box searches nothing, so a
    # verdict on either would be vacuous
    assert_one_verb_parse_agrees(argv)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"ordalg {argv[0]}: error: {message}\n")


def test_cli_zero_box_is_a_search():
    code, output = run_cli(
        "oracle-rdp", "--group", "Z", "--a1", "0", "--a2", "0", "--b1", "0", "--b2", "0",
        "--box", "0",
    )
    assert code == 0 and output.endswith("#! verdict=pass oracle=found\n")
