"""Command-line interface: grammar, verbs, determinism and exit codes."""

import io
from contextlib import redirect_stdout

import pytest

from ordalg import groups as g
from ordalg.cli import main
from ordalg.errors import ParseError
from ordalg.parsing import (
    format_pea_file,
    parse_descriptor,
    parse_element,
    parse_interval_pea,
    parse_pea_file,
    parse_subgroup,
)
from ordalg.pea import finite_chain
from ordalg.scalars import QuadraticNumber, ScalarSubgroup
from fractions import Fraction


def run_cli(*argv):
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
    q = parse_element(parse_descriptor("Q[sqrt 2]"), "1/2 + 3*sqrt(2)")
    assert q == QuadraticNumber(Fraction(1, 2), Fraction(3), 2)


def test_parse_subgroups():
    assert parse_subgroup("Z/1") == ScalarSubgroup.cyclic(1)
    assert parse_subgroup("Q") == ScalarSubgroup.rationals()
    assert parse_subgroup("Q[sqrt 3]") == ScalarSubgroup.quadratic(3)


def test_parse_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_descriptor("lex(Q,")
    assert err.value.line == 1


def test_pea_file_round_trip(tmp_path):
    E = finite_chain(2)
    text = format_pea_file(E)
    verdict = parse_pea_file(text)
    assert verdict.valid and verdict.pea.size == 3


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
    (("functor", "--hom", "permute(a)"), "error: 1:9: permute(...) takes integers, got 'a'"),
    (("functor", "--hom", "scale(x)"), "error: 1:7: scale(...) takes integers, got 'x'"),
    (("functor", "--hom", "scale(1,2)"), "error: 1:7: scale(...) takes one integer, got 2"),
    (("represent", "--shuffle", "permute(x)"), "error: 1:9: permute(...) takes integers, got 'x'"),
])
def test_cli_integer_arguments_that_are_not_integers_are_parse_errors(argv, message):
    # a bare int() let these end in a ValueError traceback
    code, output = run_cli(*argv, "--G", "Z^2", "--H", "Q")
    assert code == 2
    assert output.splitlines()[0] == message


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


def test_cli_bad_seed_variable_is_an_input_error(tmp_path, monkeypatch):
    path = tmp_path / "chain.pea"
    path.write_text(format_pea_file(finite_chain(2)))
    monkeypatch.setenv("ORDALG_SEED", "abc")
    code, output = run_cli("check-axioms", str(path))
    assert code == 2
    assert output == (
        "error: ORDALG_SEED must be an integer, got 'abc'\n"
        "#! verdict=error message=ORDALG_SEED_must_be_an_integer,_got_'abc'\n"
    )
    monkeypatch.setenv("ORDALG_SEED", "5")
    code, output = run_cli("check-axioms", str(path))
    assert code == 0
