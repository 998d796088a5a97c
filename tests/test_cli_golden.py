"""The command-line examples print exactly their golden outputs in ``tests/golden/cli``.

Each case runs ``cli.main`` in-process from a directory holding ``chain.pea``,
``bool.pea``, ``cube3.pea``, ``hsum10.pea`` and ``one.pea``; the golden file is its stdout followed by an
``exit=<code>`` line, so a change that moves any printed byte or the exit code
fails here.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ordalg.cli import main

from one_verb_parse import assert_one_verb_parse_agrees

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

CHAIN_PEA = """pea n=3 zero=0 one=2
add 0 0 0
add 0 1 1
add 0 2 2
add 1 0 1
add 1 1 2
add 2 0 2
"""

BOOL_PEA = """pea n=4 zero=0 one=3
add 0 0 0
add 0 1 1
add 0 2 2
add 0 3 3
add 1 0 1
add 1 2 3
add 2 0 2
add 2 1 3
add 3 0 3
"""


def hsum_pea(k):
    """The horizontal sum of k copies of 2^2, one add line per sum in order:
    the atoms 2 + 2i and 3 + 2i add to 1."""
    size = 2 + 2 * k
    table = {(0, x): x for x in range(size)} | {(x, 0): x for x in range(size)}
    table |= {(a, a ^ 1): 1 for a in range(2, size)}
    return "".join(
        [f"pea n={size} zero=0 one=1\n"] + [f"add {i} {j} {s}\n" for (i, j), s in sorted(table.items())]
    )


# three blocks, the ordinal sum {0} < six atoms < {1}
CUBE3_PEA = hsum_pea(3)

# ten blocks: 22 elements, and a state polytope at the dimension cap
HSUM10_PEA = hsum_pea(10)

# the one-element algebra: zero is one, so no state exists
ONE_PEA = """pea n=1 zero=0 one=0
add 0 0 0
"""

# the README's ten examples, the Z/1 slice printing, a deep oracle, the
# state polytopes of 2^2 and of the 3-cube and the perfectness flags of the
# 3-cube, then both lex verbs over a non-central and a central Aff unit, a
# quadratic head and a plane tail, a functor whose scale factor only
# binary doubling reaches in time, the corrupted representation map (the one
# case whose surjectivity count depends on the probe), the flags of an
# algebra whose head misses a slice of the requested grid, and meet tables
# at rdp2 over a partially ordered lex bottom and at rdp1 over a
# non-Abelian one, the states of an algebra without any, and a map that is
# not a homomorphism, whose witness prints in the element grammar; then the
# orders and slices past the Q grid's denominators: a tail unit 720 with no
# seventh part over Q (flags, and a refused representation), the sixtieths
# with no root of order 7, and Q and Z/60 each read over the other, which
# differ at 1/7; a zero denominator, an input error; an oracle whose
# box misses the only table, which leaves the agreement inconclusive under
# check-rdp and the verdict inconclusive under oracle-rdp; and the level
# decompositions over Z/2 of 2^2 and of the ten-block sum, whose ordered
# (1/2)Z-valued states are no extremal states; and the input errors of the
# slice verbs: an interval that is no lex interval with a scalar head, and a
# head that misses a slice of the requested grid
CASES = {
    "01_check_axioms": ["check-axioms", "chain.pea"],
    "02_states": ["states", "chain.pea"],
    "03_ideals": ["ideals", "bool.pea"],
    "04_check_rdp": [
        "check-rdp", "--group", "lex(Z, Z)", "--level", "rdp1",
        "--a1", "(3, 7)", "--a2", "(0, 4)", "--b1", "(1, 2)", "--b2", "(2, 9)",
        "--oracle", "--box", "45",
    ],
    "05_interpolate": [
        "interpolate", "--group", "lex(Q, Z)",
        "--a1", "(0, 5)", "--a2", "(0, 7)", "--b1", "(1, -3)", "--b2", "(1, -9)",
    ],
    "06_decompose": ["decompose", "--pea", "gamma(lex(Z/4, Z), (1, 0))", "--H", "Z/4"],
    "07_classify_perfect": [
        "classify-perfect", "--pea", "gamma(lex(Q, Z^2), (1, (0, 0)))", "--H", "Q",
    ],
    "08_represent": [
        "represent", "--H", "Z/4", "--G", "Z", "--shuffle", "translate(1)",
        "--samples", "300", "--seed", "2",
    ],
    "09_functor": ["functor", "--hom", "scale(2)", "--G", "Z", "--H", "Q"],
    "10_oracle_rdp": [
        "oracle-rdp", "--group", "lex(Z, Z)", "--a1", "(1, 2)", "--a2", "(0, 3)",
        "--b1", "(1, 5)", "--b2", "(0, 0)", "--box", "25",
    ],
    "11_decompose_over_Z": ["decompose", "--pea", "gamma(lex(Z, Z), (1, 0))", "--H", "Z"],
    "12_oracle_rdp_deep": [
        "oracle-rdp", "--group", "lex(Z, Z)", "--a1", "(50, 3)", "--a2", "(0, 7)",
        "--b1", "(50, 5)", "--b2", "(0, 5)", "--box", "60",
    ],
    "13_states_bool": ["states", "bool.pea"],
    "14_states_cube3": ["states", "cube3.pea"],
    "15_classify_perfect_cube3": ["classify-perfect", "--pea", "cube3.pea", "--H", "Z/2"],
    "16_decompose_aff_noncentral": [
        "decompose", "--pea", "gamma(lex(Z, Aff), (1, (2, 0)))", "--H", "Z",
    ],
    "17_classify_perfect_aff_noncentral": [
        "classify-perfect", "--pea", "gamma(lex(Z, Aff), (1, (2, 0)))", "--H", "Z",
    ],
    "18_decompose_aff_central": [
        "decompose", "--pea", "gamma(lex(Z, Aff), (1, (1, 0)))", "--H", "Z",
    ],
    "19_classify_perfect_aff_central": [
        "classify-perfect", "--pea", "gamma(lex(Z, Aff), (1, (1, 0)))", "--H", "Z",
    ],
    "20_decompose_quadratic": [
        "decompose", "--pea", "gamma(lex(Q[sqrt 2], Z), (1, 0))", "--H", "Q[sqrt 2]",
    ],
    "21_classify_perfect_quadratic": [
        "classify-perfect", "--pea", "gamma(lex(Q[sqrt 2], Z), (1, 0))", "--H", "Q[sqrt 2]",
    ],
    "22_decompose_quarters_plane": [
        "decompose", "--pea", "gamma(lex(Z/4, Z^2), (1, (0, 0)))", "--H", "Z/4",
    ],
    "23_classify_perfect_quarters_plane": [
        "classify-perfect", "--pea", "gamma(lex(Z/4, Z^2), (1, (0, 0)))", "--H", "Z/4",
    ],
    "24_functor_large_scale": [
        "functor", "--hom", "scale(1000000000000)", "--G", "Z", "--H", "Q", "--samples", "5",
    ],
    "25_represent_corrupt": [
        "represent", "--H", "Z/4", "--G", "Z", "--shuffle", "translate(1)", "--corrupt",
        "--samples", "300", "--seed", "2",
    ],
    "26_classify_perfect_missing_slice": [
        "classify-perfect", "--pea", "gamma(lex(Z/2, Z), (1, 0))", "--H", "Z/4",
    ],
    "27_check_rdp2_partial_lex_bottom": [
        "check-rdp", "--group", "lex(Z, Z^2)", "--level", "rdp2",
        "--a1", "(1, (0, 0))", "--a2", "(1, (0, 0))",
        "--b1", "(1, (1, -1))", "--b2", "(1, (-1, 1))", "--oracle",
    ],
    "28_check_rdp1_non_abelian_lex_bottom": [
        "check-rdp", "--group", "lex(Z, prod(Aff, Z))", "--level", "rdp1",
        "--a1", "(1, ((2, 0), 0))", "--a2", "(1, ((1, 0), 3))",
        "--b1", "(1, ((1, 0), 2))", "--b2", "(1, ((2, 0), 1))",
    ],
    "29_states_one_element": ["states", "one.pea"],
    "30_functor_not_a_homomorphism": ["functor", "--hom", "scale(2)", "--G", "Aff", "--H", "Q"],
    "31_classify_perfect_q_unit_720": [
        "classify-perfect", "--pea", "gamma(lex(Q, Z), (1, 720))", "--H", "Q",
    ],
    "32_classify_perfect_sixtieths": [
        "classify-perfect", "--pea", "gamma(lex(Z/60, Z), (1, 0))", "--H", "Z/60",
    ],
    "33_represent_q_unit_720": ["represent", "--H", "Q", "--G", "Z", "--g0", "720"],
    "34_classify_perfect_q_over_sixtieths": [
        "classify-perfect", "--pea", "gamma(lex(Q, Z), (1, 0))", "--H", "Z/60",
    ],
    "35_decompose_q_over_sixtieths": [
        "decompose", "--pea", "gamma(lex(Q, Z), (1, 0))", "--H", "Z/60",
    ],
    "36_classify_perfect_sixtieths_over_q": [
        "classify-perfect", "--pea", "gamma(lex(Z/60, Z), (1, 0))", "--H", "Q",
    ],
    "37_check_rdp_zero_denominator": [
        "check-rdp", "--group", "Z", "--a1", "1/0", "--a2", "1", "--b1", "1", "--b2", "1",
    ],
    "38_check_rdp_oracle_outside_box": [
        "check-rdp", "--group", "Z", "--a1", "30", "--a2", "30", "--b1", "30", "--b2", "30",
        "--level", "rdp2", "--oracle",
    ],
    "39_oracle_rdp_outside_box": [
        "oracle-rdp", "--group", "Z", "--a1", "30", "--a2", "30", "--b1", "30", "--b2", "30",
        "--level", "rdp2",
    ],
    "40_decompose_bool_halves": ["decompose", "--pea", "bool.pea", "--H", "Z/2"],
    "41_classify_perfect_bool_halves": ["classify-perfect", "--pea", "bool.pea", "--H", "Z/2"],
    "42_decompose_hsum10_halves": ["decompose", "--pea", "hsum10.pea", "--H", "Z/2"],
    "43_classify_perfect_hsum10_halves": ["classify-perfect", "--pea", "hsum10.pea", "--H", "Z/2"],
    "44_represent_g0_beside_shuffle": [
        "represent", "--H", "Z/2", "--G", "Z", "--g0", "garbage", "--shuffle", "identity",
        "--samples", "5",
    ],
    "45_classify_perfect_not_lex": ["classify-perfect", "--pea", "gamma(Z, 3)", "--H", "Z/3"],
    "46_decompose_not_lex": ["decompose", "--pea", "gamma(prod(Z, Z), (1, 1))", "--H", "Z/1"],
    "47_decompose_head_misses_a_slice": [
        "decompose", "--pea", "gamma(lex(Z/4, Z), (1, 0))", "--H", "Q",
    ],
}


def run_case(argv):
    assert_one_verb_parse_agrees(argv)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return f"{buf.getvalue()}exit={code}\n"


@pytest.fixture
def table_dir(tmp_path, monkeypatch):
    """A working directory holding the five table files."""
    (tmp_path / "chain.pea").write_text(CHAIN_PEA, encoding="utf-8")
    (tmp_path / "bool.pea").write_text(BOOL_PEA, encoding="utf-8")
    (tmp_path / "cube3.pea").write_text(CUBE3_PEA, encoding="utf-8")
    (tmp_path / "hsum10.pea").write_text(HSUM10_PEA, encoding="utf-8")
    (tmp_path / "one.pea").write_text(ONE_PEA, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_golden(name, table_dir):
    out = run_case(CASES[name])
    assert out.encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes()


def test_cli_goldens_hold_across_calls_in_one_process(table_dir):
    # main reuses each verb's parser, so no call may leave state that a
    # later call reads: every case, in order and then reversed
    names = sorted(CASES)
    for name in names + names[::-1]:
        out = run_case(CASES[name])
        assert out.encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes(), name
