"""The argument parser's own output is golden in ``tests/golden/cli_parser``.

These are the surfaces argparse prints before any verb runs: the top-level
help, each verb's help, and the usage errors for a missing or unknown verb,
an unrecognized argument and a missing or invalid option.  Each golden file
holds the exit code, stdout and stderr, so a change to how the parser is
built that moves any byte of them fails here.  The bytes are those of 80
columns, the same on Python 3.10 through 3.13: ``cli`` wraps the usage
lines itself, by argparse's rule up to 3.12, and argparse renders the rest
alike on each of them.

``cli.main`` reads a named verb's argv with the parser of that verb alone
and asks ``build_parser`` only about a missing or unknown verb and leftover
arguments.  The last tests check that it reads every golden, README and
benchmark command line into the namespace of the parser holding every verb,
and fails on each usage error with that parser's exit code and bytes.
"""

import argparse
from contextlib import redirect_stderr, redirect_stdout
import importlib
import io
from pathlib import Path
import shlex
import sys
from types import SimpleNamespace

import pytest

from ordalg import cli
from ordalg.cli import VERBS, _verb_parser, build_parser, main

from one_verb_parse import assert_one_verb_parse_agrees, parse_outcome
from test_cli_golden import CASES as GOLDEN_CASES, CHAIN_PEA

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_parser"

VERB_NAMES = (
    "check-axioms", "states", "ideals", "check-rdp", "oracle-rdp",
    "interpolate", "decompose", "classify-perfect", "represent", "functor",
)

INSTANCE = ["--group", "Z", "--a1", "1", "--a2", "1", "--b1", "1", "--b2", "1"]

CASES = {
    "help": ["--help"],
    "no_verb": [],
    "unknown_verb": ["frobnicate", "chain.pea"],
    "unrecognized_after_verb": ["states", "x", "--bogus"],
    "check_rdp_missing_options": ["check-rdp"],
    "check_rdp_bad_level": ["check-rdp", *INSTANCE, "--level", "rdp3"],
    **{f"help_{verb}": [verb, "--help"] for verb in VERB_NAMES},
}


def run_parser_case(argv):
    assert_one_verb_parse_agrees(argv)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return f"exit={code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_parser_output_is_golden(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out = run_parser_case(CASES[name])
    assert out.encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes()


def readme_examples():
    """The argv of each ``ordalg`` line in the README's command-line block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert commands and all(command[0] == "ordalg" for command in commands)
    return [command[1:] for command in commands]


ARGVS = {
    **GOLDEN_CASES,
    **{f"readme_{i:02d}": argv for i, argv in enumerate(readme_examples(), 1)},
}


def ready_verb_parser(argv, cache):
    """A verb parser built afresh ("cold") or one that has read argv once ("warm").

    The verb parsers are cached on the claim that parsing leaves them
    unchanged, so a warm one must read argv as a cold one does.
    """
    _verb_parser.cache_clear()
    if cache == "warm":
        parse_outcome(cli._parse_args, argv)


@pytest.mark.parametrize("cache", ["cold", "warm"])
@pytest.mark.parametrize("name", sorted(ARGVS))
def test_one_verb_parser_reads_as_the_full_parser(name, cache):
    ready_verb_parser(ARGVS[name], cache)
    assert_one_verb_parse_agrees(ARGVS[name])


# usage errors and help requests: missing options, a bad type or choice,
# leftover arguments, help after a verb, a prefix of --help, "--", no verb
# and an unknown verb
FAILING = [
    ["check-rdp"],
    ["check-axioms"],
    ["represent", "--H", "Q"],
    ["check-rdp", "--group"],
    ["functor", "--hom", "identity", "--G", "Z", "--H", "Q", "--samples", "x"],
    ["represent", "--H", "Q", "--G", "Z", "--samples", "0"],
    ["decompose", "--pea", "gamma(Z, 1)", "--H", "Z", "--seed", "x"],
    ["check-rdp", *INSTANCE, "--level", "rdp3"],
    ["check-rdp", "--b", "1"],
    ["states", "a.pea", "b.pea"],
    ["states", "x", "--bogus"],
    ["interpolate", *INSTANCE, "--box", "3"],
    ["check-rdp", *INSTANCE, "extra"],
    ["ideals", "--bogus"],
    ["states", "--help"],
    ["states", "-h"],
    ["check-rdp", "--group", "Z", "--help"],
    ["functor", "--he"],
    ["states", "--"],
    ["states", "--", "a", "b"],
    [],
    ["--help"],
    ["--bogus"],
    ["--", "states", "x"],
    ["frobnicate"],
    ["frobnicate", "--help"],
]


@pytest.mark.parametrize("cache", ["cold", "warm"])
@pytest.mark.parametrize("argv", FAILING, ids=[" ".join(a) or "-" for a in FAILING])
def test_verb_parser_fails_as_the_full_parser(argv, cache, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    ready_verb_parser(argv, cache)
    result, _out, _err = assert_one_verb_parse_agrees(argv)
    assert result in (("exit", 0), ("exit", 2))


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse keeps an option with its value")
def test_usage_wraps_as_argparse_does_up_to_3_12(monkeypatch):
    # at every width, not only the goldens' 80 columns; the verb parsers of
    # build_parser print what each verb's own parser prints (above)
    def every_parser():
        return [build_parser(), *(_verb_parser.__wrapped__(verb) for verb in VERBS)]

    for columns in range(10, 161):
        monkeypatch.setenv("COLUMNS", str(columns))
        ours = every_parser()
        with monkeypatch.context() as m:
            m.setattr(cli, "_Formatter", argparse.RawDescriptionHelpFormatter)
            theirs = every_parser()
        for a, b in zip(ours, theirs):
            assert a.format_help() == b.format_help(), (columns, a.prog)
            assert a.format_usage() == b.format_usage(), (columns, a.prog)


# main builds each verb's parser once per process and reuses it; the tests
# below run several calls in one process and compare each with a parser
# built for that call alone


def test_verb_help_follows_the_columns_of_each_call(monkeypatch):
    argv = ["check-rdp", "--help"]
    printed = []
    for columns in ("80", "120", "80"):
        monkeypatch.setenv("COLUMNS", columns)
        # run_parser_case also checks the bytes of a freshly built parser
        printed.append(run_parser_case(argv))
    assert printed[0] == printed[2] != printed[1]
    assert max(map(len, printed[1].splitlines())) > 80 >= max(map(len, printed[0].splitlines()))


# a usage error or help request, then a call of the same verb that passes
AFTER_A_FAILURE = [
    (["check-rdp", *INSTANCE, "--level", "rdp3"], ["check-rdp", *INSTANCE, "--level", "rdp1"]),
    (["check-rdp"], ["check-rdp", *INSTANCE]),
    (["check-rdp", "--group", "Z", "--help"], ["check-rdp", *INSTANCE, "--oracle"]),
    (["functor", "--hom", "identity", "--G", "Z", "--H", "Q", "--samples", "x"],
     ["functor", "--hom", "identity", "--G", "Z", "--H", "Q"]),
    (["states", "chain.pea", "--bogus"], ["states", "chain.pea"]),
]


@pytest.mark.parametrize("failing, passing", AFTER_A_FAILURE,
                         ids=[" ".join(a) for a, _ in AFTER_A_FAILURE])
def test_a_usage_error_leaves_the_next_call_as_it_would_be_alone(
    failing, passing, tmp_path, monkeypatch
):
    (tmp_path / "chain.pea").write_text(CHAIN_PEA, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    alone = []
    for argv in (failing, passing):
        _verb_parser.cache_clear()
        alone.append(run_parser_case(argv))
    assert alone[0].startswith(("exit=2\n", "exit=0\n--- stdout\nusage:"))
    assert alone[1].startswith("exit=0\n")
    _verb_parser.cache_clear()
    assert [run_parser_case(argv) for argv in (failing, passing)] == alone


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("workload", ["finite", "interval"])
def test_one_verb_parser_reads_the_benchmark_corpora(workload, seed, tmp_path, monkeypatch):
    # the refine and oracle corpora call the package, not the CLI
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    api, argvs = workloads.Api(), []
    api.cli = SimpleNamespace(main=lambda argv: argvs.append(argv) or 0)
    files = workloads.TableFiles(str(tmp_path))
    rounds = workloads.BUILDERS[workload](api, seed, files)
    for op in [op for ops in rounds for op in ops] + workloads.warmup_ops(api, workload, files):
        op.call()
    assert len(argvs) > 100
    for argv in argvs:
        assert_one_verb_parse_agrees(argv)


def test_main_without_argv_reads_the_command_line(tmp_path, monkeypatch, capsys):
    (tmp_path / "chain.pea").write_text(CHAIN_PEA, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["ordalg", "check-axioms", "chain.pea"])
    assert_one_verb_parse_agrees(sys.argv[1:])
    assert main() == 0
    assert capsys.readouterr().out == "chain.pea: all axioms hold (n=3)\n#! verdict=pass n=3\n"
