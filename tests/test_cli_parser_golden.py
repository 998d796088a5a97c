"""The argument parser's own output is golden in ``tests/golden/cli_parser``.

These are the surfaces argparse prints before any verb runs: the top-level
help, each verb's help, and the usage errors for a missing or unknown verb,
an unrecognized argument and a missing or invalid option.  Each golden file
holds the exit code, stdout and stderr, so a change to how the parser is
built that moves any byte of them fails here.  The bytes are argparse's
rendering under Python 3.11 at 80 columns, the version the suite is verified
on.

``cli.main`` reads a named verb's argv with a standalone parser of that
verb and falls back to ``build_parser`` of the verb alone when it declines.
The last tests check that both read every golden, README and benchmark
command line into the same namespace as the parser holding every verb.
"""

from contextlib import redirect_stderr, redirect_stdout
import importlib
import io
from pathlib import Path
import shlex
import sys
from types import SimpleNamespace

import pytest

from ordalg.cli import VERBS, build_parser, main

from one_verb_parse import assert_one_verb_parse_agrees
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
    monkeypatch.delenv("ORDALG_SEED", raising=False)
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


@pytest.mark.parametrize("seed", [None, "7"])
@pytest.mark.parametrize("name", sorted(ARGVS))
def test_one_verb_parser_reads_as_the_full_parser(name, seed, monkeypatch):
    argv = ARGVS[name]
    if seed is None:
        monkeypatch.delenv("ORDALG_SEED", raising=False)
    else:
        monkeypatch.setenv("ORDALG_SEED", seed)
    one_verb = build_parser({argv[0]: VERBS[argv[0]]}).parse_args(argv)
    assert one_verb == build_parser(VERBS).parse_args(argv)
    assert_one_verb_parse_agrees(argv)


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("workload", ["finite", "interval"])
def test_one_verb_parser_reads_the_benchmark_corpora(workload, seed, tmp_path, monkeypatch):
    # the refine and oracle corpora call the package, not the CLI
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.delenv("ORDALG_SEED", raising=False)
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
