"""The check that ``cli.main``'s verb parser agrees with ``build_parser``.

``cli.main`` reads argv with the parser of the named verb alone, which
prints that verb's help and usage errors, and hands a missing or unknown
verb and leftover arguments to ``build_parser``.  The CLI tests call
:func:`assert_one_verb_parse_agrees` on every argv they run.
"""

from contextlib import redirect_stderr, redirect_stdout
import io

from ordalg.cli import _parse_args, build_parser


def parse_outcome(parse, argv):
    """(namespace or failure, stdout, stderr) of ``parse(argv)``.

    The failure is the exit code of a usage error or a help request.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def assert_one_verb_parse_agrees(argv):
    """The verb parser gives build_parser's namespace, or its exit code and printed bytes."""
    expected = parse_outcome(lambda argv: build_parser().parse_args(argv), argv)
    assert parse_outcome(_parse_args, argv) == expected, argv
    return expected
