"""The check that ``cli.main``'s standalone verb parser agrees with ``build_parser``.

``cli.main`` first reads argv with a parser of the named verb alone and
falls back to ``build_parser`` when that parser declines.  The CLI tests
call :func:`assert_one_verb_parse_agrees` on every argv they run.
"""

from contextlib import redirect_stderr, redirect_stdout
import io

from ordalg.cli import _parse_one_verb, build_parser
from ordalg.errors import PreconditionError


def assert_one_verb_parse_agrees(argv):
    """The standalone parser reads argv into build_parser's namespace, or declines where it fails.

    ``build_parser`` fails on a usage error or a help request (SystemExit,
    after printing, here into a discarded buffer) and on a bad ORDALG_SEED.
    """
    argv = list(argv)
    fast = _parse_one_verb(argv)
    discard = io.StringIO()
    try:
        with redirect_stdout(discard), redirect_stderr(discard):
            full = build_parser().parse_args(argv)
    except (SystemExit, PreconditionError):
        assert fast is None, argv
        return
    assert fast is not None and vars(fast) == vars(full), argv
