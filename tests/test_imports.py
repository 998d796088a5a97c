"""Every name a module of the package imports is used in that module, and
every module imported anywhere is the stdlib's, the package's or a sibling's.

A stdlib ``ast`` scan stands in for a linter: a deleted call site must take
its import along.  A name counts as used when it appears as a bare name or
the base of an attribute, or in the module's ``__all__``.  The second scan
keeps optional local tools (``hypothesis``, ``sympy``, ``pytest-benchmark``)
out of the package, the suite, the benchmark and the demos; the tests may
import ``pytest`` as well.  A third scan names the package modules that
import ``random``: only the seeded verbs draw.  A fourth names those that
import ``ordalg.sampling``: test-only samplers stay out of the package.  A
fifth keeps one scalar order path: no package module but ``scalars`` (and
the re-exporting ``__init__``) imports ``compare`` or ``Ordering``, and no
descriptor class defines the ``_linear_compare`` that ``_sign`` replaced.
A sixth keeps the package's draws on the public ``random.Random`` API: no
module reads a private attribute such as ``_randbelow``, so the draw plans'
``randrange`` calls equal the ``randint`` stream on every interpreter that
the suite runs on.  A seventh keeps the package off the process
environment: no module reads ``os.environ`` or ``os.getenv``, so a run
depends on its arguments alone.
"""

import ast
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ordalg"
SOURCES = sorted(
    path for folder in (PACKAGE, ROOT / "tests", ROOT / "perfbench", ROOT / "demos") for path in folder.glob("*.py")
)


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import random\nimport os\nos.getcwd()\n") == [(1, "random")]
    assert unused_imports("from a import b as c, d\nd()\n") == [(1, "c")]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


def imported_modules(source):
    """Top-level names of the absolute imports anywhere in a source, local ones included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found.update(name.split(".")[0] for name in names)
    return found


def foreign_imports(source, allowed):
    """Top-level names of the absolute imports that are not stdlib, ``ordalg`` or in ``allowed``."""
    return sorted(imported_modules(source) - set(sys.stdlib_module_names) - {"ordalg"} - allowed)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_imports_are_stdlib_the_package_or_a_sibling(path):
    allowed = {sibling.stem for sibling in path.parent.glob("*.py")}
    if path.parent.name == "tests":
        allowed.add("pytest")
    assert foreign_imports(path.read_text(encoding="utf-8"), allowed) == []


def test_the_scan_finds_a_foreign_import():
    source = "import os.path\nimport hypothesis.strategies\nfrom sympy import Rational\nfrom . import groups\n"
    assert foreign_imports(source, set()) == ["hypothesis", "sympy"]
    assert foreign_imports("import pytest\nimport ordalg.pea\nimport helper\n", {"helper"}) == ["pytest"]


def test_only_the_seeded_verbs_import_random():
    # functor and represent check on seeded draws; every other verdict of the
    # package is decided without them, so this set may only shrink
    importers = {
        path.name for path in PACKAGE.glob("*.py") if "random" in imported_modules(path.read_text(encoding="utf-8"))
    }
    assert importers == {"cli.py", "represent.py"}


def imports_sampling(source):
    """Whether a package source imports ``ordalg.sampling``, relatively or absolutely."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "ordalg" if node.level else ""
            base = ".".join(part for part in (base, node.module) if part)
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if "ordalg.sampling" in names:
            return True
    return False


def test_the_scan_finds_a_sampling_import():
    assert imports_sampling("from .sampling import sample_element\n")
    assert imports_sampling("from . import sampling\n")
    assert imports_sampling("import ordalg.sampling\n")
    assert imports_sampling("from ordalg.sampling import sample_positive\n")
    assert not imports_sampling("from .scalars import grid_points\nimport random\n")


def test_only_represent_imports_the_samplers():
    # represent's sampled checks draw through ordalg.sampling; every other
    # module decides without it, and the slice sampler is test-side
    importers = {path.name for path in PACKAGE.glob("*.py") if imports_sampling(path.read_text(encoding="utf-8"))}
    assert importers == {"represent.py"}


def imported_names(source):
    """Names bound by the ``from ... import`` statements of a source."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_the_scan_finds_an_imported_name():
    assert imported_names("from .scalars import Ordering, compare as c\nimport enum\n") == {"Ordering", "compare"}


def test_scalar_order_decisions_go_through_one_kernel():
    # every other module decides order by scalars._order_sign, and a lex head
    # by its descriptor's int-valued _sign
    importers = {
        path.name
        for path in PACKAGE.glob("*.py")
        if imported_names(path.read_text(encoding="utf-8")) & {"compare", "Ordering"}
    }
    assert importers == {"__init__.py"}
    # defined, assigned or called: a def, a bare name or an attribute
    names = {
        getattr(node, "name", None) or getattr(node, "id", None) or getattr(node, "attr", None)
        for node in ast.walk(ast.parse((PACKAGE / "groups.py").read_text(encoding="utf-8")))
    }
    assert "_sign" in names and "_linear_compare" not in names


RANDOM_PRIVATE = frozenset(name for name in dir(random.Random) if name.startswith("_") and not name.endswith("__"))


def random_private_reads(source):
    """(line, name) of each read of a private ``random.Random`` attribute, as an attribute or a string."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in RANDOM_PRIVATE:
            found.add((node.lineno, node.attr))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in RANDOM_PRIVATE:
            found.add((node.lineno, node.value))
    return sorted(found)


def test_the_scan_finds_a_private_random_read():
    assert "_randbelow" in RANDOM_PRIVATE
    assert random_private_reads("k = m + rng._randbelow(17)\n") == [(1, "_randbelow")]
    assert random_private_reads("draw = getattr(rng, '_randbelow')\n") == [(1, "_randbelow")]
    assert random_private_reads("k = m + rng.randrange(17)\n_randbelow = 3\n") == []


def test_no_module_reads_a_private_random_attribute():
    reads = {
        path.name: random_private_reads(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")
    }
    assert {name: found for name, found in reads.items() if found} == {}


ENVIRONMENT_NAMES = frozenset({"environ", "environb", "getenv", "getenvb"})


def environment_reads(source):
    """(line, name) of each read of the process environment through ``os``, under any alias."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "os"
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found.update((node.lineno, a.name) for a in node.names if a.name in ENVIRONMENT_NAMES)
        elif (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.add((node.lineno, node.attr))
    return sorted(found)


def test_the_scan_finds_an_environment_read():
    assert environment_reads("import os\nseed = os.environ.get('SEED', '0')\n") == [(2, "environ")]
    assert environment_reads("import os as o\nseed = o.getenv('SEED')\n") == [(2, "getenv")]
    assert environment_reads("from os import environ, path\n") == [(1, "environ")]
    assert environment_reads("import os\nos.dup2(os.open(os.devnull, os.O_WRONLY), 1)\n") == []
    assert environment_reads("environ = {}\nenviron.get('SEED')\n") == []


def test_no_module_reads_the_environment():
    # --seed and the other options are the only inputs of a run
    reads = {path.name: environment_reads(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    assert {name: found for name, found in reads.items() if found} == {}
