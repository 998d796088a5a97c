"""The package names the benchmark reads stay defined.

``perfbench/tracer.py`` counts each layer by wrapping the public module
functions of the modules it names, and ``perfbench/run.py`` reports one
per-function metric for each ``layer.fn`` it lists.  A name that disappears
from the package would not fail the benchmark: its metric would read 0.
The lists are read from the benchmark's source, which is left untouched.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# run.py list -> the ordalg module its names live in
FUNCTION_LISTS = {
    "GROUP_FUNCTIONS": "groups",
    "RIESZ_FUNCTIONS": "riesz",
    "PEA_FUNCTIONS": "pea",
    "DECOMP_FUNCTIONS": "decomp",
    "REPRESENT_FUNCTIONS": "represent",
    "PARSING_FUNCTIONS": "parsing",
}


def _constants(path, names):
    """The literal values assigned to ``names`` at the top level of ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in names:
                found[target.id] = ast.literal_eval(node.value)
    assert set(found) == set(names), f"missing in {path.name}: {set(names) - set(found)}"
    return found


@pytest.mark.parametrize("list_name", sorted(FUNCTION_LISTS))
def test_each_counted_function_is_a_public_module_function(list_name):
    layer = FUNCTION_LISTS[list_name]
    mod = importlib.import_module(f"ordalg.{layer}")
    fns = _constants(PERFBENCH / "run.py", FUNCTION_LISTS)[list_name]
    assert fns
    for fn in fns:
        if "." in fn:  # a method, e.g. FinitePea.init, wrapped on its class
            continue
        obj = getattr(mod, fn, None)
        assert not fn.startswith("_") and inspect.isfunction(obj), f"{layer}.{fn}"
        assert obj.__module__ == mod.__name__, f"{layer}.{fn} is defined in {obj.__module__}"


def test_each_traced_module_is_loaded_by_the_cli():
    import ordalg.cli  # noqa: F401

    modules = _constants(PERFBENCH / "tracer.py", ["MODULES"])["MODULES"]
    assert modules
    missing = [m for m in modules if f"ordalg.{m}" not in sys.modules]
    assert not missing
