"""The package names the benchmark reads stay defined.

``perfbench/tracer.py`` counts each layer by wrapping the public module
functions of the modules it names, and ``perfbench/run.py`` reports one
per-function metric for each ``layer.fn`` it lists.  A name that disappears
from the package would not fail the benchmark: its metric would read 0.
The tracer also wraps the ``QuadraticNumber`` and ``IntervalPea`` methods it
names and ``FinitePea.__init__``, read from each class's own namespace, so a
method that moves out of its class breaks the traced run.  The lists are read from the benchmark's
source, which is left untouched.
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


@pytest.mark.parametrize(
    "list_name, cls_name",
    [("QUADRATIC_METHODS", "scalars.QuadraticNumber"), ("INTERVAL_METHODS", "pea.IntervalPea")],
)
def test_each_traced_method_is_defined_on_its_class(list_name, cls_name):
    # the tracer wraps vars(cls)[meth]: an inherited or moved method is a KeyError
    module, name = cls_name.split(".")
    cls = getattr(importlib.import_module(f"ordalg.{module}"), name)
    methods = _constants(PERFBENCH / "tracer.py", [list_name])[list_name]
    assert methods
    for meth in methods:
        assert meth in vars(cls) and callable(vars(cls)[meth]), f"{cls_name}.{meth}"


def test_finite_pea_defines_the_traced_init():
    # the tracer wraps vars(FinitePea)["__init__"] as pea.FinitePea.init, and
    # the function-list test above skips that dotted name
    from ordalg.pea import FinitePea

    assert "__init__" in vars(FinitePea) and callable(vars(FinitePea)["__init__"])
