"""Spans around the package's public functions, installed from outside it.

``Tracer.install`` replaces every public function of the traced modules with
a timing wrapper, in the defining module and in every package module that
bound the same function object by ``from .x import f``.  Functions of the
leaf layers (scalars, groups, sampling, ``IntervalPea`` methods) are only
counted, per op kind; the other layers also keep one span record per call,
so memory stays bounded by the number of non-leaf calls.
``FinitePea.add``/``leq`` stay unwrapped: they are table lookups that would
time the wrapper rather than the work.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("scalars", "groups", "sampling", "riesz", "pea", "states", "decomp",
           "represent", "parsing", "cli")
LEAF_MODULES = ("scalars", "groups", "sampling")
QUADRATIC_METHODS = ("__add__", "__sub__", "__neg__", "__mul__", "sign", "__lt__", "__le__",
                     "__gt__", "__ge__")
INTERVAL_METHODS = ("contains", "add", "defined", "leq", "lneg", "rneg", "minus_left",
                    "minus_right", "times", "sample")


def _size_of(name, args, result):
    """Input/output sizes recorded for the two state-polytope kernels."""
    if name == "states.solve_affine":
        rows = args[0]
        return {"rows": len(rows), "cols": len(rows[0]) if rows else 0}
    if name == "states.extreme_rays":
        return {"dim": len(args[0][0]), "rays_out": len(result)}
    return None


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [child seconds, span id, module]
        self.stats = {}  # (op kind, function) -> [calls, seconds, self seconds, errors]
        self.sizes = {}  # function -> {size name: sum over calls}
        self.spans = []  # (op index, span id, parent span id, function, start, end)
        self.op_time = {}  # op kind -> seconds of traced op time
        self.kind = None
        self.op_index = None
        self._next_span = 0
        self._patched = []  # (owner, attribute, original)

    # -- installation --------------------------------------------------------

    def install(self, package):
        modules = {name: sys.modules[f"{package}.{name}"] for name in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrappers[fn] = self._wrap(f"{short}.{attr}", fn, short in LEAF_MODULES)
        # every package module that imported a wrapped function by name
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        qn = modules["scalars"].QuadraticNumber
        for meth in QUADRATIC_METHODS:
            self._patch(qn, meth, self._wrap(f"scalars.QuadraticNumber.{meth}", vars(qn)[meth], True))
        interval = modules["pea"].IntervalPea
        for meth in INTERVAL_METHODS:
            self._patch(interval, meth, self._wrap(f"pea.IntervalPea.{meth}", vars(interval)[meth], True))
        finite = modules["pea"].FinitePea
        self._patch(finite, "__init__", self._wrap("pea.FinitePea.init", vars(finite)["__init__"], False))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name, fn, leaf):
        tracer = self
        module = name.split(".", 1)[0]
        perf = time.perf_counter
        sized = name in ("states.solve_affine", "states.extreme_rays")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if leaf:
                span = parent[1] if parent else None
            else:
                span = tracer._next_span
                tracer._next_span += 1
            frame = [0.0, span, module]
            stack.append(frame)
            failed = True
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                t1 = perf()
                stack.pop()
                duration = t1 - t0
                key = (tracer.kind, name)
                st = tracer.stats.get(key)
                if st is None:
                    st = tracer.stats[key] = [0, 0.0, 0.0, 0]
                st[0] += 1
                st[1] += duration
                st[2] += duration - frame[0]
                if failed and (parent is None or parent[2] != module):
                    st[3] += 1
                if parent is not None:
                    parent[0] += duration
                if not leaf:
                    tracer.spans.append((tracer.op_index, span, parent[1] if parent else None,
                                         name, t0, t1))
            if sized:
                acc = tracer.sizes.setdefault(name, {})
                for k, v in _size_of(name, args, result).items():
                    acc[k] = acc.get(k, 0) + v
            return result

        return wrapper

    # -- queries ---------------------------------------------------------------

    def total(self, predicate, kinds=None):
        """Summed [calls, seconds, self seconds, errors] over matching functions."""
        out = [0, 0.0, 0.0, 0]
        for (kind, name), st in self.stats.items():
            if (kinds is None or kinds(kind)) and predicate(name):
                for i in range(4):
                    out[i] += st[i]
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tfunction\tstart_s\tend_s\n")
            for op, span, parent, name, t0, t1 in self.spans:
                fh.write(f"{op}\t{span}\t{'' if parent is None else parent}\t{name}\t{t0:.9f}\t{t1:.9f}\n")
