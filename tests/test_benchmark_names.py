"""The benchmark's per-layer tracer reads edsim by name.

`perfbench/layers.py` wraps functions and methods by their names and reports
0 for a name that matches nothing, so a deleted or renamed function would
zero a per-layer metric without an error.  These tests read that file (they
do not import or run it) and check that every name it uses still resolves
in the package the way the tracer resolves it.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import scipy.sparse.linalg

LAYERS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
TREE = ast.parse(LAYERS_FILE.read_text())


def _assigned(name: str) -> ast.expr:
    for node in TREE.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == name):
            return node.value
    raise LookupError(f"{name} is not assigned in {LAYERS_FILE.name}")


LAYERS = ast.literal_eval(_assigned("LAYERS"))
METHODS = ast.literal_eval(_assigned("METHODS"))
COUNTERS = _assigned("COUNTERS")


def _called_with_literal(callees: set[str]) -> list[str]:
    """First arguments of the calls to `callees` that are string literals."""
    names = []
    for node in ast.walk(TREE):
        if not (isinstance(node, ast.Call) and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            continue
        func = node.func
        callee = getattr(func, "id", None) or getattr(func, "attr", None)
        if callee in callees:
            names.append(node.args[0].value)
    return names


def _traced_function(name: str):
    """The edsim function the tracer wraps as `layer.attr`, or None."""
    layer, _, attr = name.partition(".")
    if layer not in LAYERS or attr.startswith("_"):
        return None
    mod = importlib.import_module(f"edsim.{layer}")
    obj = getattr(mod, attr, None)
    if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
        return obj
    return None


def _resolves(name: str) -> bool:
    parts = name.split(".")
    if parts[:2] == ["quantum", "lu"]:
        # the LU factorizations are traced in scipy, not in edsim
        return hasattr(scipy.sparse.linalg, parts[2])
    if len(parts) == 3:
        layer, cls_name, meth = parts
        cls = getattr(importlib.import_module(f"edsim.{layer}"), cls_name, None)
        return (meth in METHODS.get(layer, {}).get(cls_name, ())
                and meth in getattr(cls, "__dict__", {}))
    return _traced_function(name) is not None


def test_every_timed_name_resolves():
    names = set(_called_with_literal({"t", "calls", "total"}))
    # the parse found the metric table, not an empty list
    assert len(names) >= 20 and "stochastic.simulate_ensemble" in names
    assert sorted(n for n in names if not _resolves(n)) == []


def test_every_traced_method_exists():
    names = [f"{layer}.{cls_name}.{meth}"
             for layer, classes in METHODS.items()
             for cls_name, methods in classes.items() for meth in methods]
    assert sorted(n for n in names if not _resolves(n)) == []
    # a summed prefix such as "io.RunWriter." must cover a traced method
    for prefix in _called_with_literal({"prefix_total"}):
        assert any(n.startswith(prefix) for n in names), prefix


def test_counter_hooks_read_existing_parameters():
    """A counter hook reads its function's arguments by parameter name."""
    missing = []
    for key, hook in zip(COUNTERS.keys, COUNTERS.values):
        func = _traced_function(key.value)
        if func is None:
            missing.append(key.value)
            continue
        params = inspect.signature(func).parameters
        args = hook.args.args[0].arg
        read = [node.slice.value for node in ast.walk(hook.body)
                if isinstance(node, ast.Subscript)
                and getattr(node.value, "id", None) == args]
        assert read, key.value
        missing += [f"{key.value}({p})" for p in read if p not in params]
    assert missing == []
