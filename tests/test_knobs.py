"""Every defaulted parameter of the package is set by a real caller, and
every default is used by one.

A default that only unit tests override is a knob the contract does not
use; it belongs in a module constant.  A default that every real caller
overrides is a test-only convenience, or a second copy of a command-line
default; the parameter should be required.  The real callers are the
package itself, the benchmark in `perfbench/`, the scripts in `tools/` and
the acceptance suite.  A call sets a parameter by keyword or by position,
and calls are matched to functions by their bare name, so a same-named
call elsewhere also counts: each check can miss a parameter but never
flags a good one.  A class call counts as a call of its `__init__`, and
`build_preset(name, **overrides)` as a call of every preset builder.  A
`**name` argument sets the string keys stored into `name[...]` in the same
module.  Parameters set only elsewhere are listed in ALLOWED, defaults that
every real caller overrides in ALWAYS_SET, each with its reason.
"""

from __future__ import annotations

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "edsim"
CALLERS = (sorted(PACKAGE.glob("*.py")) + sorted(ROOT.glob("perfbench/*.py"))
           + sorted(ROOT.glob("tools/*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])

ALLOWED = {
    "presets._vortex_2d(winding)":
        "the sign and size of the vortex, set through build_preset by the "
        "tests of Bohmian paths around a vortex of winding -1 and 2",
}

ALWAYS_SET: dict[str, str] = {}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _preset_builders() -> set[str]:
    for node in _parse(PACKAGE / "presets.py").body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "PRESETS"):
            return {v.id for v in node.value.values}
    raise LookupError("presets.py assigns no PRESETS dict")


def _defaulted() -> dict[str, tuple[str, str, int | None]]:
    """'module.function(param)' -> (callee name, param, positional index)
    for every parameter with a default; methods skip self or cls."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        methods = {id(f): cls.name for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for f in cls.body}
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = func.args
            cls = methods.get(id(func))
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in func.decorator_list)
            skip = 1 if cls and not static else 0
            callee = cls if func.name == "__init__" else func.name
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            params = [(p.arg, i - skip) for i, p in enumerate(positional)
                      if i >= first]
            params += [(p.arg, None) for p, d in zip(a.kwonlyargs,
                                                     a.kw_defaults)
                       if d is not None]
            for name, index in params:
                found[f"{path.stem}.{func.name}({name})"] = (callee, name,
                                                            index)
    return found


def _call_sites() -> list[tuple[str, float, set[str]]]:
    """(callee name, positional arguments, keywords) of each call in
    CALLERS."""
    builders = _preset_builders()
    sites = []
    for path in CALLERS:
        tree = _parse(path)
        stored = {}   # dict name -> string keys stored into it
        for node in ast.walk(tree):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and isinstance(node.slice, ast.Constant)):
                stored.setdefault(node.value.id, set()).add(node.slice.value)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = (getattr(node.func, "id", None)
                    or getattr(node.func, "attr", None))
            starred = any(isinstance(x, ast.Starred) for x in node.args)
            n_args = math.inf if starred else len(node.args)
            keywords = set()
            for kw in node.keywords:
                if kw.arg is not None:
                    keywords.add(kw.arg)
                elif isinstance(kw.value, ast.Name):
                    keywords |= stored.get(kw.value.id, set())
            targets = [name]
            if name == "build_preset":
                targets += sorted(builders)
                n_args = 0   # the first argument is the preset's name
            sites += [(target, n_args, keywords) for target in targets]
    return sites


def _calls() -> dict[str, tuple[float, set[str]]]:
    """Callee name -> (most positional arguments, keywords) over CALLERS."""
    seen: dict[str, tuple[float, set[str]]] = {}
    for target, n_args, keywords in _call_sites():
        most, kws = seen.get(target, (0, set()))
        seen[target] = (max(most, n_args), kws | keywords)
    return seen


def _unset() -> list[str]:
    calls = _calls()
    unset = []
    for label, (callee, name, index) in _defaulted().items():
        most, keywords = calls.get(callee, (0, set()))
        if name not in keywords and (index is None or index >= most):
            unset.append(label)
    return sorted(unset)


def _never_omitted() -> list[str]:
    sites: dict[str, list[tuple[float, set[str]]]] = {}
    for target, n_args, keywords in _call_sites():
        sites.setdefault(target, []).append((n_args, keywords))
    return sorted(
        label for label, (callee, name, index) in _defaulted().items()
        if not any(name not in keywords and (index is None or index >= n)
                   for n, keywords in sites.get(callee, ())))


def test_the_census_finds_defaults_and_calls():
    defaulted = _defaulted()
    assert "stochastic.simulate_ensemble(record_stride)" in defaulted
    assert "presets._free(points)" in defaulted
    calls = _calls()
    assert "record_stride" in calls["simulate_ensemble"][1]
    # the command line's overrides reach every preset builder
    assert {"points", "dt", "steps"} <= calls["_free"][1]


def test_every_defaulted_parameter_is_set_by_a_real_caller():
    unset = _unset()
    assert [p for p in unset if p not in ALLOWED] == []


def test_every_allowed_parameter_is_still_unset():
    assert sorted(set(ALLOWED) - set(_unset())) == []


def test_every_default_is_used_by_a_real_caller():
    never = _never_omitted()
    assert [p for p in never if p not in ALWAYS_SET] == []
    assert sorted(set(ALWAYS_SET) - set(never)) == []
