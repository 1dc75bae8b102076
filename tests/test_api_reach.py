"""Every public name of the package is reached by a real caller.

A public function, class, method or property that only unit tests name is
API the contract does not use; it belongs in the tests that need it.  The
real callers are the package's modules, the benchmark in `perfbench/`,
the scripts in `tools/` and the acceptance suite.  A name counts as
reached when one of them names it, as an identifier or an attribute,
outside its own definition.  Names are matched bare, so a same-named use
elsewhere also counts: the check can miss an unreached name but never
flags a reached one.  The package itself binds only `__version__`: every
name is imported from the module that defines it.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "edsim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CALLERS = (MODULES + sorted(ROOT.glob("perfbench/*.py"))
           + sorted(ROOT.glob("tools/*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _names(tree: ast.AST) -> Counter:
    """How often each identifier is named in `tree`."""
    seen = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            seen[node.id] += 1
        elif isinstance(node, ast.Attribute):
            seen[node.attr] += 1
    return seen


def _public() -> dict[str, tuple[str, ast.AST]]:
    """'module.name' or 'module.Class.name' -> (name, definition) for every
    public module-level function and class and every public method or
    property of a module-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = {}
    for path in MODULES:
        for node in _parse(path).body:
            if not isinstance(node, defs) or node.name.startswith("_"):
                continue
            found[f"{path.stem}.{node.name}"] = (node.name, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, defs[:2])
                            and not item.name.startswith("_")):
                        label = f"{path.stem}.{node.name}.{item.name}"
                        found[label] = (item.name, item)
    return found


def _unreached() -> list[str]:
    named = Counter()
    for path in CALLERS:
        named += _names(_parse(path))
    # a definition's own body (recursion, a class naming its own method)
    # does not reach it
    return sorted(label for label, (name, node) in _public().items()
                  if named[name] - _names(node)[name] <= 0)


def test_the_census_finds_definitions_and_uses():
    public = _public()
    assert "stochastic.simulate_ensemble" in public
    assert "quantum.CrankNicolson.step" in public
    assert "grids.ConfigGrid.dim" in public
    assert "grids._shift" not in public


def test_every_public_name_is_reached_by_a_real_caller():
    assert _unreached() == []


def test_the_package_binds_only_its_version():
    """`__init__.py` is its docstring and one assignment of `__version__`:
    no import, definition or other statement."""
    docstring, *rest = _parse(PACKAGE / "__init__.py").body
    assert isinstance(docstring, ast.Expr)
    assert [ast.unparse(n).partition(" = ")[0] for n in rest] \
        == ["__version__"]
