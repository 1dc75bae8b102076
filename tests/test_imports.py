"""Every name a module of the package imports is used in that module, and
a cold start of the command line imports no module it does not need.

The package's `__init__` is skipped: it imports nothing (see
`test_api_reach.py`).
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "edsim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}   # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_the_modules_were_found():
    assert {"cli.py", "stochastic.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


# modules the package imports only in the code that runs them: the sparse
# Hamiltonian and Crank-Nicolson, the LU of Crank-Nicolson, and the helper
# thread that draws the noise of large ensembles
LAZY = ("scipy.sparse", "scipy.sparse.linalg", "concurrent.futures")
# scipy itself is loaded by every command that writes a run, for the
# manifest's version string (`RunWriter.finish`), and by no other


def _fresh(code: str, *args: str) -> list[str]:
    """The lines a fresh interpreter prints running `code` with `args` in
    sys.argv[1:] and this checkout's package first on its path."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True, check=True,
                         timeout=120, env=dict(os.environ, PYTHONPATH=path))
    return out.stdout.splitlines()


def _loaded_by(*argv: str, modules: tuple[str, ...] = LAZY) -> set[str]:
    """Which of `modules` a fresh interpreter holds after `edsim` ran
    `argv`."""
    probe = ("import sys, edsim.cli\n"
             "rc = edsim.cli.main(sys.argv[1:])\n"
             f"print('loaded:', *(m for m in {modules!r} if m in sys.modules))\n"
             "sys.exit(rc)")
    tag, *names = _fresh(probe, *argv)[-1].split()
    assert tag == "loaded:"
    return set(names)


def test_a_cold_start_leaves_scipy_optimize_out():
    """Importing the command line does not load scipy.optimize: the package
    does not use it (the minimized Fubini-Study length finds its minimum
    as the vertex of a parabola), and no module it imports should load it."""
    probe = "import sys, edsim.cli; print('scipy.optimize' in sys.modules)"
    assert _fresh(probe) == ["False"]


def test_a_cold_start_leaves_scipy_out():
    """Importing the command line loads no scipy at all: `edsim.io` reads
    its version only when a run's manifest is written."""
    probe = "import sys, edsim.cli; print('scipy' in sys.modules)"
    assert _fresh(probe) == ["False"]


@pytest.mark.parametrize("argv", [["entropic-step"],
                                  ["geometry-check", "--outcomes", "8"]],
                         ids=lambda argv: argv[0])
def test_a_command_that_steps_no_wave_leaves_the_lazy_imports_out(
        argv, tmp_path):
    assert _loaded_by(*argv, "--out", str(tmp_path / "run")) == set()


def test_report_leaves_the_lazy_imports_out(tmp_path):
    from edsim.cli import main

    run = tmp_path / "run"
    assert main(["evolve", "--preset", "free", "--steps", "2",
                 "--out", str(run)]) == 0
    assert _loaded_by("report", str(run)) == set()


def test_report_leaves_scipy_out(tmp_path):
    """`report` reads a finished run and writes none, so it loads no
    scipy."""
    from edsim.cli import main

    run = tmp_path / "run"
    assert main(["evolve", "--preset", "free", "--steps", "2",
                 "--out", str(run)]) == 0
    assert _loaded_by("report", str(run), modules=("scipy",)) == set()


def test_evolve_in_per_axis_modes_leaves_the_sparse_lu_out(tmp_path):
    loaded = _loaded_by("evolve", "--preset", "vortex_2d", "--steps", "2",
                        "--out", str(tmp_path / "run"))
    assert "scipy.sparse" in loaded
    assert "scipy.sparse.linalg" not in loaded


def test_evolve_on_a_line_loads_the_sparse_lu(tmp_path):
    loaded = _loaded_by("evolve", "--preset", "free", "--steps", "2",
                        "--out", str(tmp_path / "run"))
    assert {"scipy.sparse", "scipy.sparse.linalg"} <= loaded
