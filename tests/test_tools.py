"""The scripts in `tools/` still run against the package.

Nothing else executes them, so a changed signature in the package would
break them silently.  The seed sweep runs one preset at one seed and a few
hundred walkers, the limit sweep one preset at one seed and a few dozen
walkers; the run matrix, each of whose runs is a CLI call tested
elsewhere, is imported and lists its runs, and its comparison of two run
directories is run on two tiny ones.  The cold-start timer makes one
fresh-interpreter run and tabulates it.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_sweep_runs_a_short_case(monkeypatch, capsys):
    sweep = _load("seed_sweep")
    monkeypatch.setattr(sweep, "WALKERS", 300)
    monkeypatch.setattr(sweep, "PRESETS", ("free",))
    sweep.sweep(range(1, 2))
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["case", "1", "pass"]
    assert [row.split()[0] for row in rows] == ["free/OU", "free/ES"]
    for row in rows:
        # a record every steps // 6 steps: 7 checkpoints
        assert 0 <= int(row.split()[1].rstrip("u")) <= 7


def test_limit_sweep_runs_a_short_case(monkeypatch, capsys):
    sweep = _load("limit_sweep")
    monkeypatch.setattr(sweep, "LIMIT_WALKERS", 40)
    monkeypatch.setattr(sweep, "PRESETS", ("free",))
    sweep.sweep(range(1, 2))
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["preset", "1", "mean", "sd"]
    name, exponent, mean, sd = row.split()
    assert name == "free" and sd == "-"
    assert float(exponent.rstrip("*")) == float(mean)


def test_run_matrix_imports():
    matrix = _load("run_matrix").matrix()
    assert len(matrix) == 30


def test_cold_start_times_one_fresh_run(tmp_path):
    cold = _load("cold_start")
    run = cold.run_case(cold.ROOT, cold.CASES["entropic-step"], tmp_path)
    assert run["s"] > 0 and run["loaded"] == []
    runs = {str(cold.ROOT): {case: [run] for case in cold.CASES}}
    head, *rows = cold.table(runs, cold.ROOT, None)
    assert head.split() == ["case", "this", "(s)", "loads"]
    assert [row.split()[-1] for row in rows] == ["-"] * len(cold.CASES)


def _run_dir(path: Path, tv: list[float]) -> Path:
    """A run directory with a report of checkpoint TVs and a manifest."""
    path.mkdir()
    report = {"n_passed": 2, "checkpoints": [{"tv": x} for x in tv]}
    (path / "report.json").write_text(json.dumps(report))
    (path / "manifest.json").write_text(json.dumps({"tv": tv}))
    return path


def test_run_matrix_names_what_moved(tmp_path):
    compare = _load("run_matrix")._compare_run
    base = _run_dir(tmp_path / "base", [0.5, 0.25])
    same = _run_dir(tmp_path / "same", [0.5, 0.25])
    assert compare(same, base) == []
    moved = _run_dir(tmp_path / "moved", [0.5, 0.375])
    assert compare(moved, base) == [
        "report.json: checkpoints[].tv 2.5e-01 [1.2e-01]",
        "verdicts: n_passed same"]


def test_run_matrix_names_a_run_without_a_counterpart(tmp_path, monkeypatch,
                                                      capsys):
    tool = _load("run_matrix")
    monkeypatch.setattr(tool, "matrix", lambda: {"old": [], "new": []})
    (tmp_path / "out").mkdir()
    (tmp_path / "base").mkdir()
    for run in ("out/old", "base/old", "out/new"):
        _run_dir(tmp_path / run, [0.5])
    tool.compare_all(tmp_path / "out", tmp_path / "base")
    assert capsys.readouterr().out.splitlines() == [
        "new: no run in BASE",
        f"run_matrix: 0/1 runs differ from {tmp_path / 'base'}"]
