"""Write a fixed matrix of CLI runs into one directory.

    python3 tools/run_matrix.py OUT [--against BASE]

Runs, with the `edsim` of this checkout and at fixed seeds:

* every preset x {evolve, ensemble --process OU,
  ensemble --process ES --eta 0.05, limits} at the preset's defaults;
* ensemble --preset free --dt 0.1 --steps 300, whose walkers cross the
  ring's seam (the shift branch of `grids.mod_period`);
* ensemble --preset harmonic --gamma 1.5 --eta 0.5, a fluctuation law
  with gamma outside {1, 3} (the fractional process);
* geometry-check --outcomes 64 at seeds 0, 1 and 3;
* entropic-step.

Each run goes to OUT/<name>.  The exit code is 1 if any run exits non-zero
or fails `verify_run_dir`, else 0.  Every run is deterministic, so
`diff -r` of the OUT of two checkouts shows whether a change altered any
output byte.

`--against BASE` then compares OUT with the OUT of another checkout. It
names each run that has no directory on one side, and prints, for each
run whose bytes differ, how far its numbers moved: for every numeric
array of its JSON and CSV files, the largest |change| relative to that
array's peak in BASE (the absolute one in brackets), and whether the
run's verdicts (`VERDICTS`) are the same.  Numbers under one key path are
one array, with list positions written as `[]`: `checkpoints[].tv` holds
the TV of every checkpoint.  The comparison does not change the exit
code.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from edsim.cli import main  # noqa: E402
from edsim.io import load_json, verify_run_dir  # noqa: E402
from edsim.presets import PRESETS  # noqa: E402

# report keys that carry a run's verdict or its counts; they must not move
VERDICTS = ("n_passed", "escaped", "final_histogram", "monotone",
            "all_passed")

SUBCOMMANDS = {
    "evolve": ["evolve"],
    "ensemble-OU": ["ensemble", "--process", "OU"],
    "ensemble-ES": ["ensemble", "--process", "ES", "--eta", "0.05"],
    "limits": ["limits"],
}


def matrix() -> dict[str, list[str]]:
    """Run name -> argv without --out."""
    runs = {f"{name}-{preset}": argv + ["--preset", preset]
            for preset in sorted(PRESETS)
            for name, argv in SUBCOMMANDS.items()}
    runs["ensemble-free-seam"] = ["ensemble", "--preset", "free",
                                  "--dt", "0.1", "--steps", "300"]
    runs["ensemble-fractional-harmonic"] = [
        "ensemble", "--preset", "harmonic", "--gamma", "1.5", "--eta", "0.5"]
    for seed in (0, 1, 3):
        runs[f"geometry-check-seed{seed}"] = [
            "geometry-check", "--outcomes", "64", "--seed", str(seed)]
    runs["entropic-step"] = ["entropic-step"]
    return runs


def run_all(out: Path) -> list[str]:
    """Write every run under `out`; return the names of the failed ones."""
    failed = []
    for name, argv in matrix().items():
        rc = main(argv + ["--out", str(out / name)])
        check = verify_run_dir(out / name) if rc == 0 else None
        if not (check and check["complete"] and not check["mismatches"]):
            print(f"run_matrix: {name} failed (exit {rc})", file=sys.stderr)
            failed.append(name)
    return failed


def _collect(obj, path: str, found: dict) -> None:
    """Append every number under `obj` to `found[key path]`."""
    if isinstance(obj, np.ndarray):
        found.setdefault(path, []).append(obj.ravel())
    elif isinstance(obj, dict):
        for key, val in obj.items():
            _collect(val, f"{path}.{key}" if path else key, found)
    elif isinstance(obj, list):
        for val in obj:
            _collect(val, path + "[]", found)
    elif isinstance(obj, (int, float, complex)) and not isinstance(obj, bool):
        found.setdefault(path, []).append(np.array([obj]))


def _numeric_arrays(path: Path) -> dict[str, np.ndarray]:
    """Key path -> every number under it, of a JSON or CSV run file; a CSV
    gives one array per column."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        return {col: np.array([float(r[i]) for r in rows])
                for i, col in enumerate(header)}
    found: dict[str, list] = {}
    _collect(load_json(path), "", found)
    return {key: np.concatenate(parts) for key, parts in found.items()}


def _moved(new: np.ndarray, old: np.ndarray) -> str | None:
    """The largest |new - old| relative to old's peak, then in brackets the
    absolute one; a note when the shapes differ; None when the arrays are
    equal."""
    if new.shape != old.shape:
        return f"shape {old.shape} -> {new.shape}"
    gap = float(np.max(np.abs(new - old), initial=0.0))
    if gap == 0:
        return None
    peak = float(np.max(np.abs(old)))
    return f"{gap / peak if peak else np.inf:.1e} [{gap:.1e}]"


def _file_moves(new: Path, old: Path) -> str:
    """What moved between two copies of one JSON or CSV run file."""
    a, b = _numeric_arrays(new), _numeric_arrays(old)
    moved = [f"{key} {gap}" for key in sorted(a.keys() & b.keys())
             if (gap := _moved(a[key], b[key]))]
    moved += [f"{key} new" for key in sorted(a.keys() - b.keys())]
    moved += [f"{key} gone" for key in sorted(b.keys() - a.keys())]
    return ", ".join(moved) or "no number moved"


def _verdicts(run: Path, base: Path) -> str | None:
    """Whether each of `VERDICTS` in report.json is the same in both."""
    if not ((run / "report.json").is_file()
            and (base / "report.json").is_file()):
        return None
    new, old = load_json(run / "report.json"), load_json(base / "report.json")
    keys = [key for key in VERDICTS if key in new.keys() & old.keys()]
    return ", ".join(
        f"{key} {'same' if np.array_equal(new[key], old[key]) else 'DIFFERS'}"
        for key in keys) or None


def _compare_run(run: Path, base: Path) -> list[str]:
    """What moved in one run against the same run under BASE: one line per
    differing file, then the verdicts.  Empty when every byte is the same.
    manifest.json is skipped: it holds only hashes of the other files."""
    names = sorted(({p.name for p in run.iterdir()}
                    | {p.name for p in base.iterdir()}) - {"manifest.json"})
    lines = []
    for name in names:
        new, old = run / name, base / name
        if not (new.is_file() and old.is_file()):
            where = "OUT" if new.is_file() else "BASE"
            lines.append(f"{name}: only in {where}")
        elif new.read_bytes() != old.read_bytes():
            lines.append(name if new.suffix not in (".json", ".csv")
                         else f"{name}: {_file_moves(new, old)}")
    if not lines:
        return []
    verdicts = _verdicts(run, base)
    return lines + ([f"verdicts: {verdicts}"] if verdicts else [])


def compare_all(out: Path, base: Path) -> None:
    """Print what moved in every run of the matrix against BASE; a run
    with no directory on one side (new in this matrix, or failed) is
    named and not compared."""
    differ = compared = 0
    for name in matrix():
        absent = [side for side, root in (("OUT", out), ("BASE", base))
                  if not (root / name).is_dir()]
        if absent:
            print(f"{name}: no run in {' or '.join(absent)}")
            continue
        compared += 1
        lines = _compare_run(out / name, base / name)
        if lines:
            differ += 1
            print(f"{name}:")
            for line in lines:
                print(f"    {line}")
    print(f"run_matrix: {differ}/{compared} runs differ from {base}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", type=Path)
    parser.add_argument("--against", type=Path, metavar="BASE")
    args = parser.parse_args()
    failed = run_all(args.out)
    print(f"run_matrix: {len(matrix()) - len(failed)}/{len(matrix())} runs ok")
    if args.against is not None:
        compare_all(args.out, args.against)
    sys.exit(1 if failed else 0)
