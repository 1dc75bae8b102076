"""Write a fixed matrix of CLI runs into one directory.

    python3 tools/run_matrix.py OUT

Runs, with the `edsim` of this checkout and at fixed seeds:

* every preset x {evolve, ensemble --process OU,
  ensemble --process ES --eta 0.05, limits} at the preset's defaults;
* geometry-check --outcomes 64 at seeds 0, 1 and 3;
* entropic-step.

Each run goes to OUT/<name>.  The exit code is 1 if any run exits non-zero
or fails `verify_run_dir`, else 0.  Every run is deterministic, so
`diff -r` of the OUT of two checkouts shows whether a change altered any
output byte.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from edsim.cli import main  # noqa: E402
from edsim.io import verify_run_dir  # noqa: E402
from edsim.presets import PRESETS  # noqa: E402

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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    failed = run_all(Path(sys.argv[1]))
    print(f"run_matrix: {len(matrix()) - len(failed)}/{len(matrix())} runs ok")
    sys.exit(1 if failed else 0)
