"""Time each subcommand of the command line in fresh interpreters.

    python3 tools/cold_start.py [--rounds N] [--against BASE] [--json PATH]

Runs each case of `CASES` in a fresh interpreter per run, with the
`edsim` of this checkout, N rounds (default 10), and prints per case the
median wall time of a run (interpreter start, imports and the command) and
which of `scipy.sparse` and `scipy.sparse.linalg` the run had loaded when
it ended.  The `setup` case imports the command line and builds the
presets `interference` and `vortex_2d`, as the set-up script of
`perfbench/run.py` does for `wave_geometry`; `report` reads a run that
this checkout's `entropic-step` wrote first.

`--against BASE` names another checkout of the repository: every run is
then made once with each checkout, alternating which goes first from one
round to the next, and the table gains BASE's medians, the median over
rounds of this checkout's time minus BASE's in the same round, and the
number of rounds this checkout was faster.  The machine's speed drifts
from round to round, so the paired difference is the steadier of the two
comparisons.  `--json PATH` writes every run's time and loaded modules.

Wall time is read around each child, waited for without a timeout: with
one, the wait would poll in steps of up to 50 ms.  Times from one box and
one invocation compare; times from two do not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the modules a run reports as loaded, by their short names
WATCHED = {"scipy.sparse": "sparse", "scipy.sparse.linalg": "linalg"}

# Runs `sys.argv[2:]` through the command line of the package under
# sys.argv[1] (or, for the `setup` case, builds the presets it names), then
# prints the watched modules that were loaded as its last line.
PROBE = f"""
import sys
sys.path.insert(0, sys.argv[1])
import edsim.cli
if not edsim.cli.__file__.startswith(sys.argv[1]):
    sys.exit("imported edsim from " + edsim.cli.__file__)
if sys.argv[2] == "setup":
    for name in sys.argv[3:]:
        edsim.cli.build_preset(name)
    rc = 0
else:
    rc = edsim.cli.main(sys.argv[2:])
print("loaded:", *(short for name, short in {WATCHED!r}.items()
                   if name in sys.modules))
sys.exit(rc)
"""

# case name -> argv; OUT is replaced by a fresh output directory and RUN by
# the run that the checkout's `entropic-step` wrote
CASES = {
    "setup": ["setup", "interference", "vortex_2d"],
    "entropic-step": ["entropic-step", "--out", "OUT"],
    "geometry-check": ["geometry-check", "--outcomes", "64", "--out", "OUT"],
    "report": ["report", "RUN"],
    "evolve vortex_2d": ["evolve", "--preset", "vortex_2d", "--out", "OUT"],
    "evolve interference": ["evolve", "--preset", "interference",
                            "--out", "OUT"],
    "ensemble free": ["ensemble", "--preset", "free", "--out", "OUT"],
    "limits interference": ["limits", "--preset", "interference",
                            "--out", "OUT"],
}


def run_case(checkout: Path, argv: list[str], scratch: Path) -> dict:
    """One fresh-interpreter run of `argv` with the package of `checkout`:
    its wall time in seconds and the watched modules it had loaded."""
    out = tempfile.mkdtemp(dir=scratch)
    argv = [str(Path(out) / "run") if a == "OUT" else a for a in argv]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(checkout / "src"), *argv],
        capture_output=True, text=True, cwd=scratch)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"cold_start: {' '.join(argv)} with {checkout} "
                           f"exited {done.returncode}: {done.stderr.strip()}")
    tag, *loaded = done.stdout.splitlines()[-1].split()
    if tag != "loaded:":
        raise RuntimeError(f"cold_start: no probe line from {' '.join(argv)}")
    return {"s": wall, "loaded": loaded}


def measure(checkouts: list[Path], rounds: int, scratch: Path) -> dict:
    """Every case `rounds` times with each checkout, alternated: checkout
    -> case -> list of runs."""
    runs = {str(c): {case: [] for case in CASES} for c in checkouts}
    reports = {}
    for c in checkouts:   # the run each checkout's `report` reads
        reports[c] = str(Path(tempfile.mkdtemp(dir=scratch)) / "run")
        run_case(c, ["entropic-step", "--out", reports[c]], scratch)
    for k in range(rounds):
        order = checkouts if k % 2 == 0 else checkouts[::-1]
        for case, argv in CASES.items():
            for c in order:
                args = [reports[c] if a == "RUN" else a for a in argv]
                runs[str(c)][case].append(run_case(c, args, scratch))
    return runs


def _loads(runs: list[dict]) -> str:
    """The watched modules the runs loaded, '/' between distinct sets."""
    sets = sorted({"+".join(r["loaded"]) or "-" for r in runs})
    return "/".join(sets)


def table(runs: dict, checkout: Path, base: Path | None) -> list[str]:
    """One line per case: medians, loaded modules and, against BASE, the
    median paired difference and the rounds this checkout won."""
    mine = runs[str(checkout)]
    head = f"{'case':<22}{'this (s)':>10}  {'loads':<14}"
    if base is not None:
        head += f"{'base (s)':>10}  {'loads':<14}{'diff (s)':>10}{'wins':>7}"
    lines = [head]
    for case in CASES:
        a = mine[case]
        line = (f"{case:<22}{statistics.median(r['s'] for r in a):>10.3f}"
                f"  {_loads(a):<14}")
        if base is not None:
            b = runs[str(base)][case]
            diff = statistics.median(x["s"] - y["s"] for x, y in zip(a, b))
            wins = sum(x["s"] < y["s"] for x, y in zip(a, b))
            line += (f"{statistics.median(r['s'] for r in b):>10.3f}"
                     f"  {_loads(b):<14}{diff:>+10.3f}{wins:>4}/{len(a)}")
        lines.append(line)
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--against", type=Path, metavar="BASE")
    parser.add_argument("--json", type=Path, metavar="PATH")
    args = parser.parse_args()
    if args.rounds < 1:
        sys.exit("cold_start: --rounds must be at least 1")
    base = None if args.against is None else args.against.resolve()
    if base is not None and not (base / "src" / "edsim" / "cli.py").is_file():
        sys.exit(f"cold_start: no edsim sources under {base / 'src'}")
    checkouts = [ROOT] + ([base] if base is not None else [])
    with tempfile.TemporaryDirectory() as scratch:
        runs = measure(checkouts, args.rounds, Path(scratch))
    print("\n".join(table(runs, ROOT, base)))
    if args.json is not None:
        args.json.write_text(json.dumps(runs, indent=1) + "\n")
