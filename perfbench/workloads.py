"""Workloads of the edsim benchmark: CLI commands and their output checks.

Each workload is a list of `edsim` commands run one after another in one
process through `edsim.cli.main(argv)`.  The benchmark adds `--seed <seed>`
to every command that takes one, and `--out <dir>` to all of them.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


def check_evolve(report: dict) -> list[str]:
    # the tolerances of acceptance item 1 (unitarity and energy)
    problems = []
    if not report["max_norm_gap"] < 1e-10:
        problems.append(f"norm gap {report['max_norm_gap']:.3e} >= 1e-10")
    if not report["energy_drift_rel"] < 1e-8:
        problems.append(
            f"energy drift {report['energy_drift_rel']:.3e} >= 1e-8")
    return problems


def check_ensemble(report: dict) -> list[str]:
    # The per-checkpoint band verdict is not checked: at a fixed seed it
    # fails often enough by chance to make the count of failures noisy.
    # `ensemble.tv_ratio` tracks the same quantity as a number instead.
    if report["escaped"] > 0.01 * report["walkers"]:
        return [f"{report['escaped']} of {report['walkers']} walkers escaped"]
    return []


def check_limits(report: dict) -> list[str]:
    return [] if report["monotone"] else ["deviations not monotone in eta"]


def check_geometry(report: dict) -> list[str]:
    return [] if report["all_passed"] else ["identity battery failed"]


def check_entropic(report: dict) -> list[str]:
    problems = []
    if not report["maximizer"]["all_nonnegative"]:
        problems.append("maximizer check failed")
    if not abs(report["mass_drift"]) < 1e-6:
        problems.append(f"mass drift {report['mass_drift']:.3e}")
    return problems


@dataclass(frozen=True)
class Command:
    name: str                 # metric stem, e.g. "ensemble.free_ou"
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]
    warmup: tuple[str, ...]   # appended to argv for the reduced warm-up call
    seeded: bool = True       # the subcommand takes --seed
    timed: bool = True        # counts in cmd_time_rel

    def args(self, seed: int, out: Path, warm: bool = False) -> list[str]:
        argv = list(self.argv)
        if self.seeded:
            argv += ["--seed", str(seed)]
        if warm:
            argv += list(self.warmup)
        return argv + ["--out", str(out)]


SHORT = ("--steps", "4")
WALKERS_SHORT = ("--steps", "4", "--walkers", "1000", "--calibration", "10")

WORKLOADS = {
    "walkers_bulk": (
        Command("ensemble.free_ou",
                ("ensemble", "--preset", "free", "--process", "OU",
                 "--walkers", "100000"), check_ensemble, WALKERS_SHORT),
        Command("ensemble.harmonic_es",
                ("ensemble", "--preset", "harmonic", "--process", "ES",
                 "--eta", "0.05", "--walkers", "100000"),
                check_ensemble, WALKERS_SHORT),
        # Crashes with IndexError on 2-D grids at the time of writing; it
        # is run and counted as failed, and is left out of cmd_time_rel
        # so that fixing it does not read as a slowdown.
        Command("ensemble.vortex_2d", ("ensemble", "--preset", "vortex_2d"),
                check_ensemble, WALKERS_SHORT, timed=False),
    ),
    "walkers_sparse": (
        Command("limits.interference",
                ("limits", "--preset", "interference"), check_limits,
                SHORT),
        Command("limits.harmonic",
                ("limits", "--preset", "harmonic"), check_limits, SHORT),
    ),
    "wave_geometry": (
        Command("evolve.interference",
                ("evolve", "--preset", "interference"), check_evolve, SHORT,
                seeded=False),
        Command("evolve.vortex_2d",
                ("evolve", "--preset", "vortex_2d"), check_evolve, SHORT,
                seeded=False),
        Command("geometry_check",
                ("geometry-check", "--outcomes", "64"), check_geometry,
                ("--outcomes", "8", "--probes", "4", "--kernels", "2")),
        # about 25 ms: too short to time steadily, so layer metrics only
        Command("entropic_step", ("entropic-step",), check_entropic, (),
                timed=False),
    ),
}


@dataclass
class Outcome:
    name: str
    seconds: float
    error: str = ""                  # exception or non-zero exit
    problems: list[str] = field(default_factory=list)   # failed checks
    report: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.error and not self.problems


def presets(commands: tuple[Command, ...]) -> list[str]:
    """The presets the commands build, each once, in order of first use."""
    names = [c.argv[c.argv.index("--preset") + 1] for c in commands
             if "--preset" in c.argv]
    return list(dict.fromkeys(names))


def run_command(main, verify_run_dir, cmd: Command, seed: int, out: Path,
                warm: bool = False) -> Outcome:
    """Run one command, time it, and check its run directory and report."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(cmd.args(seed, out, warm))
    except Exception:
        # the benchmark must keep running: record the failure and go on
        return Outcome(cmd.name, time.perf_counter() - start,
                       error=traceback.format_exc())
    except SystemExit as exc:       # argparse rejected the arguments
        return Outcome(cmd.name, time.perf_counter() - start,
                       error=f"SystemExit({exc.code}): {sink.getvalue()}")
    elapsed = time.perf_counter() - start
    if code != 0:
        return Outcome(cmd.name, elapsed,
                       error=f"exit code {code}: {sink.getvalue()}")
    problems = []
    verified = verify_run_dir(out)
    if not verified["complete"] or verified["mismatches"]:
        problems.append(f"run directory does not verify: {verified}")
    name = "result.json" if cmd.argv[0] == "evolve" else "report.json"
    with open(out / name) as fh:
        report = json.load(fh)
    return Outcome(cmd.name, elapsed, problems=problems + cmd.check(report),
                   report=report)


def tally(outcomes: list[Outcome]) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over a list of command outcomes.

    An exception or non-zero exit is a failed command; a failed output check
    is a failed command and also makes the run incorrect.
    """
    failed = sum(not o.ok for o in outcomes)
    correct = not any(o.problems for o in outcomes)
    return len(outcomes), failed, correct


def report_failures(outcomes: list[Outcome]) -> None:
    """Print each distinct failure once to stderr."""
    seen = set()
    for o in outcomes:
        text = (o.error or "; ".join(o.problems)).strip()
        key = (o.name, text.splitlines()[-1] if text else "")
        if text and key not in seen:
            seen.add(key)
            print(f"[perfbench] {o.name} failed: {text}",
                  file=sys.stderr)
