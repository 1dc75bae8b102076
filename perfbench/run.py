"""Benchmark of the edsim command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload walkers_bulk --seed 1 --seconds 25

One process drives `edsim.cli.main(argv)` in a closed loop: one caller, one
command at a time, repeated in passes over the workload's commands while
another pass fits in `--seconds`.  With `--trace 0` it prints the end-to-end metrics;
with `--trace 1` it alternates untraced and traced passes and prints the
per-layer metrics.  The last line of standard output is the result JSON.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: set before numpy loads.  The CLI's hot paths
# (SuperLU, element-wise numpy) are single-threaded anyway, and a second
# thread only adds noise on a shared machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from layers import instrument, layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (WORKLOADS, Outcome, presets,  # noqa: E402
                       report_failures, run_command, tally)

SETUP_REPEATS = 5
MIN_PASSES = 3
RNG_WALKERS = 100_000
RNG_DRAWS = 200
REF_ROUNDS = 30

# Imports edsim.cli and builds the presets in a fresh interpreter.
SETUP_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import edsim.cli
if not edsim.cli.__file__.startswith(sys.argv[1]):
    sys.exit("imported edsim from " + edsim.cli.__file__)
for name in sys.argv[2:]:
    edsim.cli.build_preset(name)
"""


def load_edsim():
    if not (SRC / "edsim" / "cli.py").is_file():
        sys.exit(f"perfbench: no edsim sources under {SRC}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import edsim.cli
    import edsim.io
    if not edsim.cli.__file__.startswith(str(SRC)):
        sys.exit(f"perfbench: imported edsim from {edsim.cli.__file__}, "
                 f"not from {SRC}")
    # looked up on each call, so that installed tracing wrappers are used
    return (lambda argv: edsim.cli.main(argv),
            lambda out: edsim.io.verify_run_dir(out))


def machine() -> dict:
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower()}"] = size
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(preset_names: list[str]) -> float:
    """Median wall time of a fresh interpreter importing edsim.cli and
    building the workload's presets."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, str(SRC), *preset_names],
            cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def rng_floor_ns() -> float:
    """ns per walker-step of the Philox normal draw a 1-D walker step needs."""
    import numpy as np
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    blocks = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(RNG_DRAWS // 5):
            rng.standard_normal((RNG_WALKERS, 1))
        blocks.append(time.perf_counter() - start)
    return 1e9 * statistics.median(blocks) / (RNG_DRAWS // 5 * RNG_WALKERS)


def reference_s() -> float:
    """Time of a fixed numpy computation that is not edsim code.

    The whole machine's speed drifts by a third within minutes; commands and
    this reference slow down together, so their ratio is steadier than
    either (see README.md, "Noise").
    """
    import numpy as np
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    x = rng.standard_normal(RNG_WALKERS)
    start = time.perf_counter()
    for _ in range(REF_ROUNDS):
        y = np.mod(x * 1.1 + 0.3, 7.0)
        y *= x[np.floor(y).astype(np.intp)]
        rng.standard_normal(RNG_WALKERS)
    return time.perf_counter() - start


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class Runner:
    """Runs passes over one workload's commands and keeps their outcomes."""

    def __init__(self, commands, seed: int, scratch: Path):
        self.main, self.verify = load_edsim()
        self.commands = commands
        self.seed = seed
        self.scratch = scratch
        self.outcomes: list[Outcome] = []

    def warm_up(self) -> None:
        # First calls in a process pay lazy imports and first-touch costs.
        # A reduced-size call of every command (fewer steps and walkers, same
        # grids) pays them before timing; its outcome is not counted.
        for cmd in self.commands:
            out = self.scratch / f"warm-{cmd.name}"
            run_command(self.main, self.verify, cmd, self.seed, out, warm=True)
            shutil.rmtree(out, ignore_errors=True)

    def one_pass(self, tracer: Tracer | None = None) -> dict[str, Outcome]:
        results = {}
        for cmd in self.commands:
            out = self.scratch / cmd.name
            if tracer is None:
                o = run_command(self.main, self.verify, cmd, self.seed, out)
            else:
                with tracer.labelled(cmd.name):
                    o = run_command(self.main, self.verify, cmd, self.seed, out)
                tracer.counts[(cmd.name, "bytes_written")] += dir_bytes(out)
            shutil.rmtree(out, ignore_errors=True)
            results[cmd.name] = o
            self.outcomes.append(o)
        return results


def fits_another(start: float, done: int, seconds: float) -> bool:
    """Whether one more pass, as long as the average so far, ends in time."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def median_times(passes: list[dict[str, Outcome]],
                 units: list[float] | None = None) -> dict[str, float]:
    """Median time of each command over the passes where it succeeded,
    each pass's time divided by its entry in `units` when given."""
    units = units or [1.0] * len(passes)
    out = {}
    for name in passes[0]:
        ok = [p[name].seconds / u for p, u in zip(passes, units) if p[name].ok]
        if ok:
            out[name] = statistics.median(ok)
    return out


def tv_ratio(passes: list[dict[str, Outcome]]) -> float:
    """Mean TV / 95% band over the checkpoints of succeeding ensembles."""
    # the value repeats exactly at a fixed seed, so one pass suffices
    ratios = [c["tv"] / c["tv_band_95"]
              for name, o in passes[0].items()
              if o.ok and name.startswith("ensemble.")
              for c in o.report["checkpoints"]]
    return statistics.fmean(ratios) if ratios else 0.0


def end_to_end(runner: Runner, seconds: float) -> dict:
    commands = runner.commands
    setup = measure_setup(presets(commands))
    runner.warm_up()
    passes, refs = [], [reference_s()]
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or fits_another(start, len(passes), seconds):
        passes.append(runner.one_pass())
        refs.append(reference_s())
    # each pass is divided by the mean of the references just before and after
    pass_refs = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
    timed = [c.name for c in commands if c.timed]
    rel = median_times(passes, pass_refs)
    medians = median_times(passes)
    attempted, failed, _ = tally(runner.outcomes)
    print("commands " + json.dumps(
        {"passes": len(passes), "reference_s": refs,
         "cmd_time_total_s": sum(medians.get(n, 0.0) for n in timed),
         "median_s": medians,
         "pass_s": {c.name: [p[c.name].seconds for p in passes]
                    for c in commands},
         "ensemble.tv_ratio": tv_ratio(passes)}))
    return {
        "setup_s": (setup, "s"),
        "cmd_time_rel": (sum(rel.get(n, 0.0) for n in timed), "ratio"),
        "ops_ok_frac": ((attempted - failed) / attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(runner: Runner, seconds: float) -> dict:
    """Alternate untraced and traced passes; medians of the traced ones."""
    runner.warm_up()
    floor = rng_floor_ns()
    tracer = Tracer()
    plain, traced, layer_runs, counts = [], [], [], []
    start = time.perf_counter()
    while not traced or fits_another(start, len(traced), seconds):
        plain.append(runner.one_pass())
        tracer.reset()
        instrument(tracer)
        try:
            traced.append(runner.one_pass(tracer))
        finally:
            tracer.remove()
        m = layer_metrics(tracer)
        layer_runs.append(m)
        counts.append({k: v for k, (v, unit) in m.items() if unit == "count"})
    if any(c != counts[0] for c in counts):
        print(f"perfbench: traced counts differ between passes: {counts}",
              file=sys.stderr)
        runner.outcomes.append(
            Outcome("trace", 0.0, problems=["counts not repeatable"]))

    metrics = {key: (statistics.median(m[key][0] for m in layer_runs), unit)
               for key, (_, unit) in layer_runs[0].items()}
    metrics.update((key, (n, "count")) for key, n in counts[0].items())
    metrics["stochastic.rng_floor_ns_per_walker_step"] = (floor, "ns")
    # untraced command times; 0 for a command that never succeeded here
    plain_t, traced_t = median_times(plain), median_times(traced)
    for commands in WORKLOADS.values():
        for cmd in commands:
            metrics[f"{cmd.name}_s"] = (plain_t.get(cmd.name, 0.0), "s")
    metrics["trace.overhead_s"] = (
        sum(traced_t[n] - plain_t[n] for n in plain_t if n in traced_t), "s")
    metrics["ensemble.tv_ratio"] = (tv_ratio(plain), "ratio")
    print("counts " + json.dumps(counts[0], sort_keys=True))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scratch = ROOT / ".perfbench_runs" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(WORKLOADS[args.workload], args.seed, scratch)
        print("machine " + json.dumps(machine(), sort_keys=True))
        if args.trace:
            metrics = per_layer(runner, args.seconds)
        else:
            metrics = end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    report_failures(runner.outcomes)
    attempted, failed, correct = tally(runner.outcomes)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
