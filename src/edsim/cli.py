"""Command-line front end.

Subcommands:

* evolve        - integrate a preset's wave state, writing moments and
                  snapshots
* ensemble      - sample a walker ensemble along the evolved state and
                  compare its histogram against the density at checkpoints
* geometry-check - run the phase-space identity battery
* limits        - vanishing-noise and centre-of-mass limit studies
* entropic-step - one maximum-entropy transition with composition, reverse
                  and maximizer diagnostics
* report        - summarize a finished run directory and verify its hashes

Every run writes config.json, result files, and manifest.json with content
hashes into --out; an INCOMPLETE marker is present until the run finishes.
Repeated runs with identical configuration and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .entropic import (MaxEntProblem, bayes_reverse, chapman_kolmogorov_step,
                       maxent_transition, verify_maximizer)
from .geometry import MAX_OUTCOMES, MAX_PROBES, geometry_battery
from .grids import (MAX_POINTS_PER_AXIS, PROCESS_GAMMA, ConfigGrid,
                    ScalarField, VectorField, single_particle)
from .io import INCOMPLETE_MARKER, RunWriter, load_json, verify_run_dir
from .presets import PRESETS, build_preset
from .quantum import SafeguardError, _evolve_rows, evolve_trajectory
from .stats import compare_density, fit_power_law, histogram_on_grid
from .stochastic import (center_of_mass_report, draw_initial_positions,
                         simulate_ensemble, vanishing_noise_deviations,
                         with_eta)

# the largest step-kernel mass gap and CK mass drift that entropic-step accepts
MAX_MASS_DRIFT = 1e-6
# the noise strengths of the vanishing-noise study of `limits`
LIMIT_ETAS = (1e-2, 1e-3, 1e-4)
# the ES walkers of the vanishing-noise study at each eta (`limits --walkers`)
LIMIT_WALKERS = 300


def _scenario_from_args(args) -> tuple:
    overrides = {}
    if args.points is not None:
        overrides["points"] = args.points
    if args.dt is not None:
        overrides["dt"] = args.dt
    if args.steps is not None:
        overrides["steps"] = args.steps
    sc = build_preset(args.preset, **overrides)
    config = {
        "preset": args.preset,
        "points": list(sc.grid.points),
        "dt": sc.dt,
        "steps": sc.steps,
    }
    return sc, config


def _checkpoint_indices(n_states: int, checkpoints: int) -> list[int]:
    idx = np.linspace(0, n_states - 1, checkpoints + 1).round().astype(int)
    return sorted(set(int(i) for i in idx[1:]))


def cmd_evolve(args) -> int:
    sc, config = _scenario_from_args(args)
    config.update({"command": "evolve", "snapshots": args.snapshots})
    writer = RunWriter(args.out)
    writer.write_config(config)

    # one pass over the states: a row per state, and only the snapshots kept
    rows, snapshots = _evolve_rows(
        sc.state, sc.potentials, sc.dt, sc.steps,
        set(_checkpoint_indices(sc.steps + 1, args.snapshots)))
    header = ["time", "norm_gap", "energy", "cn_residual"]
    for a in range(sc.grid.dim):
        header.extend([f"mean_{a}", f"width_{a}"])
    writer.write_csv("moments.csv", header, rows)

    snaps = {
        "times": np.array([s.time for s in snapshots]),
        "psi": np.stack([s.psi for s in snapshots]),
        "grid": sc.grid.describe(),
    }
    writer.write_json("snapshots.json", snaps)

    energies = np.array([r[2] for r in rows])
    result = {
        "final_time": rows[-1][0],
        "max_norm_gap": float(max(r[1] for r in rows)),
        "energy_drift_rel": float(np.max(np.abs(energies - energies[0]))
                                  / max(abs(energies[0]), 1e-300)),
        "steps": sc.steps,
        "max_cn_residual": rows[-1][3],
    }
    writer.write_json("result.json", result)
    writer.finish()
    print(f"evolve: {sc.steps} steps of {args.preset}, "
          f"norm gap {result['max_norm_gap']:.2e}, "
          f"energy drift {result['energy_drift_rel']:.2e}")
    return 0


def density_checkpoints(sc, timeline, ens, n_calibration: int,
                        seed: int) -> list[dict]:
    """The `compare_density` report of every snapshot of `ens` after the
    first against |psi|^2 of its state on the preset's timeline, seeded
    seed + j at snapshot j."""
    reports = []
    for j, t in enumerate(ens.times[1:], start=1):
        k = int(round((t - timeline[0].time) / sc.dt))
        reports.append(compare_density(
            ens.positions[j], ScalarField(sc.grid, timeline[k].rho),
            n_calibration=n_calibration, seed=seed + j))
    return reports


def cmd_ensemble(args) -> int:
    # --gamma gives any gamma; --process names 1 (ES) or 3 (OU, the default)
    gamma = (args.gamma if args.gamma is not None
             else PROCESS_GAMMA[args.process or "OU"])
    sc, config = _scenario_from_args(args)
    eta = args.eta if args.eta is not None else sc.system.eta
    system = with_eta(sc.system, eta, gamma_exponent=gamma)
    try:
        system.step_variances(sc.dt)
        system.diffusion(sc.dt)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config.update({
        "command": "ensemble", "process": system.process_label, "eta": eta,
        "gamma": gamma, "walkers": args.walkers, "seed": args.seed,
        "checkpoints": args.checkpoints,
    })
    writer = RunWriter(args.out)
    writer.write_config(config)

    timeline = evolve_trajectory(sc.state, sc.potentials, sc.dt, sc.steps)
    # at most --checkpoints states after the first, the last the final one
    stride = math.ceil(sc.steps / args.checkpoints)
    ens = simulate_ensemble(timeline, sc.potentials, system,
                            n_walkers=args.walkers, seed=args.seed,
                            record_stride=stride)
    reports = density_checkpoints(sc, timeline, ens, args.calibration,
                                  args.seed)
    checkpoints = [{"time": float(t), **rep}
                   for t, rep in zip(ens.times[1:], reports)]
    result = {
        "process": system.process_label,
        "walkers": args.walkers,
        "escaped": ens.meta["escaped"],
        "checkpoints": checkpoints,
        "n_passed": sum(c["passed"] for c in checkpoints),
        "final_histogram": histogram_on_grid(sc.grid, ens.positions[-1]),
        "max_cn_residual": timeline[-1].meta["cn_residual"],
    }
    writer.write_json("report.json", result)
    writer.finish()
    # too few walkers for the occupied cells: the band verdict means little
    underpowered = sum(c["underpowered"] for c in checkpoints)
    note = f" ({underpowered} underpowered)" if underpowered else ""
    print(f"ensemble: {system.process_label} x {args.preset}, "
          f"{result['n_passed']}/{len(checkpoints)} checkpoints in band{note}")
    return 0


def cmd_geometry_check(args) -> int:
    config = {
        "command": "geometry-check", "outcomes": args.outcomes,
        "probes": args.probes, "kernels": args.kernels, "seed": args.seed,
    }
    writer = RunWriter(args.out)
    writer.write_config(config)
    report = geometry_battery(args.outcomes, args.probes, args.kernels,
                              seed=args.seed)
    writer.write_json("report.json", report)
    writer.finish()
    print(f"geometry-check: {'pass' if report['all_passed'] else 'FAIL'} "
          f"(J2 {report['j_squared_max_dev']:.1e}, "
          f"killing {report['killing_hermitian_max']:.1e})")
    return 0 if report["all_passed"] else 1


def limit_study(sc, timeline, walkers: int, seed: int) -> dict:
    """The vanishing-noise study of `limits` on a preset's timeline: the
    mean largest distance of ES walkers at each of LIMIT_ETAS to their
    eta = 0 paths from one shared start, whether it falls monotonically
    with eta, and the exponent of its power law in eta with the fit's
    stderr (1/2 for a Brownian displacement).  A study in which some eta
    moves no walker at all raises SafeguardError."""
    etas = list(LIMIT_ETAS)
    x0 = draw_initial_positions(timeline[0], walkers,
                                np.random.default_rng(seed))
    deviations = vanishing_noise_deviations(
        timeline, sc.potentials,
        [with_eta(sc.system, eta, gamma_exponent=1.0) for eta in etas],
        seed, x0)
    for eta, deviation in zip(etas, deviations):
        if deviation == 0:  # the noise is below the positions' float spacing
            raise SafeguardError(f"the noise at eta = {eta:g} moves no walker "
                                 f"off its eta = 0 path: no power law to fit")
    fit = fit_power_law(np.array(etas), np.array(deviations))
    return {
        "etas": etas,
        "max_deviations": deviations,
        "monotone": bool(np.all(np.diff(deviations) < 0)),
        "deviation_exponent": fit["exponent"],
        "deviation_exponent_stderr": fit["stderr"],
    }


def cmd_limits(args) -> int:
    sc, config = _scenario_from_args(args)
    config.update({"command": "limits", "walkers": args.walkers,
                   "seed": args.seed, "etas": list(LIMIT_ETAS)})
    writer = RunWriter(args.out)
    writer.write_config(config)

    timeline = evolve_trajectory(sc.state, sc.potentials, sc.dt, sc.steps)
    result = limit_study(sc, timeline, args.walkers, args.seed)
    deviations = result["max_deviations"]
    result["center_of_mass"] = [
        center_of_mass_report([1.0] * n, eta=1e-2, dt=0.05,
                              seed=args.seed + n)
        for n in (1, 2, 4, 8)]
    result["max_cn_residual"] = timeline[-1].meta["cn_residual"]
    writer.write_json("report.json", result)
    writer.finish()
    print(f"limits: deviations {', '.join('%.3e' % d for d in deviations)} "
          f"({'monotone' if result['monotone'] else 'NOT monotone'}), "
          f"exponent {result['deviation_exponent']:.3f}")
    return 0


def cmd_entropic_step(args) -> int:
    config = {
        "command": "entropic-step", "points": args.points, "dt": args.dt,
        "eta": args.eta, "gamma": args.gamma, "mass": args.mass,
        "drift_slope": args.drift_slope, "seed": args.seed,
    }
    grid = ConfigGrid((args.points,), (20.0,), (True,), origin=(-10.0,))
    system = single_particle(mass=args.mass, eta=args.eta,
                             gamma_exponent=args.gamma)
    x = grid.axis_coords(0)
    drift = VectorField(grid, np.stack([np.full_like(x, args.drift_slope)]))
    rho0 = np.exp(-0.5 * (x / 1.5) ** 2)
    rho0 /= rho0.sum() * grid.cell_volume
    rho0 = ScalarField(grid, rho0)
    try:
        # in range, but the kernel may not fit the grid or the pushed
        # density may have no support at its peak
        step = maxent_transition(MaxEntProblem(grid, system, args.dt, drift))
        rho1, ck = chapman_kolmogorov_step(rho0, step)
        if ck["kernel_norm_gap"] > MAX_MASS_DRIFT:
            raise ValueError(f"the step kernel is narrower than the grid "
                             f"(mass gap {ck['kernel_norm_gap']:.3g})")
        center = int(np.argmax(rho1.values))
        reverse = bayes_reverse(step, rho0, rho1, (center,))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    reverse_mass = float(reverse.values.sum() * grid.cell_volume)
    maximizer = verify_maximizer(step, perturbations=args.perturbations,
                                 seed=args.seed)
    expected_shift = system.hbar * args.dt / args.mass * args.drift_slope
    mean0 = float(np.sum(rho0.values * x) * grid.cell_volume)
    mean1 = float(np.sum(rho1.values * x) * grid.cell_volume)
    result = {
        "mass_drift": ck["mass_drift"],
        "kernel_norm_gap": ck["kernel_norm_gap"],
        "mean_shift_observed": mean1 - mean0,
        "mean_shift_expected": expected_shift,
        "reverse_mass": reverse_mass,
        "maximizer": {
            "min_margin": maximizer["min_margin"],
            "all_nonnegative": maximizer["all_nonnegative"],
            "candidate_entropy": maximizer["candidate_entropy"],
        },
    }
    writer = RunWriter(args.out)
    writer.write_config(config)
    writer.write_json("report.json", result)
    writer.finish()
    passed = (maximizer["all_nonnegative"]
              and abs(ck["mass_drift"]) < MAX_MASS_DRIFT)
    print(f"entropic-step: mass drift {ck['mass_drift']:.2e}, "
          f"maximizer {'ok' if maximizer['all_nonnegative'] else 'FAIL'}"
          f"{'' if passed else ' (FAIL)'}")
    return 0 if passed else 1


def cmd_report(args) -> int:
    run = Path(args.run)
    if not ((run / "manifest.json").is_file()
            or (run / INCOMPLETE_MARKER).is_file()):
        print(f"error: {args.run} is not a run directory (no manifest.json)",
              file=sys.stderr)
        return 2
    try:
        check = verify_run_dir(run)
    except (ValueError, KeyError) as exc:  # not JSON, or no file list
        print(f"error: unreadable manifest.json in {args.run}: {exc!r}",
              file=sys.stderr)
        return 1
    if not check["complete"]:
        print(f"{args.run}: INCOMPLETE (marker present)")
        return 1
    if check["mismatches"]:  # missing or altered: print none of the run
        print(f"{args.run}: HASH MISMATCH in: {', '.join(check['mismatches'])}")
        return 1
    config = load_json(f"{args.run}/config.json")
    print(f"run {args.run}: command={config.get('command')}")
    for key in sorted(config):
        if key != "command":
            print(f"  {key} = {config[key]}")
    print(f"  {check['checked']} files verified against manifest")
    try:
        report = load_json(f"{args.run}/report.json")
    except FileNotFoundError:
        report = load_json(f"{args.run}/result.json")
    for key in sorted(report):
        val = report[key]
        if isinstance(val, (int, float, bool, str)):
            print(f"  {key}: {val}")
    return 0


def _in_range(kind: type, lo: float, hi: float = math.inf,
              open_lo: bool = False):
    """argparse type: a finite `kind` (int or float) in [lo, hi], or in
    (lo, hi] when `open_lo`.  Anything else is a usage error, exit code 2."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value <= hi
                and (value > lo if open_lo else value >= lo)):
            what = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(
                f"must be {what} in {'(' if open_lo else '['}{lo}, {hi}], "
                f"got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value" wording
    return parse


_count = _in_range(int, 1)
_seed = _in_range(int, 0)
_points = _in_range(int, 2, MAX_POINTS_PER_AXIS)
_positive = _in_range(float, 0, open_lo=True)


def _add_scenario_flags(p: argparse.ArgumentParser):
    p.add_argument("--preset", default="free", choices=sorted(PRESETS))
    p.add_argument("--points", type=_points, default=None)
    p.add_argument("--dt", type=_positive, default=None)
    p.add_argument("--steps", type=_count, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edsim",
        description="entropic-dynamics simulator and validation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="integrate a preset wave state")
    _add_scenario_flags(p)
    p.add_argument("--snapshots", type=_count, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("ensemble", help="walker ensemble density tracking")
    _add_scenario_flags(p)
    # no defaults: argparse lets a value that `is` its default pass the group
    law = p.add_mutually_exclusive_group()
    law.add_argument("--process", choices=sorted(PROCESS_GAMMA))
    law.add_argument("--gamma", type=_positive)
    p.add_argument("--eta", type=_in_range(float, 0), default=None)
    p.add_argument("--walkers", type=_count, default=20000)
    p.add_argument("--checkpoints", type=_count, default=6)
    p.add_argument("--calibration", type=_count, default=200)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("geometry-check", help="phase-space identity battery")
    p.add_argument("--outcomes", type=_in_range(int, 1, MAX_OUTCOMES),
                   default=32)
    p.add_argument("--probes", type=_in_range(int, 1, MAX_PROBES), default=100)
    # the commutator identity needs two kernels
    p.add_argument("--kernels", type=_in_range(int, 2), default=20)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_geometry_check)

    p = sub.add_parser("limits", help="vanishing-noise and CM studies")
    _add_scenario_flags(p)
    p.add_argument("--walkers", type=_count, default=LIMIT_WALKERS)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("entropic-step", help="one maximum-entropy transition")
    p.add_argument("--points", type=_points, default=128)
    p.add_argument("--dt", type=_positive, default=0.1)
    # the transition kernel needs a positive variance, so eta = 0 is out
    p.add_argument("--eta", type=_positive, default=1.0)
    p.add_argument("--gamma", type=_positive, default=1.0)
    p.add_argument("--mass", type=_positive, default=1.0)
    p.add_argument("--drift-slope", type=_in_range(float, -math.inf),
                   default=0.8)
    p.add_argument("--perturbations", type=_count, default=50)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_entropic_step)

    p = sub.add_parser("report", help="summarize a finished run directory")
    p.add_argument("run")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SafeguardError as exc:
        # the run directory keeps its INCOMPLETE marker
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
