import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edsim.cli import _checkpoint_indices, build_parser, main
from edsim.geometry import MAX_PROBES
from edsim.io import INCOMPLETE_MARKER, RunWriter, load_json, verify_run_dir
from edsim.presets import PRESETS, build_preset
from edsim.quantum import (CN_TOL, CrankNicolson, energy, evolve_trajectory,
                           position_moments)
from edsim.stats import fit_power_law


def test_all_presets_build_normalized_states():
    for name in PRESETS:
        sc = build_preset(name)
        norm = np.sum(sc.state.rho) * sc.grid.cell_volume
        assert abs(norm - 1.0) < 1e-12, name
        assert sc.dt > 0 and sc.steps > 0


def test_preset_overrides_apply():
    sc = build_preset("free", points=64, dt=0.02, steps=10)
    assert sc.grid.points == (64,)
    assert sc.dt == 0.02
    assert sc.steps == 10


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="free"):
        build_preset("does-not-exist")


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_evolve_writes_complete_run(tmp_path):
    out = tmp_path / "run"
    rc = main(["evolve", "--preset", "free", "--points", "64",
               "--steps", "20", "--out", str(out)])
    assert rc == 0
    for name in ("config.json", "moments.csv", "snapshots.json",
                 "result.json", "manifest.json"):
        assert (out / name).exists()
    assert not (out / INCOMPLETE_MARKER).exists()
    result = load_json(out / "result.json")
    assert result["max_norm_gap"] < 1e-10
    assert main(["report", str(out)]) == 0


def _evolve_reference(out, preset: str, overrides: dict, snapshots: int):
    """moments.csv, snapshots.json and result.json of `evolve`, built from
    the whole `evolve_trajectory` list."""
    sc = build_preset(preset, **overrides)
    timeline = evolve_trajectory(sc.state, sc.potentials, sc.dt, sc.steps)
    rows = []
    for state in timeline:
        mom = position_moments(state)
        row = [state.time, abs(state.meta.get("raw_norm", 1.0) - 1.0),
               energy(state, sc.potentials),
               state.meta.get("cn_residual", 0.0)]
        for a in range(sc.grid.dim):
            row.extend([mom["mean"][a], mom["width"][a]])
        rows.append(row)
    header = ["time", "norm_gap", "energy", "cn_residual"]
    for a in range(sc.grid.dim):
        header.extend([f"mean_{a}", f"width_{a}"])
    writer = RunWriter(out)
    writer.write_csv("moments.csv", header, rows)
    idx = _checkpoint_indices(len(timeline), snapshots)
    writer.write_json("snapshots.json", {
        "times": np.array([timeline[i].time for i in idx]),
        "psi": np.stack([timeline[i].psi for i in idx]),
        "grid": sc.grid.describe(),
    })
    energies = np.array([r[2] for r in rows])
    writer.write_json("result.json", {
        "final_time": timeline[-1].time,
        "max_norm_gap": float(max(r[1] for r in rows)),
        "energy_drift_rel": float(np.max(np.abs(energies - energies[0]))
                                  / max(abs(energies[0]), 1e-300)),
        "steps": sc.steps,
        "max_cn_residual": timeline[-1].meta["cn_residual"],
    })


@pytest.mark.parametrize("preset, overrides, snapshots", [
    ("interference", {"steps": 30}, 5),
    ("interference", {"steps": 7}, 3),
    ("vortex_2d", {"points": 24}, 5),
    # 16 states of a 256-node line fill a row block: 37 steps leave a
    # partial last block, on hard walls, a ring and a vector potential
    ("free", {"steps": 37}, 5),
    ("harmonic", {"steps": 37}, 4),
    ("double_well", {"steps": 37}, 5),
    ("ring_constant_a", {"steps": 37}, 3),
])
def test_evolve_streams_its_states_once_into_the_list_files(
        tmp_path, monkeypatch, preset, overrides, snapshots):
    """`evolve` writes, byte for byte, the files built from the whole
    timeline one state at a time, and steps Crank-Nicolson exactly `steps`
    times: it walks the stream of states once, and its rows, computed a
    block of states at a time, carry the bits of the lone-state ones."""
    _evolve_reference(tmp_path / "ref", preset, overrides, snapshots)
    steps = []
    step = CrankNicolson.step
    monkeypatch.setattr(CrankNicolson, "step",
                        lambda self, psi: steps.append(1) or step(self, psi))
    argv = ["evolve", "--preset", preset, "--snapshots", str(snapshots)]
    for key, value in overrides.items():
        argv += [f"--{key}", str(value)]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 0
    assert len(steps) == build_preset(preset, **overrides).steps
    for name in ("moments.csv", "snapshots.json", "result.json"):
        assert ((tmp_path / "run" / name).read_bytes()
                == (tmp_path / "ref" / name).read_bytes()), name


def test_evolve_memory_is_flat_in_its_step_count(tmp_path):
    """`evolve` keeps its snapshot states, not one state per step: after a
    warm-up, its traced peak at 200 steps of a 32^2 vortex stays within ten
    states of its peak at 20 steps (a timeline list adds 180)."""
    def peak(steps: int, out: str) -> int:
        tracemalloc.reset_peak()
        assert main(["evolve", "--preset", "vortex_2d", "--points", "32",
                     "--steps", str(steps), "--out", str(tmp_path / out)]) == 0
        return tracemalloc.get_traced_memory()[1]

    tracemalloc.start()
    try:
        peak(20, "warm")
        at_20, at_200 = peak(20, "s20"), peak(200, "s200")
    finally:
        tracemalloc.stop()
    assert at_200 - at_20 <= 10 * 32**2 * 16, (at_20, at_200)


def test_ensemble_memory_is_flat_in_its_step_count(tmp_path):
    """`ensemble` walks its walkers along the states as they are stepped
    and keeps only its checkpoint states: after a warm-up, its traced peak
    at 400 steps of a 32^2 vortex stays within twenty states of its peak at
    50 steps (a timeline list adds 350; under tracemalloc the walk's peak
    creeps by about 250 bytes a step, 90 KB here, with no growth in RSS)."""
    def peak(steps: int, out: str) -> int:
        tracemalloc.reset_peak()
        assert main(["ensemble", "--preset", "vortex_2d", "--points", "32",
                     "--steps", str(steps), "--walkers", "2000",
                     "--calibration", "10", "--seed", "1",
                     "--out", str(tmp_path / out)]) == 0
        return tracemalloc.get_traced_memory()[1]

    tracemalloc.start()
    try:
        peak(50, "warm")
        at_50, at_400 = peak(50, "s50"), peak(400, "s400")
    finally:
        tracemalloc.stop()
    assert at_400 - at_50 <= 20 * 32**2 * 16, (at_50, at_400)


def test_ensemble_steps_its_states_once(tmp_path, monkeypatch):
    """`ensemble` reads its stream of states once: Crank-Nicolson steps
    exactly --steps times."""
    steps = []
    step = CrankNicolson.step
    monkeypatch.setattr(CrankNicolson, "step",
                        lambda self, psi: steps.append(1) or step(self, psi))
    assert main(["ensemble", "--points", "64", "--steps", "37",
                 "--walkers", "50", "--calibration", "5",
                 "--out", str(tmp_path / "run")]) == 0
    assert len(steps) == 37


def test_ensemble_runs_reproduce_byte_for_byte(tmp_path):
    args = ["ensemble", "--preset", "free", "--points", "64", "--steps", "20",
            "--walkers", "500", "--checkpoints", "2", "--seed", "5"]
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes(), path.name
    assert main(args[:-1] + ["9", "--out", str(c)]) == 0
    assert (a / "report.json").read_bytes() != (c / "report.json").read_bytes()


def test_ensemble_reports_underpowered_checkpoints(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["ensemble", "--walkers", "1", "--seed", "1",
                 "--out", str(out)]) == 0
    checkpoints = load_json(out / "report.json")["checkpoints"]
    assert [c["underpowered"] for c in checkpoints] == [True] * 6
    assert capsys.readouterr().out.endswith(
        f"checkpoints in band ({len(checkpoints)} underpowered)\n")


@pytest.mark.parametrize("steps, checkpoints, expect", [
    (100, 6, 6), (12, 6, 6), (7, 3, 3), (10, 4, 4), (5, 8, 5), (10, 1, 1)])
def test_ensemble_records_at_most_the_asked_checkpoints(
        tmp_path, steps, checkpoints, expect):
    """At most --checkpoints checkpoints, the last one at the final state."""
    out = tmp_path / "run"
    assert main(["ensemble", "--points", "64", "--steps", str(steps),
                 "--checkpoints", str(checkpoints), "--walkers", "50",
                 "--calibration", "5", "--out", str(out)]) == 0
    dt = load_json(out / "config.json")["dt"]
    times = [c["time"] for c in load_json(out / "report.json")["checkpoints"]]
    assert len(times) == expect
    assert times == sorted(set(times))
    assert times[-1] == pytest.approx(steps * dt)


def test_entropic_step_conserves_and_shifts(tmp_path):
    out = tmp_path / "run"
    assert main(["entropic-step", "--out", str(out)]) == 0
    rep = load_json(out / "report.json")
    assert abs(rep["mass_drift"]) < 1e-8
    assert rep["mean_shift_observed"] == pytest.approx(
        rep["mean_shift_expected"], abs=1e-6)
    assert rep["reverse_mass"] == pytest.approx(1.0, abs=1e-9)
    assert rep["maximizer"]["all_nonnegative"]


def test_geometry_check_passes(tmp_path):
    out = tmp_path / "run"
    rc = main(["geometry-check", "--outcomes", "12", "--probes", "20",
               "--kernels", "4", "--out", str(out)])
    assert rc == 0
    assert load_json(out / "report.json")["all_passed"]


def test_geometry_check_reruns_are_byte_identical(tmp_path):
    args = ["geometry-check", "--outcomes", "12", "--probes", "20",
            "--kernels", "3", "--seed", "4"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    names = sorted(path.name for path in a.iterdir())
    assert names == sorted(path.name for path in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_limits_reports_monotone_deviations(tmp_path):
    out = tmp_path / "run"
    rc = main(["limits", "--preset", "free", "--points", "64", "--steps",
               "20", "--walkers", "40", "--out", str(out)])
    assert rc == 0
    rep = load_json(out / "report.json")
    assert len(rep["max_deviations"]) == 3
    assert rep["monotone"]


def test_limits_reports_the_power_law_of_its_deviations(tmp_path, capsys):
    """The exponent and its stderr are the log-log fit of the reported
    deviations against the reported eta, and the summary line prints the
    exponent."""
    out = tmp_path / "run"
    assert main(["limits", "--preset", "harmonic", "--points", "64",
                 "--steps", "20", "--walkers", "40", "--out", str(out)]) == 0
    rep = load_json(out / "report.json")
    fit = fit_power_law(np.array(rep["etas"]),
                        np.array(rep["max_deviations"]))
    assert rep["deviation_exponent"] == fit["exponent"]
    assert rep["deviation_exponent_stderr"] == fit["stderr"]
    assert f"exponent {fit['exponent']:.3f}" in capsys.readouterr().out


@pytest.mark.parametrize("preset", ["interference", "vortex_2d"])
def test_runs_report_their_largest_cn_residual(tmp_path, preset):
    """evolve, ensemble and limits each report the running maximum of the
    Crank-Nicolson residual over their timeline: the last `cn_residual` of
    moments.csv, inside the step's own tolerance."""
    runs = {
        "evolve": (["evolve"], "result.json"),
        "ensemble": (["ensemble", "--walkers", "200", "--calibration", "10"],
                     "report.json"),
        "limits": (["limits", "--walkers", "20"], "report.json"),
    }
    found = {}
    for name, (argv, result) in runs.items():
        out = tmp_path / name
        assert main(argv + ["--preset", preset, "--out", str(out)]) == 0
        found[name] = load_json(out / result)["max_cn_residual"]
    last = (tmp_path / "evolve" / "moments.csv").read_text().splitlines()[-1]
    assert found["evolve"] == float(last.split(",")[3])
    assert found == dict.fromkeys(runs, found["evolve"])
    assert 0 < found["evolve"] < CN_TOL


def test_report_flags_incomplete_and_tampered(tmp_path):
    out = tmp_path / "run"
    main(["evolve", "--preset", "free", "--points", "64", "--steps", "5",
          "--out", str(out)])
    (out / INCOMPLETE_MARKER).touch()
    assert main(["report", str(out)]) == 1
    (out / INCOMPLETE_MARKER).unlink()
    blob = (out / "result.json").read_bytes()
    (out / "result.json").write_bytes(blob.replace(b"5", b"6", 1))
    assert main(["report", str(out)]) == 1


@pytest.mark.parametrize("name", ["snapshots.json", "config.json"])
def test_report_flags_missing_listed_file(tmp_path, capsys, name):
    out = tmp_path / "run"
    main(["evolve", "--preset", "free", "--points", "64", "--steps", "5",
          "--out", str(out)])
    capsys.readouterr()
    (out / name).unlink()
    assert main(["report", str(out)]) == 1
    assert capsys.readouterr().out == f"{out}: HASH MISMATCH in: {name}\n"


def test_report_of_unparsable_manifest_is_one_line(tmp_path, capsys):
    out = tmp_path / "run"
    main(["evolve", "--preset", "free", "--points", "64", "--steps", "5",
          "--out", str(out)])
    capsys.readouterr()
    (out / "manifest.json").write_text("{bad")
    assert main(["report", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["evolve", "--preset", "free", "--points", "64", "--steps", "5",
     "--dt", "1e300"],
    ["ensemble", "--preset", "harmonic", "--process", "ES", "--eta", "1e4",
     "--steps", "2", "--walkers", "200"],
    # dt H overflows in the Crank-Nicolson factor
    ["evolve", "--preset", "free", "--steps", "2", "--dt", "1e307"],
    ["evolve", "--preset", "harmonic", "--steps", "2", "--dt", "1e308"],
    ["evolve", "--preset", "vortex_2d", "--steps", "2", "--dt", "1e308"],
    # the drift or the noise overflows, and walkers reach NaN
    ["ensemble", "--process", "ES", "--eta", "1e308", "--walkers", "1000",
     "--steps", "3"],
    ["ensemble", "--gamma", "0.5", "--eta", "1e308", "--dt", "2", "--steps",
     "2"],
    # the noise moves no walker off its eta = 0 path
    ["limits", "--dt", "1e-30", "--steps", "2", "--walkers", "5"],
    # the noise moves the walkers by 1-8 float spacings of the box's edge
    ["limits", "--dt", "1e-26", "--steps", "2", "--walkers", "5"],
])
def test_tripped_safeguard_is_one_line_and_leaves_run_incomplete(
        tmp_path, capsys, argv):
    """A Crank-Nicolson step that loses the norm or overflows, an ensemble
    whose walkers escape and one whose walkers reach a non-finite position,
    and a vanishing-noise study whose deviations are float rounding, end
    with exit 1, one line on stderr (no numpy warning before it) and an
    aborted run."""
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (out / INCOMPLETE_MARKER).exists()
    assert main(["report", str(out)]) == 1


@pytest.mark.parametrize("dt, code, tail", [
    ("1e-26", 1, "eta = 0.01 moves the walkers by 1.46e-14, under 16 float "
                 "spacings of the box's coordinates (2.84e-14): rounding, "
                 "not a power law to fit"),
    ("1e-20", 0, "exponent 0.500"),
])
def test_limits_fits_only_deviations_above_float_rounding(tmp_path, capsys,
                                                          dt, code, tail):
    """At dt = 1e-26 the three deviations are 1-8 float spacings of the
    box's edge and their exponent reads 0.457: the study names the first
    eta under the bound and stops.  At dt = 1e-20, hundreds of spacings up,
    the sqrt(eta) law reads 0.500 and the run exits 0."""
    out = tmp_path / "run"
    assert main(["limits", "--dt", dt, "--steps", "2", "--walkers", "5",
                 "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert (captured.out if code == 0 else captured.err).rstrip().endswith(
        tail)


@pytest.mark.parametrize("option, value, code", [
    ("--eta", "1e300", 2),     # the kernel does not fit the grid
    ("--dt", "1e300", 2),
    ("--mass", "1e-300", 2),
    ("--eta", "1e-300", 2),    # no support at the peak of the pushed density
    ("--dt", "1e-300", 2),     # the kernel is narrower than the grid
    ("--points", "2", 2),
])
def test_extreme_entropic_steps_fail_cleanly(tmp_path, capsys, option, value,
                                             code):
    out = tmp_path / "run"
    assert main(["entropic-step", option, value, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("gamma, gap", [("3", "8.07"), ("1", "0.158")])
def test_entropic_step_refuses_a_kernel_narrower_than_the_grid(
        tmp_path, capsys, gamma, gap):
    """sigma ~ 0.11 against h ~ 0.31 at gamma = 3: the discrete kernel's
    mass gap, which is the step's mass drift, is reported and no run is
    written."""
    out = tmp_path / "run"
    argv = ["entropic-step", "--points", "64", "--dt", "0.05", "--eta", "0.5",
            "--gamma", gamma, "--mass", "2", "--drift-slope", "0.3",
            "--seed", "4", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"mass gap {gap})" in err
    assert not out.exists()


SMALL_ENSEMBLE = ["--steps", "2", "--walkers", "200", "--checkpoints", "1",
                  "--calibration", "10"]
BOTH = "argument --gamma: not allowed with argument --process"
NOT_A_PROCESS = ("argument --process: invalid choice: 'fractional' "
                 "(choose from 'ES', 'OU')")


@pytest.mark.parametrize("law, error", [
    pytest.param(["--process", "ES", "--gamma", "1"], BOTH, id="ES-gamma1"),
    pytest.param(["--process", "ES", "--gamma", "3"], BOTH, id="ES-gamma3"),
    pytest.param(["--process", "OU", "--gamma", "3"], BOTH, id="OU-gamma3"),
    pytest.param(["--process", "OU", "--gamma", "2.5"], BOTH,
                 id="OU-gamma2.5"),
    pytest.param(["--process", "fractional"], NOT_A_PROCESS, id="fractional"),
    pytest.param(["--process", "fractional", "--gamma", "1"], NOT_A_PROCESS,
                 id="fractional-gamma1"),
    pytest.param(["--process", "fractional", "--gamma", "3"], NOT_A_PROCESS,
                 id="fractional-gamma3"),
])
def test_ensemble_takes_process_or_gamma_never_both(tmp_path, capsys, law,
                                                    error):
    """gamma is the one input of the fluctuation law: --process and --gamma
    together, or a --process that names no gamma, exit 2 with argparse's
    error line and write no run."""
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["ensemble"] + law + SMALL_ENSEMBLE + ["--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(error)
    assert not out.exists()


@pytest.mark.parametrize("law, label", [
    (["--gamma", "1"], "ES"),
    (["--gamma", "3"], "OU"),
    (["--gamma", "1.5"], "fractional"),
    (["--process", "ES"], "ES"),
])
def test_ensemble_reads_the_process_label_off_gamma(tmp_path, law, label):
    out = tmp_path / "run"
    assert main(["ensemble"] + law + SMALL_ENSEMBLE + ["--out", str(out)]) == 0
    assert load_json(out / "config.json")["process"] == label
    assert load_json(out / "report.json")["process"] == label


def test_every_preset_runs_every_scenario_subcommand(tmp_path, capsys):
    small = ["--walkers", "200", "--calibration", "10"]
    subcommands = {
        "evolve": ["evolve"],
        "ensemble-OU": ["ensemble", "--process", "OU"] + small,
        "ensemble-ES": ["ensemble", "--process", "ES", "--eta", "0.05"]
                       + small,
        "limits": ["limits", "--walkers", "200"],
    }
    failed = []
    for preset in sorted(PRESETS):
        for name, argv in subcommands.items():
            out = tmp_path / f"{name}-{preset}"
            rc = main(argv + ["--preset", preset, "--steps", "4",
                              "--out", str(out)])
            check = verify_run_dir(out) if rc == 0 else None
            if not (check and check["complete"] and not check["mismatches"]):
                failed.append((preset, name, rc))
    assert failed == [], capsys.readouterr().err


# accepted values of every float option, per subcommand
FLOAT_OPTIONS = {
    ("evolve", "--dt"): lambda v: v > 0,
    ("ensemble", "--eta"): lambda v: v >= 0,
    ("ensemble", "--gamma"): lambda v: v > 0,
    ("entropic-step", "--dt"): lambda v: v > 0,
    ("entropic-step", "--eta"): lambda v: v > 0,
    ("entropic-step", "--gamma"): lambda v: v > 0,
    ("entropic-step", "--mass"): lambda v: v > 0,
}


@pytest.mark.parametrize("argv", [
    ["ensemble", "--checkpoints", "0"],
    ["ensemble", "--walkers", "0"],
    ["evolve", "--points", "1000"],
    ["evolve", "--steps", "-3"],
    ["evolve", "--dt", "-0.01"],
    ["evolve", "--dt", "0"],
    ["evolve", "--dt", "nan"],
    ["ensemble", "--eta", "-1"],
    ["ensemble", "--eta", "nan"],
    ["ensemble", "--gamma", "-1"],
    ["ensemble", "--seed", "-1"],
    ["entropic-step", "--mass", "0"],
    ["entropic-step", "--dt", "-0.1"],
    ["entropic-step", "--dt", "inf"],
    ["entropic-step", "--eta", "-1"],
    ["entropic-step", "--perturbations", "0"],
    ["geometry-check", "--outcomes", "257"],
    ["geometry-check", "--outcomes", "0"],
    ["geometry-check", "--probes", "0"],
    ["geometry-check", "--kernels", "1"],
    ["report", "run"],
    ["report", "empty"],
    ["geometry-check", "--probes", str(MAX_PROBES + 1)],
    ["geometry-check", "--probes", str(10**12)],
    # each flag is in range, but dt^gamma overflows
    ["ensemble", "--dt", "2", "--steps", "2", "--gamma", "2000"],
    ["entropic-step", "--dt", "2", "--gamma", "2000"],
])
def test_out_of_range_arguments_are_usage_errors(tmp_path, capsys, argv):
    """Exit 2 with a one-line message and no run written; `report` is given
    a missing directory and an existing one without a manifest, and a
    fluctuation law that overflows is refused before any run starts."""
    out = tmp_path / "run"
    if argv[0] == "report":
        (tmp_path / "empty").mkdir()
        code = main(["report", str(tmp_path / argv[1])])
        expect, tail = "is not a run directory", ""
    elif argv[-2:] == ["--gamma", "2000"]:
        code = main(argv + ["--out", str(out)])
        expect, tail = "error: the fluctuation law overflows", "dt = 2"
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        code = exc.value.code
        option, value = argv[-2:]
        what = "a number" if (argv[0], option) in FLOAT_OPTIONS else "an integer"
        expect, tail = f"argument {option}: must be {what} in", f"got {value}"
    assert code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert expect in last and last.endswith(tail)
    assert not out.exists()


@settings(derandomize=True, deadline=None)
@given(key=st.sampled_from(sorted(FLOAT_OPTIONS)), value=st.floats())
def test_float_options_accept_exactly_their_finite_range(key, value):
    command, option = key
    argv = [command, f"{option}={value!r}", "--out", "unused"]
    if math.isfinite(value) and FLOAT_OPTIONS[key](value):
        args = build_parser().parse_args(argv)
        assert getattr(args, option[2:]) == value
    else:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
