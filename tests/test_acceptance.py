"""Acceptance suite: one test per shipped guarantee.

Every test here pins a quantitative promise of the toolkit — conservation
laws, closed-form oracles, convergence orders, ensemble tracking, limits,
symmetries, geometric identities and reproducibility.  Run

    pytest tests/test_acceptance.py -v

to get a one-line verdict per item.  Tolerances are part of the contract and
are asserted literally; seeds are fixed so every run is deterministic.
"""

from __future__ import annotations

import filecmp
import os

import numpy as np

from edsim.cli import main
from edsim.entropic import (
    GaussianStep,
    MaxEntProblem,
    chapman_kolmogorov_step,
    maxent_transition,
    verify_maximizer,
)
from edsim.geometry import geometry_battery, transition_information_metric
from edsim.grids import (
    ConfigGrid,
    ScalarField,
    VectorField,
    particles_on_line,
    rectangle_loop,
    single_particle,
)
from edsim.presets import build_preset
from edsim.quantum import (
    WaveState,
    charge_quantization_check,
    energy,
    evolve,
    evolve_trajectory,
    free_potentials,
    gauge_transform,
    gaussian_packet,
    hamilton_residuals,
    position_moments,
    reverse_potentials,
    superpose,
    time_reverse,
    winding_number,
)
from edsim.quantum import build_potentials
from edsim.stats import compare_density, convergence_order
from edsim.stochastic import (
    bohmian_trajectories,
    center_of_mass_report,
    draw_initial_positions,
    fluctuation_covariance,
    max_deviation_from_deterministic,
    scaling_exponent,
    simulate_ensemble,
    velocity_increment_stats,
    with_eta,
)


def vortex_state(m: int, n: int = 96, L: float = 12.0):
    grid = ConfigGrid((n, n), (L, L), (False, False), origin=(-L / 2, -L / 2))
    xx, yy = grid.meshgrid()
    r = np.hypot(xx, yy)
    theta = np.arctan2(yy, xx)
    amp = np.tanh(r) ** abs(m) if m != 0 else np.exp(-0.5 * (r / 3) ** 2)
    psi = amp * np.exp(-0.5 * (r / 3.0) ** 2) * np.exp(1j * m * theta)
    return grid, WaveState(grid, psi)


def centered_loop(grid: ConfigGrid, half: int):
    n = grid.points[0]
    return rectangle_loop((n // 2 - half, n // 2 - half),
                          (n // 2 + half, n // 2 + half))


def test_a01_unitarity_and_energy_conservation():
    # |1 - integral of |psi|^2| below 1e-10 after every one of 1e3 steps,
    # relative energy drift below 1e-8 over the whole run (static potential)
    sc = build_preset("free", steps=1000)
    states = evolve_trajectory(sc.state, sc.potentials, sc.dt, sc.steps)
    norm_gap = max(abs(1.0 - s.meta["raw_norm"]) for s in states[1:])
    assert norm_gap < 1e-10

    e0 = energy(states[0], sc.potentials)
    drift = max(abs(energy(s, sc.potentials) - e0) for s in states[::50])
    drift = max(drift, abs(energy(states[-1], sc.potentials) - e0))
    assert drift / abs(e0) < 1e-8


def test_a02_free_packet_width_matches_closed_form():
    # width^2(t) = sigma0^2 (1 + (hbar t / 2 m sigma0^2)^2) within 1e-3
    # relative, tracked over three characteristic times (tau = 2 here)
    grid = ConfigGrid((512,), (30.0,), (True,), origin=(-15.0,))
    system = single_particle()
    pot = free_potentials(grid, system)
    sigma0 = 1.0
    state = gaussian_packet(grid, 0.0, sigma0)
    dt, steps = 0.005, 1200
    states = evolve_trajectory(state, pot, dt, steps)

    tau = 2.0 * system.masses[0] * sigma0**2 / system.hbar
    assert states[-1].time >= 3.0 * tau - 1e-9
    for s in states[::40]:
        w = position_moments(s)["width"][0]
        expected_sq = sigma0**2 * (1.0 + (system.hbar * s.time
                                          / (2 * system.masses[0] * sigma0**2)) ** 2)
        assert abs(w**2 - expected_sq) / expected_sq < 1e-3


def test_a03_residual_convergence_orders():
    # continuity and phase-equation defects shrink with fitted order >= 1.8
    # under both spatial and temporal refinement
    system = single_particle()

    def box_setup(n):
        grid = ConfigGrid((n,), (16.0,), (False,), origin=(-8.0,))
        pot = build_potentials(grid, system, scalar_v=lambda x: 0.3 * x**2)
        return grid, pot, gaussian_packet(grid, 0.0, 1.2, momentum=0.5)

    hs, e_rho, e_phi = [], [], []
    for n in (64, 128, 256):
        grid, pot, st = box_setup(n)
        res = hamilton_residuals(st, pot, dt=1e-4)
        hs.append(grid.spacing[0])
        e_rho.append(res["r_rho"])
        e_phi.append(res["r_phi"])
    for errs in (e_rho, e_phi):
        fit = convergence_order(hs, errs)
        assert fit["monotone"]
        assert fit["order"] >= 1.8

    # temporal orders on a grid fine enough that space is not the floor;
    # the two residuals leave their asymptotic range at different dt, so
    # each gets its own ladder
    _, pot, st = box_setup(511)
    for key, dts in (("r_rho", (0.4, 0.2, 0.1)), ("r_phi", (0.06, 0.03, 0.015))):
        errs = [hamilton_residuals(st, pot, dt=dt)[key] for dt in dts]
        fit = convergence_order(dts, errs)
        assert fit["monotone"]
        assert fit["order"] >= 1.8


def test_a04_ensembles_track_born_densities():
    # 1e5 walkers, smooth-velocity (gamma = 3) and Brownian osmotic-corrected
    # (gamma = 1) processes: the walker histogram must sit inside the 95%
    # resampling band of |psi|^2 at five or more checkpoints per preset
    n_walkers = 100_000
    for preset in ("free", "harmonic", "interference"):
        sc = build_preset(preset)
        timeline = evolve_trajectory(sc.state, sc.potentials, sc.dt, sc.steps)
        stride = sc.steps // 6
        for gamma, eta in ((3.0, 1e-3), (1.0, 0.05)):
            system = with_eta(sc.system, eta, gamma_exponent=gamma)
            ens = simulate_ensemble(timeline, sc.potentials, system,
                                    n_walkers=n_walkers, seed=42,
                                    record_stride=stride)
            n_passed = 0
            for j, t in enumerate(ens.times):
                if j == 0:
                    continue
                k = int(round((t - timeline[0].time) / sc.dt))
                rho = ScalarField(sc.grid, timeline[k].rho)
                rep = compare_density(ens.positions[j], rho,
                                      n_calibration=200, seed=100 + j)
                assert not rep["underpowered"]
                n_passed += rep["passed"]
            assert n_passed >= 5, (preset, system.process_label, n_passed)


def test_a05_fluctuation_covariance_laws():
    # step covariance eta m^{AB} dt^gamma within three standard errors,
    # velocity-increment covariance 2 eta m^{AB} dt within 5% (gamma = 3),
    # fitted scaling exponents within 0.05 of the configured gamma
    sys2 = particles_on_line((1.0, 2.5), eta=0.2, gamma_exponent=3.0)
    rep = fluctuation_covariance(sys2, 0.05, n_draws=400_000, seed=11)
    cov, expected = rep["covariance"], rep["expected"]
    n = rep["n_draws"]
    # Wishart sampling error: Var(S_AB) = (S_AA S_BB + S_AB^2) / (n - 1)
    se = np.sqrt((np.outer(np.diag(expected), np.diag(expected))
                  + expected**2) / (n - 1))
    assert np.all(np.abs(cov - expected) <= 3.0 * se)

    sc = build_preset("harmonic", steps=60)
    eta = 1e-3
    system = with_eta(sc.system, eta, gamma_exponent=3.0)
    timeline = evolve_trajectory(sc.state, sc.potentials, sc.dt, sc.steps)
    ens = simulate_ensemble(timeline, sc.potentials, system,
                            n_walkers=20_000, seed=7, record_velocities=True)
    vstats = velocity_increment_stats(ens)
    assert np.all(vstats["rel_err_diag"] < 0.05)

    for gamma in (1.0, 3.0, 4.0):
        sysg = single_particle(eta=0.3, gamma_exponent=gamma)
        fit = scaling_exponent(sysg, np.geomspace(0.02, 0.2, 8),
                               trials=200_000, seed=23)
        assert abs(fit["gamma_hat"] - gamma) < 0.05


def test_a06_vanishing_noise_recovers_deterministic_paths():
    # the mean worst-case gap to the eta = 0 trajectories must fall strictly
    # as eta is lowered through 1e-2, 1e-3, 1e-4
    sc = build_preset("harmonic")
    timeline = evolve_trajectory(sc.state, sc.potentials, sc.dt, sc.steps)
    rng = np.random.default_rng(3)
    x0 = draw_initial_positions(timeline[0], 300, rng)
    reference = bohmian_trajectories(timeline, sc.potentials, sc.system, x0)

    deviations = []
    for eta in (1e-2, 1e-3, 1e-4):
        system = with_eta(sc.system, eta, gamma_exponent=3.0)
        ens = simulate_ensemble(timeline, sc.potentials, system,
                                n_walkers=300, seed=5, initial_positions=x0)
        deviations.append(max_deviation_from_deterministic(ens, reference))
    assert all(b < a for a, b in zip(deviations, deviations[1:])), deviations


def test_a07_center_of_mass_classical_limit():
    # CM velocity fluctuations shrink as eta dt / M and the CM quantum
    # potential as 1/M (ratio 4 between M and 4M, within 10%)
    for n_particles in (1, 2, 4, 8):
        rep = center_of_mass_report([1.0] * n_particles, eta=1e-2, dt=0.05,
                                    n_draws=50_000, seed=100 + n_particles)
        assert rep["within_tolerance"], rep
        assert abs(rep["qpot_magnitude_ratio_M_vs_4M"] - 4.0) < 0.4


def test_a08_gauge_invariance_suite():
    sc = build_preset("ring_constant_a")
    chi = lambda x: 0.8 * np.sin(2 * np.pi * (x + 10.0) / 20.0)
    st2, pot2 = gauge_transform(sc.state, sc.potentials, chi)
    # the density never feels the gauge function (machine precision)
    assert np.max(np.abs(st2.rho - sc.state.rho)) < 1e-14

    evolved_then = gauge_transform(evolve(sc.state, sc.potentials, 0.02, 50),
                                   sc.potentials, chi)[0]
    then_evolved = evolve(st2, pot2, 0.02, 50)
    assert np.max(np.abs(evolved_then.rho - then_evolved.rho)) < 1e-8

    winding = 2 * np.pi  # one full turn of the gauge function
    ok = charge_quantization_check(
        particles_on_line((1.0, 1.0, 1.0), (1.0, 2.0, 3.0)), winding)
    assert ok["verdict"]
    bad = charge_quantization_check(
        particles_on_line((1.0, 1.0), (1.0, np.sqrt(2.0))), winding)
    assert not bad["verdict"]


def test_a09_vortex_windings_and_superpositions():
    for m in (-2, -1, 0, 1, 2):
        grid, st = vortex_state(m)
        rep = winding_number(st, centered_loop(grid, 12))
        assert rep["integer"] == m
        assert rep["gap"] < 1e-9
        assert not rep["node_on_loop"]

    # unequal-amplitude mixes have no off-centre nodes, so any loop around
    # the core reports the dominant component's integer winding
    grid, v_plus = vortex_state(1)
    _, v_minus = vortex_state(-1)
    _, v_two = vortex_state(2)
    for mix, half, want in ((superpose(0.9, v_plus, 0.35, v_minus), 8, 1),
                            (superpose(0.9, v_plus, 0.35, v_minus), 24, 1),
                            (superpose(1.0, v_plus, 0.4, v_two), 6, 1)):
        rep = winding_number(mix, centered_loop(grid, half))
        assert rep["integer"] == want
        assert rep["gap"] < 1e-9
        assert not rep["node_on_loop"]


def test_a10_time_reversal_round_trip():
    # conjugate, flip A, evolve, conjugate: the initial state returns within
    # 1e-6 in max norm — including the preset with a nonzero vector potential
    for preset in ("free", "ring_constant_a"):
        sc = build_preset(preset)
        rev = reverse_potentials(sc.potentials)
        if sc.potentials.vector_a_nodes is not None:
            assert np.allclose(rev.vector_a_nodes,
                               -sc.potentials.vector_a_nodes, atol=1e-15)
        fwd = evolve(sc.state, sc.potentials, sc.dt, sc.steps)
        back = evolve(time_reverse(fwd), rev, sc.dt, sc.steps)
        recovered = time_reverse(back)
        assert np.max(np.abs(recovered.psi - sc.state.psi)) < 1e-6


def test_a11_phase_space_identity_battery():
    rep = geometry_battery(outcomes=64, probes=100, kernels=20, seed=0)
    assert rep["j_squared_max_dev"] < 1e-10
    assert rep["metric_j_invariance_max_dev"] < 1e-10
    assert rep["omega_metric_j_identity_max_dev"] < 1e-10
    assert rep["fs_closed_vs_minimized_max_gap"] < 1e-10
    assert rep["killing_hermitian_max"] < 1e-6
    assert rep["killing_counterexample"] > 1e-3
    assert rep["commutator_identity_max_gap"] < 1e-6
    assert rep["normalization_flow_ok"]
    assert rep["all_passed"]


def test_a12_transition_information_metric():
    # Fisher information of the step kernel equals m_AB / (eta dt^gamma)
    # within 1%, carries the mass ratio, and scales as dt^-3 for gamma = 3
    sys2 = particles_on_line((1.0, 2.0), eta=0.5, gamma_exponent=3.0)
    rep = transition_information_metric(sys2, 0.1)
    assert rep["max_rel_deviation"] < 0.01
    gamma = rep["gamma_matrix"]
    assert abs(gamma[0, 0] / gamma[1, 1] - 0.5) < 0.005

    sys1 = single_particle(eta=0.5, gamma_exponent=3.0)
    g_fine = transition_information_metric(sys1, 0.1)["gamma_matrix"][0, 0]
    g_coarse = transition_information_metric(sys1, 0.2)["gamma_matrix"][0, 0]
    assert abs(g_fine / g_coarse - 8.0) < 0.08


def test_a13_entropic_step_inference():
    grid = ConfigGrid((256,), (20.0,), (True,), origin=(-10.0,))
    system = single_particle(eta=1.0, gamma_exponent=1.0)
    x = grid.axis_coords(0)
    rho0 = np.exp(-0.5 * ((x - 1.0) / 1.4) ** 2)
    rho0 /= rho0.sum() * grid.cell_volume
    rho0 = ScalarField(grid, rho0)
    dt = 0.05
    drift = VectorField(grid, np.full((1,) + grid.shape, 0.6))
    step = maxent_transition(MaxEntProblem(grid, system, dt, drift))

    one, rep1 = chapman_kolmogorov_step(rho0, step)
    two, rep2 = chapman_kolmogorov_step(one, step)
    assert abs(rep1["mass_drift"]) < 1e-6
    assert abs(rep2["mass_drift"]) < 1e-6

    # two short steps equal one step whose covariance is the sum
    combined = GaussianStep(grid, VectorField(grid, 2 * step.mean_shift.values),
                            2 * step.variances, 2 * dt)
    direct, _ = chapman_kolmogorov_step(rho0, combined)
    assert np.max(np.abs(two.values - direct.values)) < 1e-8

    check = verify_maximizer(step, perturbations=200, seed=42)
    assert check["all_nonnegative"]
    assert abs(check["self_margin"]) < 1e-10
    assert check["constraint_residual"] < 1e-9


def test_a14_reruns_are_byte_identical(tmp_path):
    args = ["ensemble", "--preset", "free", "--steps", "120",
            "--walkers", "4000", "--seed", "9"]
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    assert main(args + ["--out", str(dir_a)]) == 0
    assert main(args + ["--out", str(dir_b)]) == 0

    names_a = sorted(os.listdir(dir_a))
    names_b = sorted(os.listdir(dir_b))
    assert names_a == names_b
    match, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names_a,
                                               shallow=False)
    assert mismatch == [] and errors == []
    assert match == names_a
