import functools
import itertools
import math
import operator
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edsim import grids, stats, stochastic
from edsim.geometry import transition_information_metric
from edsim.grids import (RHO_FLOOR_REL, ConfigGrid, density_floor, gradient,
                         nearest_image, single_particle)
from edsim.presets import build_preset
from edsim.quantum import (SafeguardError, WaveState, evolve_trajectory,
                           free_potentials, gaussian_packet, madelung,
                           phase_gradient)
from edsim.stochastic import (MAX_ESCAPE_FRACTION, NOISE_THREAD_WALKERS,
                              Ensemble,
                              bohmian_trajectories, center_of_mass_report,
                              draw_initial_positions, drift_velocity_field,
                              fluctuation_covariance, interpolate_vector,
                              max_deviation_from_deterministic,
                              scaling_exponent, simulate_ensemble,
                              vanishing_noise_deviations,
                              velocity_increment_stats, with_eta)
from edsim.stochastic import _flow_tables, _Walk, _zero_pad_spectrum


def test_noise_sigma_formula():
    sys1 = single_particle(dim=1, mass=2.0, eta=1e-3, gamma_exponent=3.0)
    sig = np.sqrt(sys1.step_variances(0.01))
    assert np.allclose(sig, np.sqrt(1e-3 * 0.01**3 / 2.0), rtol=1e-14)


def test_diffusion_is_the_step_variance_over_2dt():
    """D = eta dt^(gamma - 1) / 2m is Var / 2 dt for every gamma, and at
    gamma = 1 exactly eta / 2m, which Var / 2 dt is not at eta = 1e-4,
    dt = 0.01."""
    sys1 = single_particle(eta=1e-4, gamma_exponent=1.0)
    assert sys1.diffusion(0.01)[0] == 1e-4 / 2
    assert sys1.step_variances(0.01)[0] / (2 * 0.01) != 1e-4 / 2
    for gamma in (0.5, 1.5, 3.0):
        system = with_eta(sys1, 1e-4, gamma_exponent=gamma)
        assert np.allclose(system.diffusion(0.01),
                           system.step_variances(0.01) / (2 * 0.01),
                           rtol=1e-14)


def test_with_eta_replaces_only_noise_constants():
    sys1 = single_particle(mass=1.5, eta=1e-3)
    sys2 = with_eta(sys1, 1e-6, gamma_exponent=1.0)
    assert sys2.eta == 1e-6 and sys2.gamma_exponent == 1.0
    assert sys2.masses == sys1.masses


def _lookup(grid, values, positions):
    """`interpolate_vector` at the positions on a one-block walk whose first
    table is `values`."""
    walk = _Walk(grid, [values[:, None]], positions, iter(()))
    return interpolate_vector(walk, walk.slots[0], positions)


def test_interpolation_exact_for_linear_fields():
    grid = ConfigGrid((40, 32), (4.0, 3.2), (False, False))
    xx, yy = grid.meshgrid()
    # three stacked components on a two-axis grid
    values = np.stack([2.0 * xx + 3.0 * yy - 1.0, xx * yy, 0.5 - yy])
    rng = np.random.default_rng(3)
    lo = [grid.axis_coords(a)[0] for a in range(2)]
    hi = [grid.axis_coords(a)[-1] for a in range(2)]
    pts = np.column_stack([rng.uniform(lo[a], hi[a], 300) for a in range(2)])
    out = _lookup(grid, values, pts)
    expect = np.column_stack([2 * pts[:, 0] + 3 * pts[:, 1] - 1,
                              pts[:, 0] * pts[:, 1], 0.5 - pts[:, 1]])
    assert out.shape == (300, 3)
    assert np.max(np.abs(out - expect)) < 1e-12
    # a 4x refined table on a ring: the node count comes from the table
    ring = ConfigGrid((16,), (8.0,), (True,), origin=(-4.0,))
    fine = -4.0 + 0.125 * np.arange(64)
    table = np.stack([3.0 * fine + 1.0, np.full(64, 2.0)])
    x = rng.uniform(fine[0], fine[-1], 200)
    out = _lookup(ring, table, x[:, None])
    assert out.shape == (200, 2)
    assert np.max(np.abs(out[:, 0] - (3.0 * x + 1.0))) < 1e-12
    assert np.allclose(out[:, 1], 2.0, rtol=1e-14)


def test_interpolation_periodic_wrap_and_clamp():
    grid = ConfigGrid((16,), (8.0,), (True,), origin=(-4.0,))
    values = np.stack([np.full(16, 2.5)])
    pts = np.array([[-3.97], [3.99], [0.0], [7.5]])
    out = _lookup(grid, values, pts)
    assert np.allclose(out, 2.5, rtol=1e-14)
    gridw = ConfigGrid((16,), (8.0,), (False,), origin=(-4.0,))
    xs = gridw.axis_coords(0)
    vals = np.stack([xs.copy()])
    outside = _lookup(gridw, vals, np.array([[-5.0], [5.0]]))
    assert np.allclose(outside[:, 0], [xs[0], xs[-1]], rtol=1e-14)


@pytest.mark.parametrize("n_tables", [2, 3, 50])
def test_step_plan_streams_its_tables_through_two_slots(n_tables):
    """Step k reads table k + 1 from the stream, not the whole timeline, and
    the walk holds two padded tables however long the stream is.  Table j
    drifts the walkers by j + 1 along the ring, so step k, on the blend of
    tables k and k + 1, moves them by (2k + 3) / 2 * dt."""
    grid = ConfigGrid((8, 6), (4.0, 3.0), (True, False))
    pulled = []

    def tables():
        for j in range(n_tables):
            pulled.append(j)
            rho = np.ones(grid.shape)
            yield np.stack([(j + 1.0) * rho, 0.0 * rho, rho])[:, None]

    pos = np.column_stack([np.linspace(0.0, 3.9, 5), np.full(5, 1.5)])
    walk = _Walk(grid, tables(), pos, itertools.repeat(np.zeros(pos.shape)))
    assert len(pulled) == 1
    assert walk.slots.shape == (2, 3, (8 + 2) * 6)
    for k in range(n_tables - 1):
        walk.step(k, 0.01)
        assert len(pulled) == k + 2
        shift = nearest_image(walk.pos[:, 0] - walk.new[:, 0], 4.0)
        assert np.allclose(shift, (2 * k + 3) / 2 * 0.01, rtol=1e-12)
        assert np.array_equal(walk.pos[:, 1], walk.new[:, 1])
    assert len(pulled) == n_tables


def test_initial_draw_matches_density_moments():
    grid = ConfigGrid((128,), (16.0,), (True,), origin=(-8.0,))
    state = gaussian_packet(grid, center=0.5, sigma=1.2)
    rng = np.random.default_rng(11)
    m = 200_000
    pos = draw_initial_positions(state, m, rng)
    x = grid.axis_coords(0)
    p = state.rho / state.rho.sum()
    mean_ref = float(np.sum(p * x))
    var_ref = float(np.sum(p * (x - mean_ref) ** 2)) + grid.spacing[0] ** 2 / 12
    se_mean = np.sqrt(var_ref / m)
    assert abs(pos[:, 0].mean() - mean_ref) < 5 * se_mean
    assert abs(np.var(pos[:, 0]) - var_ref) < 5 * var_ref * np.sqrt(2.0 / m)


def test_current_drift_vanishes_for_real_state():
    grid = ConfigGrid((128,), (20.0,), (True,), origin=(-10.0,))
    state = gaussian_packet(grid, 0.0, 1.5)
    sys1 = single_particle(eta=1e-3)
    pair = madelung(state, hbar=1.0)
    v = drift_velocity_field(pair, free_potentials(grid, sys1), sys1)
    assert np.max(np.abs(v)) < 1e-10


@pytest.mark.parametrize("grid", [
    ConfigGrid((256,), (24.0,), (True,), origin=(-12.0,)),
    ConfigGrid((255,), (24.0,), (False,), origin=(-12.0,)),
], ids=["ring", "wall"])
@pytest.mark.parametrize("gamma", [1.0, 1.5, 3.0])
def test_osmotic_drift_matches_log_density_gradient(grid, gamma):
    """For every gamma, the drift of a packet at rest is the osmotic term
    D grad log rho with D = eta dt^(gamma - 1) / 2 m: on a ring from the
    spectral table on its finer lattice, by hard walls from the central
    differences of log rho, which are exact for a Gaussian."""
    s, eta, mass, dt = 1.2, 2e-3, 1.7, 0.5
    state = gaussian_packet(grid, 0.0, s)
    sys1 = single_particle(mass=mass, eta=eta, gamma_exponent=gamma)
    # the flow table (rho v, rho) of one state
    (table,) = _flow_tables([state], free_potentials(grid, sys1), [sys1], dt)
    v = table[0, 0] / table[1, 0]
    x = (-12.0 + (24.0 / v.size) * np.arange(v.size) if grid.periodic[0]
         else grid.axis_coords(0))
    expect = (eta * dt**(gamma - 1.0) / (2 * mass)) * (-x / s**2)
    inner = np.abs(x) < 4 * s
    assert np.max(np.abs(v[inner] - expect[inner])) < 1e-6


def _stationary_timeline(grid, state, steps, dt):
    return [WaveState(grid, state.psi, time=k * dt) for k in range(steps + 1)]


def _ou_law_error(timeline, system):
    """`velocity_increment_stats`' relative error of a recorded 2,000-walker
    ensemble on a free ring, and how many walkers crossed its seam."""
    grid = timeline[0].grid
    ens = simulate_ensemble(timeline, free_potentials(grid, system), system,
                            n_walkers=2000, seed=7, record_velocities=True)
    rep = velocity_increment_stats(ens)
    assert np.allclose(np.diag(rep["expected"]),
                       2 * system.eta * ens.dt / system.masses[0],
                       rtol=1e-14)
    jumps = np.abs(np.diff(ens.positions[..., 0], axis=0))
    return rep["rel_err_diag"][0], int(np.any(jumps > 0.5 * grid.extents[0],
                                              axis=0).sum())


def test_velocity_increment_covariance_matches_ou_law():
    """The OU law of the velocity increments holds for a packet at rest,
    and for a moving packet whose walkers cross the ring's seam: a
    walker's velocity is its nearest-image step over dt, not a period's
    jump (which read a relative error of 1.9e9)."""
    grid = ConfigGrid((128,), (20.0,), (True,), origin=(-10.0,))
    state = gaussian_packet(grid, 0.0, 2.0)
    sys1 = single_particle(mass=1.3, eta=1e-2, gamma_exponent=3.0)
    err, _ = _ou_law_error(_stationary_timeline(grid, state, 30, 0.01), sys1)
    assert err < 0.03
    ring = ConfigGrid((256,), (30.0,), (True,), origin=(-15.0,))
    sys2 = single_particle(eta=1e-3, gamma_exponent=3.0)
    seam = gaussian_packet(ring, 14.0, 1.0, momentum=2 * np.pi * 3 / 30)
    timeline = evolve_trajectory(seam, free_potentials(ring, sys2), 0.01, 200)
    err, crossed = _ou_law_error(timeline, sys2)
    assert crossed > 500
    assert err < 0.03


def test_fluctuation_covariance_monte_carlo():
    sys1 = single_particle(dim=2, mass=2.0, eta=1e-3, gamma_exponent=3.0)
    rep = fluctuation_covariance(sys1, 0.05, n_draws=200_000, seed=1)
    diff = np.abs(np.diag(rep["covariance"]) - np.diag(rep["expected"]))
    assert np.all(diff < 4 * rep["stderr_diag"])
    off = rep["covariance"][0, 1]
    scale = np.sqrt(rep["expected"][0, 0] * rep["expected"][1, 1])
    assert abs(off) < 4 * scale / np.sqrt(200_000)


@pytest.mark.parametrize("gamma", [1.0, 3.0, 4.0])
def test_scaling_exponent_recovers_gamma(gamma):
    sys1 = single_particle(eta=5e-3, gamma_exponent=gamma)
    dt_grid = np.logspace(-3, -1, 5)
    rep = scaling_exponent(sys1, dt_grid, trials=200_000, seed=2)
    assert abs(rep["gamma_hat"] - gamma) < 0.02


def test_scaling_exponent_refuses_zero_eta():
    sys1 = single_particle(eta=0.0)
    with pytest.raises(ValueError):
        scaling_exponent(sys1, [1e-3, 1e-2], trials=100, seed=0)


def test_deterministic_trajectories_follow_spreading_packet():
    grid = ConfigGrid((256,), (30.0,), (True,), origin=(-15.0,))
    sys1 = single_particle(eta=0.0)
    sigma0, k = 1.0, 0.3
    state = gaussian_packet(grid, 0.0, sigma0, momentum=k)
    pot = free_potentials(grid, sys1)
    dt, steps = 0.01, 100
    timeline = evolve_trajectory(state, pot, dt, steps)
    x0 = np.array([[-1.0], [0.0], [1.5]])
    paths = bohmian_trajectories(timeline, pot, sys1, x0)
    t = steps * dt
    sig_t = sigma0 * np.sqrt(1 + (t / (2 * sigma0**2)) ** 2)
    expect = k * t + x0[:, 0] * sig_t / sigma0
    assert np.max(np.abs(paths[-1][:, 0] - expect)) < 0.02


# The free preset's largest Bohmian error against its closed form at 512
# points reads 1.05e-3; with node-lattice ring tables (REFINE = 1) it reads
# 1.43e-3, at the same order 2.  The bound sits between the two.
FREE_512_MAX_ERROR = 1.2e-3


def _preset_paths(name: str, points: int, dt: float) -> tuple:
    """The times of a T = 2 run of preset `name` at `points` points and step
    dt, with the Bohmian paths of 200 evenly spaced starts within 2 sigma
    of the preset packet's centre (centre 1 and sigma sqrt(1/2) on
    harmonic, centre 0 and sigma 1 on free), shape (steps + 1, 200)."""
    sc = build_preset(name, points=points, dt=dt, steps=round(2 / dt))
    timeline = evolve_trajectory(sc.state, sc.potentials, sc.dt, sc.steps)
    x0 = np.linspace(-2, 2, 200)
    if name == "harmonic":
        x0 = 1.0 + np.sqrt(0.5) * x0
    paths = bohmian_trajectories(timeline, sc.potentials, sc.system,
                                 x0[:, None])[..., 0]
    return np.array([s.time for s in timeline]), paths


def _closed_form_error(name: str, points: int) -> float:
    """Largest distance, over T = 2 at dt = 0.0025, between the Bohmian paths
    of `_preset_paths` and their closed form: x0 + cos t - 1 in the
    harmonic preset's coherent state (centre 1, omega = 1),
    k t + x0 sqrt(1 + (t / 2)^2) for the free preset's packet (sigma 1,
    k = 2 pi 3 / 30), taken to the nearest image on its ring of length
    30."""
    t, paths = _preset_paths(name, points, 0.0025)
    t, x0 = t[:, None], paths[0]
    if name == "harmonic":
        exact = x0 + np.cos(t) - 1
    else:
        exact = 2 * np.pi * 3 / 30 * t + x0 * np.sqrt(1 + (t / 2) ** 2)
    return float(np.max(np.abs(nearest_image(paths - exact, 30.0))))


@pytest.mark.parametrize("name", ["harmonic", "free"])
def test_bohmian_paths_converge_to_their_closed_form(name):
    """The eta = 0 paths of a Gaussian packet against the closed form, at
    128, 256 and 512 points: second order in the grid spacing, and on the
    free ring within FREE_512_MAX_ERROR at 512 points."""
    points = (128, 256, 512)
    errors = [_closed_form_error(name, n) for n in points]
    assert stats.convergence_order([1 / n for n in points],
                                   errors)["order"] >= 1.8, errors
    if name == "free":
        assert errors[-1] <= FREE_512_MAX_ERROR


def test_the_closed_form_bound_catches_node_lattice_ring_tables(monkeypatch):
    """Without the spectral resample of the ring's flow tables the free
    paths at 512 points miss FREE_512_MAX_ERROR."""
    monkeypatch.setattr(stochastic, "REFINE", 1)
    assert _closed_form_error("free", 512) > FREE_512_MAX_ERROR


# The largest Bohmian error at dt = 0.01 against a dt = 0.00125 reference
# on 256 points reads 4.15e-5 on free and 1.66e-4 on harmonic (6.7e-4 and
# 2.7e-3 at dt = 0.04, order 2.00 on both).  The bounds leave a fifth.
DT_001_MAX_ERROR = {"free": 5e-5, "harmonic": 2e-4}


@pytest.mark.parametrize("name", ["harmonic", "free"])
def test_bohmian_paths_converge_in_the_step(name):
    """The eta = 0 paths of `_preset_paths` at dt = 0.04, 0.02 and 0.01
    against those at dt = 0.00125 on the same 256 points, compared at the
    coarse steps: second order in dt (the midpoint rule's, and Crank-
    Nicolson's under it), and within DT_001_MAX_ERROR at dt = 0.01."""
    dts, fine = (0.04, 0.02, 0.01), 0.00125
    t_ref, ref = _preset_paths(name, 256, fine)
    errors = []
    for dt in dts:
        t, paths = _preset_paths(name, 256, dt)
        stride = round(dt / fine)
        np.testing.assert_allclose(t, t_ref[::stride], rtol=0, atol=1e-12)
        errors.append(float(np.max(np.abs(
            nearest_image(paths - ref[::stride], 30.0)))))
    assert stats.convergence_order(dts, errors)["order"] >= 1.8, errors
    assert errors[-1] <= DT_001_MAX_ERROR[name], errors


def test_ensemble_mean_tracks_packet_center():
    grid = ConfigGrid((256,), (30.0,), (True,), origin=(-15.0,))
    sys1 = single_particle(eta=1e-3, gamma_exponent=3.0)
    state = gaussian_packet(grid, 0.0, 1.0, momentum=0.5)
    pot = free_potentials(grid, sys1)
    dt, steps = 0.01, 40
    timeline = evolve_trajectory(state, pot, dt, steps)
    ens = simulate_ensemble(timeline, pot, sys1, n_walkers=4000, seed=5)
    assert abs(ens.positions[-1][:, 0].mean() - 0.5 * 0.4) < 0.05


def test_vanishing_noise_recovers_deterministic_flow():
    grid = ConfigGrid((256,), (30.0,), (True,), origin=(-15.0,))
    state = gaussian_packet(grid, 0.0, 1.0, momentum=0.4)
    pot = free_potentials(grid, single_particle())
    dt, steps = 0.01, 30
    base = single_particle(eta=1e-2, gamma_exponent=1.0)
    timeline = evolve_trajectory(state, pot, dt, steps)
    rng = np.random.default_rng(9)
    x0 = rng.normal(0.0, 1.0, size=(300, 1))
    ref = bohmian_trajectories(timeline, pot, base, x0)
    devs = []
    for eta in (1e-2, 1e-4, 1e-6):
        sys_eta = with_eta(base, eta, gamma_exponent=1.0)
        ens = simulate_ensemble(timeline, pot, sys_eta, n_walkers=300, seed=21,
                                initial_positions=x0)
        devs.append(max_deviation_from_deterministic(ens, ref))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 5e-3


def test_ensemble_runs_are_reproducible():
    grid = ConfigGrid((128,), (20.0,), (True,), origin=(-10.0,))
    state = gaussian_packet(grid, 0.0, 1.5)
    sys1 = single_particle(eta=1e-2, gamma_exponent=1.0)
    timeline = _stationary_timeline(grid, state, 10, 0.01)
    a = simulate_ensemble(timeline, free_potentials(grid, sys1), sys1, 500,
                          seed=42)
    b = simulate_ensemble(timeline, free_potentials(grid, sys1), sys1, 500,
                          seed=42)
    c = simulate_ensemble(timeline, free_potentials(grid, sys1), sys1, 500,
                          seed=43)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)


def test_timeline_spacing_mismatch_rejected():
    grid = ConfigGrid((64,), (16.0,), (True,), origin=(-8.0,))
    state = gaussian_packet(grid, 0.0, 1.5)
    states = [WaveState(grid, state.psi, time=t) for t in (0.0, 0.1, 0.3)]
    sys1 = single_particle(eta=1e-3)
    pot = free_potentials(grid, sys1)
    with pytest.raises(ValueError, match="not uniform"):
        simulate_ensemble(states, pot, sys1, 10, seed=0)
    with pytest.raises(ValueError, match="not uniform"):
        bohmian_trajectories(states, pot, sys1, np.zeros((10, 1)))
    with pytest.raises(ValueError, match="not uniform"):
        vanishing_noise_deviations(states, pot, [sys1], 0, np.zeros((10, 1)))


@pytest.mark.parametrize("times, message", [
    ((0.0, -0.1, -0.2), "must increase"),
    ((0.0, 0.0, 0.0), "must increase"),
    ((0.0, 0.1, 0.1), "must increase"),
], ids=["backward", "zero", "stalled"])
def test_timeline_without_one_positive_step_is_refused(times, message):
    """The timeline is the one source of dt: a sampled run refuses one with
    a spacing that is not positive (`test_timeline_spacing_mismatch_rejected`
    covers an uneven one)."""
    grid = ConfigGrid((64,), (16.0,), (True,), origin=(-8.0,))
    state = gaussian_packet(grid, 0.0, 1.5)
    states = [WaveState(grid, state.psi, time=t) for t in times]
    sys1 = single_particle(eta=1e-3)
    pot = free_potentials(grid, sys1)
    x0 = np.zeros((10, 1))
    with pytest.raises(ValueError, match=message):
        simulate_ensemble(states, pot, sys1, 10, seed=0)
    with pytest.raises(ValueError, match=message):
        bohmian_trajectories(states, pot, sys1, x0)
    with pytest.raises(ValueError, match=message):
        vanishing_noise_deviations(states, pot, [sys1], 0, x0)


@pytest.mark.parametrize("dt", [0.0, -0.05])
def test_fluctuation_laws_refuse_non_positive_dt(dt):
    """`step_variances` refuses dt <= 0, so no caller of the fluctuation
    law turns it into NaN: a negative step variance has no square root."""
    sys1 = single_particle(eta=1e-3)
    calls = [lambda: fluctuation_covariance(sys1, dt, n_draws=10, seed=0),
             lambda: scaling_exponent(sys1, [dt, 0.1], trials=10, seed=0),
             lambda: center_of_mass_report([1.0], eta=1e-3, dt=dt,
                                           n_draws=10, seed=0),
             lambda: transition_information_metric(sys1, dt)]
    for call in calls:
        with pytest.raises(ValueError, match="dt must be positive"):
            call()


def _escape_case(n_escaping, walkers):
    """`walkers` walkers under a uniform drift v = 2 to the right of a box
    [0, 4]: the first `n_escaping` start at 3.95 and cross the wall in the
    first step, the rest start at 2.0 and stay inside.  Returns the
    timeline, potentials, system (eta = 0) and start positions."""
    grid = ConfigGrid((32,), (4.0,), (False,), origin=(0.0,))
    psi = np.exp(2j * grid.axis_coords(0))
    timeline = _stationary_timeline(grid, WaveState(grid, psi), 4, 0.05)
    sys1 = single_particle(eta=0.0)
    x0 = np.full((walkers, 1), 2.0)
    x0[:n_escaping] = 3.95
    return timeline, free_potentials(grid, sys1), sys1, x0


def _escape_run(n_escaping, walkers=100):
    timeline, pot, sys1, x0 = _escape_case(n_escaping, walkers)
    return simulate_ensemble(timeline, pot, sys1, walkers, seed=0,
                             initial_positions=x0)


def _escape_paths(driver, n_escaping):
    """The paths of `_escape_case` over 100 walkers under `driver`, and the
    escape count of the run (None for the Bohmian paths, which report
    none)."""
    if driver == "ensemble":
        ens = _escape_run(n_escaping)
        return ens.positions, ens.meta["escaped"]
    timeline, pot, sys1, x0 = _escape_case(n_escaping, 100)
    return bohmian_trajectories(timeline, pot, sys1, x0), None


@pytest.mark.parametrize("driver", ["ensemble", "bohmian"])
def test_escape_abort_threshold(driver):
    # MAX_ESCAPE_FRACTION = 1% of 100 walkers: the second escape aborts,
    # the deterministic paths' as the sampled ones'
    with pytest.raises(RuntimeError):
        _escape_paths(driver, 2)


@pytest.mark.parametrize("driver", ["ensemble", "bohmian"])
def test_escaped_walkers_are_frozen_and_counted(driver):
    positions, escaped = _escape_paths(driver, 1)
    assert escaped == (1 if driver == "ensemble" else None)
    assert np.all(positions[:, 0, 0] == 3.95)
    assert np.allclose(positions[:, 1:, 0].T, 2.0 + 0.1 * np.arange(5),
                       rtol=1e-12)


def _vortex_timeline(winding):
    sc = build_preset("vortex_2d", steps=40, winding=winding)
    return sc, evolve_trajectory(sc.state, sc.potentials, sc.dt, sc.steps)


def test_vortex_ensemble_collapses_onto_bohmian_paths():
    sc, timeline = _vortex_timeline(1)
    x0 = draw_initial_positions(timeline[0], 200, np.random.default_rng(3))
    ref = bohmian_trajectories(timeline, sc.potentials, sc.system, x0)
    devs = []
    for eta in (1e-6, 1e-8):
        sys_eta = with_eta(sc.system, eta, gamma_exponent=1.0)
        ens = simulate_ensemble(timeline, sc.potentials, sys_eta,
                                n_walkers=200, seed=5, initial_positions=x0)
        assert ens.meta["escaped"] == 0
        devs.append(max_deviation_from_deterministic(ens, ref))
    assert devs[1] < devs[0]
    assert devs[1] < 1e-3


@pytest.mark.parametrize("winding", [1, -1, 2])
def test_bohmian_walkers_circle_vortex_with_winding_sign(winding):
    # v = hbar w / (m r) around the core: dtheta = w t / r^2 at r = 2
    sc, timeline = _vortex_timeline(winding)
    angles = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    x0 = 2.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    paths = bohmian_trajectories(timeline, sc.potentials, sc.system, x0)
    theta = np.unwrap(np.arctan2(paths[..., 1], paths[..., 0]), axis=0)
    turned = theta[-1] - theta[0]
    expect = winding * (timeline[-1].time - timeline[0].time) / 2.0**2
    assert np.all(np.sign(turned) == np.sign(winding))
    assert abs(turned.mean() - expect) < 0.02 * abs(expect)


def test_center_of_mass_fluctuations_shrink_with_total_mass():
    rep1 = center_of_mass_report([1.0], eta=1e-2, dt=0.05, seed=4)
    rep4 = center_of_mass_report([1.0] * 4, eta=1e-2, dt=0.05, seed=5)
    assert rep1["within_tolerance"] and rep4["within_tolerance"]
    assert np.isclose(rep1["expected_variance"],
                      4 * rep4["expected_variance"], rtol=1e-12)
    assert abs(rep4["qpot_magnitude_ratio_M_vs_4M"] - 4.0) < 1e-9


# ---------------------------------------------------------------------------
# bit identity with the plain np.mod formulation of the walker step
# ---------------------------------------------------------------------------

def _ref_wrap(grid, x):
    x = x.copy()
    for a in range(grid.dim):
        if grid.periodic[a]:
            lo = grid.origin[a]
            x[:, a] = lo + np.mod(x[:, a] - lo, grid.extents[a])
    return x


def _ref_drift(grid, table, x):
    shape = table.shape[1:]
    ends = []
    for a, n in enumerate(shape):
        if grid.periodic[a]:
            t = np.mod((x[:, a] - grid.origin[a]) / (grid.extents[a] / n), n)
            f = np.floor(t)
            lo, hi = np.mod(f.astype(int), n), np.mod(f.astype(int) + 1, n)
        else:
            h = grid.extents[a] / (n + 1)
            t = np.clip((x[:, a] - (grid.origin[a] + h)) / h, 0.0, n - 1.0)
            f = np.minimum(np.floor(t), n - 2.0)
            lo, hi = f.astype(int), f.astype(int) + 1
        stride = math.prod(shape[a + 1:])
        ends.append(((lo * stride, 1.0 - (t - f)), (hi * stride, t - f)))
    flat = table.reshape(len(table), -1)
    at = None
    for corner in itertools.product(*ends):
        nodes, weights = zip(*corner)
        term = flat[:, sum(nodes)] * functools.reduce(operator.mul, weights)
        at = term if at is None else at + term
    floor = RHO_FLOOR_REL * table[-1].max()
    return (at[:-1] / np.maximum(at[-1], floor)).T


def _ref_midpoint(grid, t0, t_half, pos, h):
    half = _ref_wrap(grid, pos + 0.5 * h * _ref_drift(grid, t0, pos))
    return _ref_drift(grid, t_half, half)


def _ref_ensemble(timeline, pot, system, dt, seed, x0):
    grid = timeline[0].grid
    tables = [t[:, 0] for t in _flow_tables(timeline, pot, [system], dt)]
    noise_seq = np.random.SeedSequence(seed).spawn(2)[1]
    rng = np.random.Generator(np.random.Philox(noise_seq))
    pos, alive, path = x0.copy(), np.ones(len(x0), dtype=bool), [x0]
    for k in range(len(timeline) - 1):
        v = _ref_midpoint(grid, tables[k], 0.5 * tables[k] + 0.5 * tables[k + 1],
                          pos, dt)
        new = _ref_wrap(grid, pos + v * dt
                        + rng.standard_normal(pos.shape)
                        * np.sqrt(system.step_variances(dt)))
        for a in range(grid.dim):
            if not grid.periodic[a]:
                lo, hi = grid.origin[a], grid.origin[a] + grid.extents[a]
                alive &= (new[:, a] > lo) & (new[:, a] < hi)
        new[~alive] = pos[~alive]
        pos = new
        path.append(pos)
    return np.array(path), int((~alive).sum())


def _ref_bohmian(timeline, pot, system, x0):
    grid = timeline[0].grid
    # every step is the timeline's one spacing
    h = timeline[1].time - timeline[0].time
    tables = [t[:, 0] for t in _flow_tables(timeline, pot, [system], h)]
    pos, path = x0.copy(), [x0]
    for k in range(len(timeline) - 1):
        v = _ref_midpoint(grid, 1.0 * tables[k] + 0.0 * tables[k + 1],
                          0.5 * tables[k] + 0.5 * tables[k + 1], pos, h)
        pos = _ref_wrap(grid, pos + h * v)
        path.append(pos)
    return np.array(path)


IDENTITY_CASES = [("free", 3.0, 1e-3), ("harmonic", 1.0, 0.05),
                  ("vortex_2d", 1.0, 0.05), ("ring_constant_a", 3.0, 1e-3)]


def _identity_case(name, walkers=400, **overrides):
    sc = build_preset(name, steps=12, **overrides)
    timeline = evolve_trajectory(sc.state, sc.potentials, sc.dt, sc.steps)
    x0 = draw_initial_positions(timeline[0], walkers,
                                np.random.default_rng(2))
    # np.mod rounds -ulp up to the period itself on a ring; on a hard wall
    # this walker starts outside and escapes
    x0[0] = np.nextafter(np.array(sc.grid.origin), -np.inf)
    return sc, timeline, x0


@pytest.mark.parametrize("name, gamma, eta", IDENTITY_CASES)
def test_ensemble_is_bit_identical_to_np_mod_stepper(name, gamma, eta):
    sc, timeline, x0 = _identity_case(name)
    system = with_eta(sc.system, eta, gamma_exponent=gamma)
    ens = simulate_ensemble(timeline, sc.potentials, system, 400, seed=7,
                            initial_positions=x0)
    path, escaped = _ref_ensemble(timeline, sc.potentials, system, sc.dt, 7,
                                  x0)
    assert np.array_equal(ens.positions, path)
    assert ens.meta["escaped"] == escaped


@pytest.fixture
def started_threads(monkeypatch):
    """Every thread started while the test runs; the interpreter switches
    threads every microsecond meanwhile, so that they interleave often."""
    started, start = [], threading.Thread.start

    def record(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield started
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("name, gamma, eta", [("free", 3.0, 1e-3),
                                              ("harmonic", 1.0, 0.05)])
def test_threaded_noise_is_bit_identical_to_np_mod_stepper(
        name, gamma, eta, started_threads):
    """From NOISE_THREAD_WALKERS walkers on, a helper thread draws each
    step's noise one step ahead; the paths keep the bits of the reference
    stepper, the escaping walker of `_identity_case` included."""
    sc, timeline, x0 = _identity_case(name, NOISE_THREAD_WALKERS)
    system = with_eta(sc.system, eta, gamma_exponent=gamma)
    ens = simulate_ensemble(timeline, sc.potentials, system,
                            NOISE_THREAD_WALKERS, seed=7,
                            initial_positions=x0)
    assert started_threads
    path, escaped = _ref_ensemble(timeline, sc.potentials, system, sc.dt, 7,
                                  x0)
    assert np.array_equal(ens.positions, path)
    assert ens.meta["escaped"] == escaped


@pytest.mark.parametrize("too_many", [False, True])
def test_noise_helper_thread_is_joined_on_every_exit(too_many,
                                                     started_threads):
    """The helper is gone when simulate_ensemble returns, and when more
    than MAX_ESCAPE_FRACTION of the walkers escape in the first step while
    it draws the second step's noise."""
    before = threading.enumerate()
    n_escaping = int(MAX_ESCAPE_FRACTION * NOISE_THREAD_WALKERS) + too_many
    if too_many:
        with pytest.raises(SafeguardError):
            _escape_run(n_escaping, NOISE_THREAD_WALKERS)
    else:
        assert _escape_run(n_escaping,
                           NOISE_THREAD_WALKERS).meta["escaped"] == n_escaping
    assert started_threads
    assert not any(t.is_alive() for t in started_threads)
    assert threading.enumerate() == before


@pytest.mark.parametrize("name", [c[0] for c in IDENTITY_CASES])
def test_bohmian_paths_are_bit_identical_to_np_mod_stepper(name):
    sc, timeline, x0 = _identity_case(name)
    system = with_eta(sc.system, 0.0, gamma_exponent=3.0)
    paths = bohmian_trajectories(timeline, sc.potentials, system, x0)
    assert np.array_equal(paths, _ref_bohmian(timeline, sc.potentials,
                                              system, x0))


@pytest.mark.parametrize("name", ["free", "harmonic", "interference",
                                  "vortex_2d", "ring_constant_a"])
@pytest.mark.parametrize("gamma", [3.0, 1.0, 1.5])
def test_noiseless_ensemble_follows_bohmian_paths(name, gamma):
    """At eta = 0 the sampler's step is the deterministic step for every
    gamma: D = 0 leaves the current velocity, and the ensemble lands on the
    Bohmian paths from the same start; both step by the timeline's one
    spacing."""
    sc = build_preset(name, steps=30)
    timeline = evolve_trajectory(sc.state, sc.potentials, sc.dt, sc.steps)
    x0 = draw_initial_positions(timeline[0], 300, np.random.default_rng(4))
    system = with_eta(sc.system, 0.0, gamma_exponent=gamma)
    ens = simulate_ensemble(timeline, sc.potentials, system, 300, seed=1,
                            initial_positions=x0)
    paths = bohmian_trajectories(timeline, sc.potentials, system, x0)
    dev = ens.positions - paths
    for a in range(sc.grid.dim):
        if sc.grid.periodic[a]:
            dev[..., a] = nearest_image(dev[..., a], sc.grid.extents[a])
    assert ens.meta["escaped"] == 0
    assert np.max(np.abs(dev)) < 1e-12


# ---------------------------------------------------------------------------
# the limit study in lockstep: shared flow rows, one pass over the states
# ---------------------------------------------------------------------------

def _reference_flow_tables(timeline, pot, system, dt):
    """Every state's flow table built from scratch for one run: the current
    velocity and its osmotic term D grad log rho, D = eta dt^(gamma - 1) / 2m,
    inline, with no rows shared."""
    grid = timeline[0].grid
    masses, beta = system.mass_per_axis, system.beta_per_axis
    power = dt**(system.gamma_exponent - 1.0)
    if not (grid.dim == 1 and grid.periodic[0]):
        for state in timeline:
            pair = madelung(state, hbar=system.hbar)
            comps = []
            for a in range(grid.dim):
                mom = (phase_gradient(pair, a)
                       - system.hbar * beta[a] * pot.vector_a_nodes[a])
                comps.append(mom / masses[a])
            rho = pair.rho
            floored = np.maximum(rho, density_floor(rho))
            log_rho = np.log(floored)
            for a in range(grid.dim):
                comps[a] = comps[a] + ((system.eta * power / (2 * masses[a]))
                                       * gradient(grid, log_rho, a))
            v = np.stack(comps)
            yield np.concatenate([state.rho[None] * v, state.rho[None]])
        return
    m = masses[0]
    a_f = _zero_pad_spectrum(np.fft.fft(pot.vector_a_nodes[0])).real
    a_term = (system.hbar * beta[0] / m) * a_f
    ik = 2j * np.pi * np.fft.fftfreq(grid.points[0], d=grid.spacing[0])
    for state in timeline:
        spec = np.fft.fft(state.psi)
        psi_f = _zero_pad_spectrum(spec)
        dpsi_f = _zero_pad_spectrum(spec * ik)
        cross = np.conj(psi_f) * dpsi_f
        rho_f = np.abs(psi_f) ** 2
        num = (system.hbar / m) * cross.imag - a_term * rho_f
        # rho D grad log rho = D grad rho = 2 D Re(psi* psi')
        num = num + (system.eta * power / m) * cross.real
        yield np.stack([num, rho_f])


LOCKSTEP_CASES = [("free", {}), ("ring_constant_a", {}), ("harmonic", {}),
                  ("vortex_2d", {"points": 32})]


@pytest.mark.parametrize("name, overrides", LOCKSTEP_CASES,
                         ids=[c[0] for c in LOCKSTEP_CASES])
@pytest.mark.parametrize("gamma", [pytest.param(1.0, id="ES"),
                                   pytest.param(1.5, id="fractional"),
                                   pytest.param(3.0, id="current")])
def test_shared_rows_finish_to_the_per_run_tables(name, overrides, gamma):
    """Rows built once and finished for two eta into one run-stacked table
    give in each block, bit for bit, the table that run would have built on
    its own, osmotic term included, for every gamma."""
    sc, timeline, _ = _identity_case(name, **overrides)
    systems = [with_eta(sc.system, eta, gamma_exponent=gamma)
               for eta in (0.05, 1e-3)]
    got = list(_flow_tables(timeline, sc.potentials, systems, sc.dt))
    assert len(got) == len(timeline)
    for r, system in enumerate(systems):
        expect = list(_reference_flow_tables(timeline, sc.potentials, system,
                                             sc.dt))
        for table, ref in zip(got, expect):
            assert table[:, r].shape == ref.shape
            assert table[:, r].tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", ["vortex_2d", "harmonic"])
def test_flow_tables_build_no_checked_fields(name, monkeypatch):
    """The stencils of an ES table build work on plain arrays: the field
    check runs where data enters the package, never on its own arithmetic."""
    sc, timeline, _ = _identity_case(name, walkers=1)
    system = with_eta(sc.system, 0.05, gamma_exponent=1.0)
    checks = []
    check = grids._check_values

    def counted(*args):
        checks.append(args)
        return check(*args)

    monkeypatch.setattr(grids, "_check_values", counted)
    tables = list(_flow_tables(timeline, sc.potentials, [system], sc.dt))
    assert len(tables) == len(timeline)
    assert checks == []


def _separate_deviations(sc, timeline, systems, seed, x0):
    """The limit study one run after another: the Bohmian reference, then
    one recorded ensemble per system."""
    reference = bohmian_trajectories(timeline, sc.potentials, sc.system, x0)
    out = []
    for system in systems:
        ens = simulate_ensemble(timeline, sc.potentials, system, len(x0),
                                seed=seed, initial_positions=x0)
        out.append(max_deviation_from_deterministic(ens, reference))
    return out


@pytest.mark.parametrize("name, overrides", LOCKSTEP_CASES,
                         ids=[c[0] for c in LOCKSTEP_CASES])
@pytest.mark.parametrize("gammas", [(1.0, 1.0, 1.0), (1.0, 3.0, 1.0)],
                         ids=["ES", "mixed"])
def test_lockstep_deviations_equal_separate_runs(name, overrides, gammas):
    """Three distinct eta stepped together give, with ==, the deviations of
    three separate runs against a separate Bohmian run, so no run reads
    another run's table or noise.  The walker `_identity_case` puts just
    outside the box escapes on hard walls and is frozen."""
    sc, timeline, x0 = _identity_case(name, **overrides)
    systems = [with_eta(sc.system, eta, gamma_exponent=g)
               for eta, g in zip((0.05, 1e-2, 1e-3), gammas)]
    got = vanishing_noise_deviations(timeline, sc.potentials, systems, 7, x0)
    assert got == _separate_deviations(sc, timeline, systems, 7, x0)
    assert len(set(got)) == 3


@pytest.mark.parametrize("name, overrides", LOCKSTEP_CASES,
                         ids=[c[0] for c in LOCKSTEP_CASES])
def test_lockstep_walkers_at_the_top_edge_read_their_own_block(name,
                                                               overrides):
    """Walkers just below the upper end of every axis, origin + extent - ulp
    (on a ring the last cell, whose upper node is the padded repeat of node
    0; by a hard wall the last node), and the same per axis alone, in every
    block: a wrong block offset or pad would read the next block's first
    node, and the deviations would differ from separate runs."""
    sc, timeline, x0 = _identity_case(name, walkers=1000, **overrides)
    top = np.nextafter(np.array(sc.grid.origin) + np.array(sc.grid.extents),
                       -np.inf)
    x0[1] = top
    for a in range(sc.grid.dim):
        x0[2 + a, a] = top[a]
    systems = [with_eta(sc.system, eta, gamma_exponent=1.0)
               for eta in (0.05, 1e-2, 1e-3)]
    got = vanishing_noise_deviations(timeline, sc.potentials, systems, 7, x0)
    assert got == _separate_deviations(sc, timeline, systems, 7, x0)


def test_lockstep_draws_every_runs_noise_from_one_generator(monkeypatch):
    """The three runs of a limit study share one Philox generator: one
    standard normal fill per step, scaled by each run's deviation."""
    sc, timeline, x0 = _identity_case("free")
    built = []
    philox = np.random.Philox

    def counted(*args):
        built.append(args)
        return philox(*args)

    monkeypatch.setattr(np.random, "Philox", counted)
    systems = [with_eta(sc.system, eta, gamma_exponent=1.0)
               for eta in (1e-2, 1e-3, 1e-4)]
    vanishing_noise_deviations(timeline, sc.potentials, systems, 7, x0)
    assert len(built) == 1


# per case, the function of the eta-free row work, its calls per state and
# its calls once per timeline: on a ring psi and psi' are resampled per
# state and A once, elsewhere each state is split into (rho, phase) once
ROW_WORK = [("free", "_zero_pad_spectrum", 2, 1),
            ("harmonic", "madelung", 1, 0)]


@pytest.mark.parametrize("name, work, per_state, once", ROW_WORK,
                         ids=[c[0] for c in ROW_WORK])
def test_lockstep_builds_each_states_rows_once(name, work, per_state, once,
                                               monkeypatch):
    """One pass over the states builds each state's eta-free rows once for
    the reference and three ES runs, stepped as the blocks of one walk that
    holds two padded tables: rows built per block would call the row work
    four times per state."""
    sc, timeline, x0 = _identity_case(name)
    calls, walks = [], []
    row_work = getattr(stochastic, work)

    def counted(*args, **kwargs):
        calls.append(args)
        return row_work(*args, **kwargs)

    class Walk(_Walk):
        def __init__(self, *args):
            super().__init__(*args)
            walks.append(self)

    monkeypatch.setattr(stochastic, work, counted)
    monkeypatch.setattr(stochastic, "_Walk", Walk)
    systems = [with_eta(sc.system, eta, gamma_exponent=1.0)
               for eta in (1e-2, 1e-3, 1e-4)]
    vanishing_noise_deviations(timeline, sc.potentials, systems, 7, x0)
    assert len(calls) == per_state * len(timeline) + once
    (walk,) = walks
    # two slots, each of 1 + len(systems) blocks
    assert walk.padded.shape[0] == 2
    assert walk.padded.shape[2] == 1 + len(systems)


@pytest.mark.parametrize("driver", ["ensemble", "bohmian", "lockstep"])
def test_lockstep_refuses_systems_that_differ_beyond_the_noise(driver):
    """The wave states were evolved for the potentials' particles: a walk
    whose drift divides by another mass is refused by every driver."""
    sc, timeline, x0 = _identity_case("free")
    heavier = single_particle(mass=2.0, eta=1e-3, gamma_exponent=1.0)
    with pytest.raises(ValueError, match="eta and gamma only"):
        if driver == "ensemble":
            simulate_ensemble(timeline, sc.potentials, heavier, len(x0), 7,
                              initial_positions=x0)
        elif driver == "bohmian":
            bohmian_trajectories(timeline, sc.potentials, heavier, x0)
        else:
            vanishing_noise_deviations(timeline, sc.potentials, [heavier],
                                       7, x0)


def _wall_case(steps=8, dt=0.05):
    """NOISE_THREAD_WALKERS walkers at x = 2.6 under a uniform drift v = 2
    towards the wall of a box [0, 4]; enough noise pushes them through."""
    grid = ConfigGrid((32,), (4.0,), (False,), origin=(0.0,))
    psi = np.exp(2j * grid.axis_coords(0))
    timeline = _stationary_timeline(grid, WaveState(grid, psi), steps, dt)
    base = single_particle(eta=0.0)
    x0 = np.full((NOISE_THREAD_WALKERS, 1), 2.6)
    return timeline, free_potentials(grid, base), base, x0


@pytest.mark.parametrize("etas", [(1e-4, 1.0, 0.05), (1e-4, 0.2, 1.0)],
                         ids=["one-fails", "two-fail"])
def test_lockstep_raises_the_first_failure_and_joins_every_stream(
        etas, started_threads):
    """A run that lets too many walkers escape partway raises the
    SafeguardError the separate runs, in order, would raise first (at
    eta = 1 the escape check trips at step 4 of 8, at eta = 0.2 at step 8),
    the one noise thread of the walk draws for every run, and it does not
    outlive the call."""
    timeline, pot, base, x0 = _wall_case()
    systems = [with_eta(base, eta, gamma_exponent=1.0) for eta in etas]
    first = None
    for system in systems:
        try:
            simulate_ensemble(timeline, pot, system, len(x0), seed=3,
                              initial_positions=x0)
        except SafeguardError as exc:
            first = str(exc)
            break
    assert first is not None
    before = threading.enumerate()
    started_threads.clear()
    with pytest.raises(SafeguardError) as info:
        vanishing_noise_deviations(timeline, pot, systems, 3, x0)
    assert str(info.value) == first
    assert sum(t.name.startswith("edsim-noise") for t in started_threads) == 1
    assert not any(t.is_alive() for t in started_threads)
    assert threading.enumerate() == before


@settings(derandomize=True, deadline=None)
@given(inside=st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=20),
       far=st.lists(st.floats(-1e300, 1e300), max_size=3),
       box=st.sampled_from([(-15.0, 30.0), (0.0, 8.0), (-4.0, 8.0),
                            (2.5, 0.1), (-20.0, 40.0)]))
def test_wrap_rule_equals_np_mod(inside, far, box):
    """Bitwise equal to lo + np.mod(x - lo, L): the masked shift within one
    period of the box, the np.mod fallback beyond it.  The nearest image of
    a displacement is np.mod(d + L / 2, L) - L / 2, within half a period."""
    lo, period = box
    grid = ConfigGrid((16,), (period,), (True,), origin=(lo,))
    edges = [lo, lo + period, np.nextafter(lo, -np.inf),
             np.nextafter(lo + period, np.inf), -0.0]
    for x in (lo + period * np.array(inside + [0.0, 1.0]),
              np.array(inside + edges + far)):
        got = grid.wrap(x[:, None])[:, 0]
        assert np.array_equal(got.view(np.int64),
                              (lo + np.mod(x - lo, period)).view(np.int64))
    d = period * np.array(inside + [-0.5, 0.5, 1.5])
    image = nearest_image(d, period)
    assert np.array_equal(image.view(np.int64),
                          (np.mod(d + period / 2, period)
                           - period / 2).view(np.int64))
    assert np.all(np.abs(image) <= period / 2)


def _line_run(steps=2):
    """A stationary timeline of `steps` steps on a 32-node ring, its
    potentials and an OU system."""
    grid = ConfigGrid((32,), (8.0,), (True,), origin=(-4.0,))
    sys1 = single_particle(eta=1e-3)
    timeline = _stationary_timeline(grid, gaussian_packet(grid, 0.0, 1.0),
                                    steps, 0.01)
    return timeline, free_potentials(grid, sys1), sys1


def _deviations(start):
    """`vanishing_noise_deviations` of `_line_run` from `start`."""
    timeline, pot, sys1 = _line_run()
    return vanishing_noise_deviations(timeline, pot, [sys1], 0, start)


def _recorded():
    """A 10-walker ensemble of `_line_run`, recorded without velocities."""
    return simulate_ensemble(*_line_run(), 10, seed=0)


REFUSALS = {
    "one-state": (lambda: simulate_ensemble(*_line_run(steps=0), 10, seed=0),
                  "at least two states"),
    "start-shape": (lambda: simulate_ensemble(
        *_line_run(), 10, seed=0, initial_positions=np.zeros((9, 1))),
        "initial_positions shape mismatch"),
    # a walk of the limit study is checked as a run's: one row a walker,
    # one column an axis
    "deviations-start-columns": (lambda: _deviations(np.zeros((50, 2))),
                                 "initial_positions shape mismatch"),
    "deviations-start-flat": (lambda: _deviations(np.zeros(50)),
                              "initial_positions shape mismatch"),
    "deviations-start-nested": (lambda: _deviations(np.zeros((50, 1, 1))),
                                "initial_positions shape mismatch"),
    "no-velocities": (lambda: velocity_increment_stats(_recorded()),
                      "without velocity samples"),
    "reference-shape": (lambda: max_deviation_from_deterministic(
        _recorded(), np.zeros((3, 9, 1))), "different shapes"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_stochastic_inputs_are_refused(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError, match=message):
        call()
