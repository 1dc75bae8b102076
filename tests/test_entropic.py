from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from edsim.entropic import (
    KERNEL_TRUNCATION_SIGMAS,
    GaussianStep,
    MaxEntProblem,
    _axis_windows,
    bayes_reverse,
    chapman_kolmogorov_step,
    maxent_transition,
    verify_maximizer,
)
from edsim.grids import (
    ConfigGrid,
    ParticleSystem,
    ScalarField,
    VectorField,
    integrate,
    particles_on_line,
    single_particle,
)


def ring(n=256, L=20.0):
    return ConfigGrid((n,), (L,), (True,), origin=(-L / 2,))


def normalized_gaussian(grid, mu=0.0, sigma=1.0):
    x = grid.axis_coords(0)
    raw = np.exp(-0.5 * ((x - mu) / sigma) ** 2)
    return ScalarField(grid, raw / (raw.sum() * grid.cell_volume))


def test_maxent_variance_reference_point():
    # m = hbar = eta = 1, gamma = 3, dt = 0.1  ->  variance = dt**3 = 1e-3
    g = ring(64)
    sys = single_particle(eta=1.0, gamma_exponent=3.0)
    prob = MaxEntProblem(g, sys, 0.1, VectorField(g, np.zeros((1, 64))))
    step = maxent_transition(prob)
    assert step.variances[0] == pytest.approx(1e-3, rel=1e-14)


def test_maxent_mean_shift_minimal_coupling():
    g = ring(64)
    sys = single_particle(mass=2.0, charge=0.5, hbar=0.7, light_speed=2.0,
                          eta=1.0, gamma_exponent=3.0)
    dphi = 1.3
    a_val = 0.8
    dt = 0.05
    prob = MaxEntProblem(g, sys, dt,
                         VectorField(g, np.full((1, 64), dphi)),
                         vector_a=np.full((1, 64), a_val))
    step = maxent_transition(prob)
    beta = sys.beta[0]
    expected = (sys.hbar * dt / 2.0) * (dphi - beta * a_val)
    assert np.allclose(step.mean_shift.values[0], expected, rtol=1e-14)
    # the multiplier alpha = m / (eta dt**gamma) is the reciprocal variance
    assert 1.0 / step.variances[0] == pytest.approx(2.0 / dt**3)


def test_maxent_two_masses_variance_ratio():
    g = ConfigGrid((32, 32), (10.0, 10.0), (True, True))
    sys = particles_on_line((1.0, 4.0), eta=0.5, gamma_exponent=3.0)
    prob = MaxEntProblem(g, sys, 0.1, VectorField(g, np.zeros((2, 32, 32))))
    step = maxent_transition(prob)
    assert step.variances[0] / step.variances[1] == pytest.approx(4.0, rel=1e-12)


def velocity_step(grid, sys, vel, dt):
    """Gaussian step with mean `vel * dt` and the system's step variance."""
    return GaussianStep(grid, VectorField(grid, vel.values * dt),
                        sys.step_variances(dt), dt)


def zero_drift_step(grid, sys, dt):
    vel = VectorField(grid, np.zeros((grid.dim,) + grid.shape))
    return velocity_step(grid, sys, vel, dt)


def test_ck_gaussian_widens_to_analytic_convolution():
    g = ring()
    sys = single_particle(eta=1.0, gamma_exponent=3.0)
    dt = 0.5
    step = zero_drift_step(g, sys, dt)
    rho0 = normalized_gaussian(g, sigma=1.0)
    rho1, report = chapman_kolmogorov_step(rho0, step)
    assert abs(report["mass_drift"]) < 1e-6
    var_expected = 1.0**2 + sys.eta * dt**3
    x = g.axis_coords(0)
    analytic = np.exp(-0.5 * x**2 / var_expected) / np.sqrt(2 * np.pi * var_expected)
    assert np.max(np.abs(rho1.values - analytic)) < 2e-6


def test_ck_mean_matches_drift_exactly():
    g = ring()
    sys = single_particle(eta=1.0, gamma_exponent=3.0)
    dt = 0.4
    shift = 0.37
    vel = VectorField(g, np.full((1,) + g.shape, shift / dt))
    step = velocity_step(g, sys, vel, dt)
    rho0 = normalized_gaussian(g, mu=-1.0, sigma=0.8)
    rho1, _ = chapman_kolmogorov_step(rho0, step)
    x = g.axis_coords(0)
    m0 = np.sum(x * rho0.values) * g.cell_volume
    m1 = np.sum(x * rho1.values) * g.cell_volume
    assert m1 - m0 == pytest.approx(shift, abs=1e-9)


def test_ck_two_steps_compose_to_summed_variance():
    g = ring()
    sys = single_particle(eta=1.0, gamma_exponent=3.0)
    rho0 = normalized_gaussian(g, sigma=1.0)
    s1 = zero_drift_step(g, sys, 0.5)   # variance 0.125
    s2 = zero_drift_step(g, sys, 0.4)   # variance 0.064
    rho_a, _ = chapman_kolmogorov_step(rho0, s1)
    rho_a, _ = chapman_kolmogorov_step(rho_a, s2)
    combined = GaussianStep(g, VectorField(g, np.zeros((1,) + g.shape)),
                            np.array([0.125 + 0.064]), 0.9)
    rho_b, _ = chapman_kolmogorov_step(rho0, combined)
    assert np.max(np.abs(rho_a.values - rho_b.values)) < 1e-8


def test_ck_rejects_unnormalized_input():
    g = ring()
    sys = single_particle()
    step = zero_drift_step(g, sys, 0.5)
    bad = ScalarField(g, normalized_gaussian(g).values * 2.0)
    with pytest.raises(ValueError, match="not normalized"):
        chapman_kolmogorov_step(bad, step)


def test_ck_rejects_kernel_wider_than_grid():
    g = ConfigGrid((64,), (2.0,), (True,))
    sys = single_particle(eta=100.0, gamma_exponent=1.0)
    step = zero_drift_step(g, sys, 1.0)  # sigma = 10, truncation 60 >> 2
    rho = normalized_gaussian(g, sigma=0.3)
    with pytest.raises(ValueError, match="truncation"):
        chapman_kolmogorov_step(rho, step)


def test_bayes_reverse_normalized_everywhere_above_floor():
    g = ring()
    sys = single_particle(eta=1.0, gamma_exponent=3.0)
    dt = 0.5
    vel = VectorField(g, np.full((1,) + g.shape, 0.3))
    step = velocity_step(g, sys, vel, dt)
    rho0 = normalized_gaussian(g, sigma=1.0)
    rho1, _ = chapman_kolmogorov_step(rho0, step)
    floor = 1e-12 * rho1.values.max()
    checked = 0
    for idx in range(0, g.points[0], 17):
        if rho1.values[idx] <= 1e3 * floor:
            continue
        rev = bayes_reverse(step, rho0, rho1, (idx,))
        assert abs(integrate(rev) - 1.0) < 1e-6
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("sigma", [0.5, 1.4])
def test_bayes_reverse_folds_every_periodic_image(sigma):
    # at sigma = 1.4 the window (6 sigma each way) is wider than the ring,
    # so the scatter lands on a node from several offsets of one residue;
    # the reverse must gather all of them to stay normalized
    g = ring(64, L=10.0)
    step = GaussianStep(g, VectorField(g, np.zeros((1,) + g.shape)),
                        np.array([sigma**2]), 0.1)
    lo, hi = _axis_windows(step)[0]
    assert (hi - lo + 1 > g.points[0]) == (sigma > 1.0)
    rho0 = normalized_gaussian(g, sigma=1.0)
    rho1, _ = chapman_kolmogorov_step(rho0, step)
    rev = bayes_reverse(step, rho0, rho1, (32,))
    assert abs(integrate(rev) - 1.0) < 1e-13


def box(n=256, L=20.0):
    return ConfigGrid((n,), (L,), (False,), origin=(-L / 2,))


def test_ck_far_from_hard_walls_loses_only_the_kernel_tail():
    g = box()
    sys = single_particle(eta=1.0, gamma_exponent=3.0)
    vel = VectorField(g, np.full((1,) + g.shape, 0.6))
    step = velocity_step(g, sys, vel, 0.5)
    _, report = chapman_kolmogorov_step(normalized_gaussian(g), step)
    # every node's kernel sums to the same 1 - gap: the walls take nothing
    assert abs(report["mass_drift"] + report["kernel_norm_gap"]) < 1e-14


def test_ck_drops_mass_pushed_past_a_hard_wall():
    g = box()
    sys = single_particle(eta=1.0, gamma_exponent=3.0)
    dt = 0.5
    vel = VectorField(g, np.full((1,) + g.shape, 1.5 / dt))
    step = velocity_step(g, sys, vel, dt)
    rho0 = normalized_gaussian(g, mu=8.5, sigma=0.5)
    rho1, report = chapman_kolmogorov_step(rho0, step)
    # the pushed packet is centred on the wall at x = 10; what lands past
    # the cell of the last node, at 10 - h / 2, is gone
    sd = math.sqrt(0.5**2 + sys.step_variances(dt)[0])
    edge = 10.0 - g.spacing[0] / 2
    lost = 0.5 * math.erfc((edge - 10.0) / (sd * math.sqrt(2)))
    assert report["mass_drift"] == pytest.approx(-lost, abs=2e-3)
    # the reverse step renormalizes at the wall and inside
    for idx in (g.points[0] - 1, int(np.argmax(rho1.values)), 240):
        rev = bayes_reverse(step, rho0, rho1, (idx,))
        assert abs(integrate(rev) - 1.0) < 1e-13


def test_bayes_reverse_rejects_unsupported_target():
    g = ring()
    sys = single_particle(eta=1.0, gamma_exponent=3.0)
    step = zero_drift_step(g, sys, 0.5)
    rho0 = normalized_gaussian(g, sigma=0.5)
    rho1, _ = chapman_kolmogorov_step(rho0, step)
    with pytest.raises(ValueError, match="floor"):
        bayes_reverse(step, rho0, rho1, (0,))  # far tail of the ring


def test_verify_maximizer_gaussian_wins():
    g = ring(64)
    sys = single_particle(eta=1.0, gamma_exponent=3.0)
    vel = VectorField(g, np.full((1,) + g.shape, 2.0))
    step = velocity_step(g, sys, vel, 0.1)
    report = verify_maximizer(step, perturbations=60, seed=42)
    # identity perturbation: zero margin within quadrature tolerance
    assert abs(report["self_margin"]) < 1e-10
    assert report["all_nonnegative"]
    # real perturbations lose strictly
    assert np.sort(report["margins"])[1] > 1e-6
    assert report["constraint_residual"] < 1e-10
    # candidate entropy against the drift-free prior: -mu^2 / (2 sigma^2)
    mu, var = 0.2, 1e-3
    assert report["candidate_entropy"] == pytest.approx(-mu**2 / (2 * var), rel=1e-6)


def ck_scatter_reference(rho, step):
    """The Chapman-Kolmogorov scatter with an `ok` flag and per-axis slice
    lists: np.roll across a seam, sliced between walls, and an offset
    combination skipped whole once it lands past a wall."""
    grid = rho.grid
    windows = _axis_windows(step)
    weights = []
    for a in range(grid.dim):
        h = grid.spacing[a]
        sig = step.sigmas[a]
        mshift = step.mean_shift.values[a]
        lo, hi = windows[a]
        offs = np.arange(lo, hi + 1)
        u = offs.reshape((-1,) + (1,) * grid.dim) * h - mshift[None]
        w = (h / (np.sqrt(2 * np.pi) * sig)) * np.exp(-0.5 * (u / sig) ** 2)
        weights.append((offs, w))

    out = np.zeros(grid.shape)
    src = rho.values
    offsets_per_axis = [list(range(lo, hi + 1)) for lo, hi in windows]
    for combo in itertools.product(*[range(len(o)) for o in offsets_per_axis]):
        contrib = src.copy()
        for a, j in enumerate(combo):
            contrib = contrib * weights[a][1][j]
        shift = tuple(offsets_per_axis[a][j] for a, j in enumerate(combo))
        dst = [slice(None)] * grid.dim
        srcsl = [slice(None)] * grid.dim
        ok = True
        for a, off in enumerate(shift):
            if grid.periodic[a]:
                contrib = np.roll(contrib, off, axis=a)
                continue
            n = grid.points[a]
            if off >= n or off <= -n:
                ok = False
                break
            if off >= 0:
                dst[a] = slice(off, None)
                srcsl[a] = slice(None, n - off)
            else:
                dst[a] = slice(None, off)
                srcsl[a] = slice(-off, None)
        if ok:
            out[tuple(dst)] += contrib[tuple(srcsl)]
    return out


def test_ck_is_bit_identical_to_sliced_scatter_reference(boundary_grid):
    grid = boundary_grid
    rng = np.random.default_rng(grid.size)
    h = np.array(grid.spacing)
    # kernels a quarter cell wide and drifts up to 95% of what the
    # truncation window allows, both ways: offsets land past every wall
    sig = 0.25 * h
    room = np.array(grid.extents) - KERNEL_TRUNCATION_SIGMAS * sig
    frac = rng.uniform(-0.95, 0.95, (grid.dim, grid.size))
    frac[:, 0], frac[:, -1] = 0.95, -0.95
    drift = room[:, None] * frac
    step = GaussianStep(grid, VectorField(grid, drift.reshape(
        (grid.dim,) + grid.shape)), sig**2, 0.1)
    raw = rng.random(grid.shape)
    rho = ScalarField(grid, raw / (raw.sum() * grid.cell_volume))
    for (lo, hi), n, per in zip(_axis_windows(step), grid.points,
                                grid.periodic):
        assert per or hi >= n and lo <= -n
    got, _ = chapman_kolmogorov_step(rho, step)
    assert got.values.tobytes() == ck_scatter_reference(rho, step).tobytes()


def _problem(**changes):
    """A MaxEntProblem on a 32-node ring with `changes` to its fields."""
    grid = ring(32)
    fields = {"grid": grid, "system": single_particle(), "dt": 0.01,
              "drift_grad": VectorField(grid, np.zeros((1, 32)))}
    return MaxEntProblem(**{**fields, **changes})


def _step(grid, variances):
    return GaussianStep(grid, VectorField(grid, np.zeros((1,) + grid.shape)),
                        np.asarray(variances, dtype=float), 0.01)


REFUSALS = {
    "problem-dt": (lambda: _problem(dt=0.0), "dt must be positive"),
    "problem-grid": (lambda: _problem(
        drift_grad=VectorField(ring(64), np.zeros((1, 64)))),
        "different grid"),
    "problem-axis-map": (lambda: _problem(system=single_particle(dim=2)),
                         "axis_map does not match"),
    "problem-vector-a": (lambda: _problem(vector_a=np.zeros((2, 32))),
                         "one component per grid axis"),
    "step-variance-shape": (lambda: _step(ring(32), [0.1, 0.1]),
                            "variances must be per-axis"),
    "step-variance-zero": (lambda: _step(ring(32), [0.0]),
                           "variances must be positive"),
    "ck-grid": (lambda: chapman_kolmogorov_step(
        normalized_gaussian(ring(64)), _step(ring(32), [0.1])),
        "different grids"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_entropic_inputs_are_refused(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError, match=message):
        call()
