import numpy as np
import pytest

from edsim.grids import ConfigGrid, ScalarField
from edsim.stats import (compare_density, convergence_order, fit_power_law,
                         histogram_on_grid)


def _normalized_gaussian(grid, center, sigma):
    x = grid.axis_coords(0)
    L = grid.extents[0]
    dev = (x - center + L / 2) % L - L / 2
    rho = np.exp(-0.5 * (dev / sigma) ** 2)
    rho /= rho.sum() * grid.cell_volume
    return ScalarField(grid, rho)


def test_power_law_fit_exact():
    x = np.array([0.5, 1.0, 2.0, 4.0])
    y = 2.5 * x**1.7
    fit = fit_power_law(x, y)
    assert abs(fit["exponent"] - 1.7) < 1e-12
    assert abs(fit["prefactor"] - 2.5) < 1e-12
    assert fit["r_squared"] > 1 - 1e-12


def test_power_law_fit_noisy_stderr():
    rng = np.random.default_rng(0)
    x = np.logspace(-2, 0, 12)
    y = 3.0 * x**2.0 * np.exp(rng.normal(0, 0.05, x.size))
    fit = fit_power_law(x, y)
    assert abs(fit["exponent"] - 2.0) < 3 * fit["stderr"] + 0.05
    with pytest.raises(ValueError):
        fit_power_law(x, -y)


def test_convergence_order_clean_second_order():
    h = np.array([0.4, 0.2, 0.1, 0.05])
    rep = convergence_order(h, 3.0 * h**2)
    assert abs(rep["order"] - 2.0) < 1e-12
    assert np.allclose(rep["pairwise_orders"], 2.0)
    assert rep["monotone"] and not rep["stagnating"]


def test_convergence_order_detects_floor():
    h = np.array([0.4, 0.2, 0.1, 0.05])
    rep = convergence_order(h, 3.0 * h**2 + 3e-2)
    assert rep["stagnating"]


def test_histogram_periodic_binning():
    grid = ConfigGrid((8,), (8.0,), (True,), origin=(0.0,))
    h = grid.spacing[0]
    samples = np.array([[0.0], [0.0 - h / 3], [0.0 - 2 * h / 3], [7.0]])
    counts = histogram_on_grid(grid, samples)
    assert counts[0] == 2
    assert counts[7] == 2


def test_density_comparison_accepts_true_samples():
    grid = ConfigGrid((64,), (16.0,), (True,), origin=(-8.0,))
    rho = _normalized_gaussian(grid, 0.0, 1.5)
    p = rho.values * grid.cell_volume
    rng = np.random.default_rng(1)
    m = 50_000
    counts = rng.multinomial(m, p / p.sum())
    x = grid.axis_coords(0)
    samples = np.repeat(x, counts)[:, None]
    rep = compare_density(samples, rho, n_calibration=300, seed=1)
    assert rep["passed"]
    assert not rep["underpowered"]
    assert 0.5 < rep["chi2"] / rep["chi2_dof"] < 1.6


def test_density_comparison_rejects_shifted_samples():
    grid = ConfigGrid((64,), (16.0,), (True,), origin=(-8.0,))
    rho = _normalized_gaussian(grid, 0.0, 1.5)
    rng = np.random.default_rng(4)
    samples = rng.normal(0.8, 1.5, size=(50_000, 1))
    rep = compare_density(samples, rho, n_calibration=200, seed=2)
    assert not rep["passed"]
    assert rep["kl_smoothed"] > 0.01


def test_density_comparison_flags_underpowered_runs():
    grid = ConfigGrid((64,), (16.0,), (True,), origin=(-8.0,))
    rho = _normalized_gaussian(grid, 0.0, 1.5)
    rng = np.random.default_rng(4)
    samples = rng.normal(0.0, 1.5, size=(60, 1))
    rep = compare_density(samples, rho, n_calibration=100, seed=3)
    assert rep["underpowered"]


def test_kl_ignores_cells_below_the_density_floor():
    """Cells at 1e-30 or 1e-20 of the peak density are roundoff, not
    support: moving them leaves the KL divergence unchanged."""
    grid = ConfigGrid((64,), (16.0,), (True,), origin=(-8.0,))
    x = grid.axis_coords(0)
    rng = np.random.default_rng(5)
    samples = rng.uniform(-2.0, 2.0, size=(2_000, 1))
    kl = []
    for tail in (1e-30, 1e-20):
        rho = np.where(np.abs(x) < 2.0, 1.0, tail)
        rho /= rho.sum() * grid.cell_volume
        rep = compare_density(samples, ScalarField(grid, rho),
                              n_calibration=10, seed=0)
        kl.append(rep["kl_smoothed"])
    assert kl[0] == kl[1]


def test_density_comparison_requires_normalization():
    grid = ConfigGrid((64,), (16.0,), (True,), origin=(-8.0,))
    bad = ScalarField(grid, np.full(64, 2.0))
    with pytest.raises(ValueError):
        compare_density(np.zeros((10, 1)), bad, n_calibration=200, seed=0)


_LINE = ConfigGrid((16,), (8.0,), (True,))

REFUSALS = {
    "histogram-shape": (lambda: histogram_on_grid(_LINE, np.zeros(5)),
                        r"shape \(n, dim\)"),
    "fit-one-point": (lambda: fit_power_law([1.0], [1.0]),
                      "at least two matching points"),
    "fit-unmatched": (lambda: fit_power_law([1.0, 2.0], [1.0, 2.0, 3.0]),
                      "at least two matching points"),
    "fit-zero": (lambda: fit_power_law([1.0, 2.0], [1.0, 0.0]),
                 "needs positive data"),
    "order-one-point": (lambda: convergence_order([0.1], [1e-2]),
                        "at least two matching points"),
    "order-zero-error": (lambda: convergence_order([0.1, 0.05], [1e-2, 0.0]),
                         "errors must be positive"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_stats_inputs_are_refused(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError, match=message):
        call()


def test_two_points_fit_exactly():
    """Two points leave no residual: the fit's stderr is 0, and the
    convergence ladder has one pairwise order and never stagnates."""
    fit = fit_power_law([1.0, 2.0], [3.0, 12.0])
    assert fit["stderr"] == 0.0
    assert fit["exponent"] == pytest.approx(2.0, rel=1e-12)
    rep = convergence_order([0.1, 0.05], [4e-2, 1e-2])
    assert rep["order"] == pytest.approx(2.0, rel=1e-12)
    assert rep["pairwise_orders"] == pytest.approx([2.0], rel=1e-12)
    assert rep["monotone"] and not rep["stagnating"]
