"""Statistical comparisons between sampled ensembles and reference densities.

The density check bins walkers into grid cells and measures the total
variation distance to the discrete density.  Any finite number of walkers
has sampling noise, so the verdict compares the observed statistic against
a Monte-Carlo band: the same number of walkers drawn from the reference
itself, repeated, gives the distribution of TV under the null hypothesis.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .grids import ScalarField, density_floor


def _cell_indices(grid, samples: np.ndarray) -> tuple:
    """Nearest-node cell index per axis (periodic wrap, hard-wall clip)."""
    idx = []
    for a in range(grid.dim):
        h = grid.spacing[a]
        first = grid.axis_coords(a)[0]
        n = grid.points[a]
        k = np.rint((samples[:, a] - first) / h).astype(int)
        if grid.periodic[a]:
            k = np.mod(k, n)
        else:
            k = np.clip(k, 0, n - 1)
        idx.append(k)
    return tuple(idx)


def histogram_on_grid(grid, samples: np.ndarray) -> np.ndarray:
    """Counts of samples per grid cell (cells centred on nodes)."""
    if samples.ndim != 2 or samples.shape[1] != grid.dim:
        raise ValueError("samples must have shape (n, dim)")
    idx = _cell_indices(grid, samples)
    flat = np.ravel_multi_index(idx, grid.shape)
    counts = np.bincount(flat, minlength=grid.size)
    return counts.reshape(grid.shape)


def compare_density(samples: np.ndarray, rho: ScalarField,
                    n_calibration: int, seed: int) -> dict:
    """Total-variation comparison of walker positions against a density.

    Returns the observed TV distance, the 95th percentile of the TV under
    resampling from rho itself (the noise band for this walker count), a
    Laplace-smoothed KL divergence over the cells above the density floor
    and a chi-square statistic over the well-populated cells.  `passed`
    means the observed TV sits inside the band; `underpowered` warns when
    the walker count is too small for the number of occupied cells to make
    the band meaningful.
    """
    grid = rho.grid
    p = rho.values.ravel() * grid.cell_volume
    total = p.sum()
    if not np.isclose(total, 1.0, rtol=0, atol=1e-6):
        raise ValueError("reference density is not normalized")
    p = p / total
    m = samples.shape[0]
    counts = histogram_on_grid(grid, samples).ravel()
    freq = counts / m
    tv = 0.5 * float(np.abs(freq - p).sum())

    rng = np.random.default_rng(seed)
    calib = np.empty(n_calibration)
    for i in range(n_calibration):
        c = rng.multinomial(m, p)
        calib[i] = 0.5 * np.abs(c / m - p).sum()
    band = float(np.quantile(calib, 0.95))

    k = p.size
    smoothed = (counts + 0.5) / (m + 0.5 * k)
    support = p > density_floor(p)
    kl = float(np.sum(smoothed[support]
                      * np.log(smoothed[support] / p[support])))

    expected = m * p
    big = expected >= 5.0
    chi2 = float(np.sum((counts[big] - expected[big]) ** 2 / expected[big]))
    dof = int(big.sum()) - 1

    return {
        "tv": tv,
        "tv_band_95": band,
        "kl_smoothed": kl,
        "chi2": chi2,
        "chi2_dof": max(dof, 0),
        "passed": bool(tv <= band),
        "underpowered": bool(m < 5 * np.count_nonzero(counts)),
    }


def fit_power_law(x: np.ndarray, y: np.ndarray) -> dict:
    """Least-squares fit of y = prefactor * x**exponent on log-log axes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two matching points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs positive data")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    resid = ly - fitted
    n = x.size
    if n > 2:
        sxx = float(np.sum((lx - lx.mean()) ** 2))
        stderr = float(np.sqrt(np.sum(resid**2) / (n - 2) / sxx))
    else:
        stderr = 0.0
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return {"exponent": float(slope), "prefactor": float(np.exp(intercept)),
            "stderr": stderr, "r_squared": r2}


def convergence_order(h_values: Sequence[float],
                      errors: Sequence[float]) -> dict:
    """Observed order of accuracy from an error-vs-resolution ladder.

    Gives the global log-log slope, the pairwise orders between successive
    refinements, and flags: `monotone` (errors strictly fall as h falls) and
    `stagnating` (the finest pairwise order collapsed to less than half the
    fitted one, the usual symptom of hitting another error floor).
    """
    h = np.asarray(h_values, dtype=float)
    e = np.asarray(errors, dtype=float)
    if h.size != e.size or h.size < 2:
        raise ValueError("need at least two matching points")
    order = np.argsort(h)[::-1]
    h, e = h[order], e[order]
    if np.any(e <= 0):
        raise ValueError("errors must be positive")
    pairwise = np.log(e[:-1] / e[1:]) / np.log(h[:-1] / h[1:])
    fit = fit_power_law(h, e)
    stagnating = bool(pairwise[-1] < 0.5 * pairwise[0]) if h.size > 2 \
        else False
    return {"order": fit["exponent"], "stderr": fit["stderr"],
            "pairwise_orders": pairwise,
            "monotone": bool(np.all(np.diff(e) < 0)),
            "stagnating": stagnating}
