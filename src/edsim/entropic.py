"""Maximum-entropy transition law and entropic time composition.

A short step is inferred, not postulated: maximizing the relative entropy of
the transition density against a uniform-drift prior, subject to a drift
constraint (gradient of a potential) and a gauge constraint (one per charged
particle), gives a Gaussian step

    mean drift per axis  = (hbar * dt / m) * (dphi - beta * A)
    variance per axis    = eta dt^gamma / m  (ParticleSystem.step_variances)

Time enters by iteration: the density of the next instant is the current one
pushed through the kernel (Chapman-Kolmogorov), and the reverse-step density
follows from Bayes' theorem.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grids import (ConfigGrid, ParticleSystem, ScalarField, VectorField,
                    _shift, density_floor, integrate)

KERNEL_TRUNCATION_SIGMAS = 6.0
# lattice points per axis of the quadrature in `verify_maximizer`
QUAD_POINTS = 64


@dataclass(frozen=True)
class MaxEntProblem:
    """Inputs of one short-step inference.

    `drift_grad` holds the gradient of the drift potential (phase units of
    the dimensionless potential, so `hbar * drift_grad` has momentum units);
    `vector_a` holds the physical vector potential sampled at the nodes, one
    component per grid axis; it is zero when not given (no gauge field).
    """

    grid: ConfigGrid
    system: ParticleSystem
    dt: float
    drift_grad: VectorField
    vector_a: np.ndarray | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.drift_grad.grid != self.grid:
            raise ValueError("drift_grad lives on a different grid")
        if len(self.system.axis_map) != self.grid.dim:
            raise ValueError("system axis_map does not match grid dimension")
        shape = (self.grid.dim,) + self.grid.shape
        a = np.asarray(np.zeros(shape) if self.vector_a is None
                       else self.vector_a, dtype=float)
        if a.shape != shape:
            raise ValueError("vector_a must have one component per grid axis")
        object.__setattr__(self, "vector_a", a)


@dataclass(frozen=True)
class GaussianStep:
    """Gaussian transition kernel of one entropic step.

    `mean_shift` is the drift displacement per axis at every node;
    `variances` is the per-axis fluctuation variance (node-independent).
    """

    grid: ConfigGrid
    mean_shift: VectorField
    variances: np.ndarray
    dt: float

    def __post_init__(self):
        v = np.asarray(self.variances, dtype=float)
        if v.shape != (self.grid.dim,):
            raise ValueError("variances must be per-axis")
        if np.any(v <= 0):
            raise ValueError("variances must be positive")
        v.setflags(write=False)
        object.__setattr__(self, "variances", v)

    @property
    def sigmas(self) -> np.ndarray:
        return np.sqrt(self.variances)


def maxent_transition(problem: MaxEntProblem) -> GaussianStep:
    """Solve the constrained entropy maximization for one short step."""
    s = problem.system
    dt = problem.dt
    m = s.mass_per_axis
    beta = s.beta_per_axis
    per_axis = (-1,) + (1,) * problem.grid.dim
    coupling = problem.drift_grad.values - beta.reshape(per_axis) * problem.vector_a
    mean = (s.hbar * dt / m).reshape(per_axis) * coupling
    mean_field = VectorField(problem.grid, mean)
    return GaussianStep(problem.grid, mean_field, s.step_variances(dt), dt)


def _axis_windows(step: GaussianStep) -> list[tuple[int, int]]:
    """Per-axis integer offset ranges covering drift + truncated kernel."""
    grid = step.grid
    out = []
    for a in range(grid.dim):
        h = grid.spacing[a]
        sig = step.sigmas[a]
        m = step.mean_shift.values[a]
        reach = KERNEL_TRUNCATION_SIGMAS * sig
        if reach + float(np.max(np.abs(m))) >= grid.extents[a]:
            raise ValueError(
                f"kernel truncation radius exceeds the grid extent on axis {a}")
        lo = int(np.floor((float(np.min(m)) - reach) / h))
        hi = int(np.ceil((float(np.max(m)) + reach) / h))
        out.append((lo, hi))
    return out


def _axis_weights(step: GaussianStep) -> list[tuple[np.ndarray, np.ndarray]]:
    """The truncated Gaussian kernel, per axis: the offsets j of the axis'
    window and w[j], the weight of P(x + j h | x) dV along the axis,
    evaluated at every node x (the drift field makes it node-dependent)."""
    grid = step.grid
    weights = []
    for a, (lo, hi) in enumerate(_axis_windows(step)):
        h = grid.spacing[a]
        sig = step.sigmas[a]
        mshift = step.mean_shift.values[a]
        offs = np.arange(lo, hi + 1)
        u = offs.reshape((-1,) + (1,) * grid.dim) * h - mshift[None]
        w = (h / (np.sqrt(2 * np.pi) * sig)) * np.exp(-0.5 * (u / sig) ** 2)
        weights.append((offs, w))
    return weights


def chapman_kolmogorov_step(rho: ScalarField, step: GaussianStep) -> tuple[ScalarField, dict]:
    """Push a density through the transition kernel: rho'(x') = sum_x P(x'|x) rho(x) dV.

    The kernel is truncated at 6 sigma per axis and normalized analytically;
    the report carries the resulting mass drift instead of silently rescaling.
    Mass scattered past a hard wall is dropped (and shows up in the drift).
    """
    grid = rho.grid
    if grid != step.grid:
        raise ValueError("density and step live on different grids")
    mass_in = integrate(rho)
    if abs(mass_in - 1.0) > 1e-6:
        raise ValueError(f"input density is not normalized: integral = {mass_in}")

    weights = _axis_weights(step)

    # each offset combination scatters rho times its weights; what lands
    # past a hard wall is zero, and adding a zero changes no bit of `out`
    # (it starts at +0.0, so no sum in it is -0.0)
    out = np.zeros(grid.shape)
    for combo in itertools.product(*(zip(offs, w) for offs, w in weights)):
        contrib = rho.values
        for _, w in combo:
            contrib = contrib * w
        for a, (off, _) in enumerate(combo):
            contrib = _shift(contrib, a, -off, grid.periodic[a])
        out += contrib

    result = ScalarField(grid, out)
    kernel_norm_gap = max(
        float(np.max(np.abs(w.sum(axis=0) - 1.0))) for _, w in weights)
    report = {
        "mass_drift": integrate(result) - mass_in,
        "kernel_norm_gap": kernel_norm_gap,
    }
    return result, report


def bayes_reverse(step: GaussianStep, rho_t: ScalarField, rho_next: ScalarField,
                  x_next_index: tuple) -> ScalarField:
    """Reverse-step density P(x|x') = rho_t(x) P(x'|x) / rho_next(x')."""
    grid = step.grid
    marginal = float(rho_next.values[tuple(x_next_index)])
    floor = density_floor(rho_next.values)
    if marginal <= floor:
        raise ValueError(
            f"rho_next at {tuple(x_next_index)} is below the support floor")
    # P(x'|x) dV at every source node x, from the weights of the forward
    # scatter: per axis the sum of the weights of every window offset j
    # that lands on x' from x, j = x' - x or, on a periodic axis, any j of
    # that residue (a window wider than the ring wraps onto x' more than
    # once); zero when none does
    kern = np.ones(grid.shape)
    for a, (offs, w) in enumerate(_axis_weights(step)):
        n = grid.points[a]
        target = np.add.outer(offs, np.arange(n))
        if grid.periodic[a]:
            target = np.mod(target, n)
        shape = [len(offs)] + [1] * grid.dim
        shape[1 + a] = n
        lands = (target == x_next_index[a]).reshape(shape)
        kern = kern * np.sum(w * lands, axis=0)
    return ScalarField(grid, rho_t.values * kern
                       / (marginal * grid.cell_volume))


# ---------------------------------------------------------------------------
# maximizer verification on a dedicated quadrature lattice
# ---------------------------------------------------------------------------

def _quad_lattice(mean: np.ndarray, sigma: np.ndarray, points: int) -> list[np.ndarray]:
    axes = []
    for mu, sig in zip(mean, sigma):
        lo = min(0.0, mu) - 8.0 * sig
        hi = max(0.0, mu) + 8.0 * sig
        axes.append(np.linspace(lo, hi, points))
    return axes


def verify_maximizer(step: GaussianStep, perturbations: int,
                     seed: int) -> dict:
    """Check the Gaussian kernel against tilted competitors, at the centre
    node of the grid.

    Competitors are built as P0 * exp(g + c.u): `g` is a random smooth bump
    (polynomial in standardized displacement), and the linear coefficients
    `c` are solved by Newton iteration so the competitor has exactly the same
    first moments (hence satisfies the same drift and gauge constraints).
    The candidate must have strictly larger entropy relative to the
    drift-free prior; the first competitor is the candidate itself, whose
    margin should vanish within quadrature tolerance.
    """
    grid = step.grid
    at_index = tuple(n // 2 for n in grid.shape)
    mean = np.array([step.mean_shift.values[a][at_index]
                     for a in range(grid.dim)])
    sigma = step.sigmas
    axes = _quad_lattice(mean, sigma, QUAD_POINTS)
    du = float(np.prod([ax[1] - ax[0] for ax in axes]))
    mesh = np.meshgrid(*axes, indexing="ij")

    def gauss(center):
        logp = np.zeros(mesh[0].shape)
        for u, mu, sig in zip(mesh, center, sigma):
            logp = logp - 0.5 * ((u - mu) / sig) ** 2 - 0.5 * np.log(2 * np.pi * sig**2)
        return np.exp(logp)

    prior = gauss(np.zeros_like(mean))
    candidate = gauss(mean)
    candidate = candidate / (candidate.sum() * du)

    def entropy(p):
        mask = p > 0
        return -np.sum(p[mask] * np.log(p[mask] / prior[mask])) * du

    def moments(p):
        return np.array([np.sum(p * u) * du for u in mesh])

    s_candidate = entropy(candidate)
    rng = np.random.default_rng(seed)
    margins = np.empty(perturbations)
    worst_residual = 0.0
    for k in range(perturbations):
        g = np.zeros(mesh[0].shape)
        if k > 0:
            for u, mu, sig in zip(mesh, mean, sigma):
                z = (u - mu) / sig
                coef = 0.25 * rng.standard_normal(3)
                g = g + coef[0] * (z**2 - 1) + coef[1] * z**3 + coef[2] * np.cos(2.0 * z)
            g = np.clip(g, -3.0, 3.0)
        # Newton on the linear tilt so first moments match the candidate's
        c = np.zeros(grid.dim)
        for _ in range(60):
            logw = g.copy()
            for u, ci in zip(mesh, c):
                logw = logw + ci * u
            logw -= logw.max()
            p = candidate * np.exp(logw)
            p = p / (p.sum() * du)
            mom = moments(p)
            resid = mom - mean
            if np.max(np.abs(resid)) < 1e-12 * max(1.0, float(np.max(np.abs(mean))) + sigma.max()):
                break
            cov = np.empty((grid.dim, grid.dim))
            for i, ui in enumerate(mesh):
                for j, uj in enumerate(mesh):
                    cov[i, j] = np.sum(p * (ui - mom[i]) * (uj - mom[j])) * du
            c = c - np.linalg.solve(cov, resid)
        worst_residual = max(worst_residual, float(np.max(np.abs(resid))))
        margins[k] = s_candidate - entropy(p)

    return {
        "candidate_entropy": float(s_candidate),
        "margins": margins,
        "min_margin": float(margins.min()),
        "self_margin": float(margins[0]),
        "constraint_residual": worst_residual,
        "all_nonnegative": bool(np.all(margins >= -1e-9)),
    }
