"""Trajectory sampling for the sub-quantum processes.

One step moves a walker by the midpoint drift between adjacent wave states
plus a Gaussian fluctuation with per-axis variance ``eta * dt**gamma / m``:

* gamma = 3 ("OU"): differentiable velocities, fluctuations vanish fast, the
  drift is the current velocity (grad Phi - A) / m;
* gamma = 1 ("ES"): Brownian-like paths; the sampler drift gets an osmotic
  correction ``+ (eta / 2 m) grad log rho`` so the Fokker-Planck current
  equals the quantum current and the ensemble keeps tracking rho;
* other gamma ("fractional"): sampled like OU, with no density-tracking
  guarantee outside gamma in {1, 3}.

Drift values come from current-ratio interpolation: the smooth pair
(rho * v, rho) is interpolated and divided at the walker position, which
behaves near density nodes where v itself spikes; see the flow-table block
below.  Randomness: a master seed feeds a SeedSequence; independent children
drive the initial draw and the per-step noise (counter-based Philox
streams), so a run is bit-reproducible for fixed (seed, walkers, timeline).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .grids import (RHO_FLOOR_REL, ConfigGrid, ParticleSystem, ScalarField,
                    VectorField, gradient, process_label)
from .quantum import MadelungPair, Potentials, WaveState, madelung, phase_gradient

# resampling factor of the spectral flow tables of 1-D rings
REFINE = 4


@dataclass(frozen=True)
class TransitionParams:
    """Step size and fluctuation constants of the sampled process."""

    dt: float
    eta: float
    gamma_exponent: float

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.eta < 0:
            raise ValueError("eta must be non-negative")
        if self.gamma_exponent <= 0:
            raise ValueError("gamma_exponent must be positive")

    @property
    def process_label(self) -> str:
        return process_label(self.gamma_exponent)

    @classmethod
    def from_system(cls, system: ParticleSystem, dt: float) -> "TransitionParams":
        return cls(dt, system.eta, system.gamma_exponent)


def with_eta(system: ParticleSystem, eta: float,
             gamma_exponent: float | None = None) -> ParticleSystem:
    kw = {"eta": eta}
    if gamma_exponent is not None:
        kw["gamma_exponent"] = gamma_exponent
    return replace(system, **kw)


def noise_sigmas(system: ParticleSystem, params: TransitionParams) -> np.ndarray:
    """Per-axis fluctuation standard deviations for one step."""
    return np.sqrt(params.eta * params.dt**params.gamma_exponent
                   / system.mass_per_axis)


# ---------------------------------------------------------------------------
# drift fields
# ---------------------------------------------------------------------------

def drift_velocity_field(pair: MadelungPair, pot: Potentials | None,
                         system: ParticleSystem, mode: str = "current",
                         eta: float | None = None) -> VectorField:
    """Velocity field steering the walkers.

    mode "current": v_A = (grad_A Phi - hbar beta_A A_A) / m_A.
    mode "ES": adds the osmotic term (eta / 2 m_A) grad_A log rho, which
    cancels the diffusive flux of the gamma = 1 process.
    """
    grid = pair.grid
    masses = system.mass_per_axis
    beta = system.beta_per_axis
    comps = []
    for a in range(grid.dim):
        mom = phase_gradient(pair, a)
        if pot is not None and pot.vector_a_nodes is not None:
            mom = mom - system.hbar * beta[a] * pot.vector_a_nodes[a]
        comps.append(mom / masses[a])
    if mode == "ES":
        if eta is None:
            eta = system.eta
        rho = pair.rho.values
        floored = np.maximum(rho, RHO_FLOOR_REL * rho.max())
        log_rho = ScalarField(grid, np.log(floored))
        for a in range(grid.dim):
            comps[a] = comps[a] + (eta / (2 * masses[a])) * gradient(log_rho, a).values
    elif mode != "current":
        raise ValueError(f"unknown drift mode {mode!r}")
    return VectorField(grid, np.stack(comps))


def _cell(grid: ConfigGrid, axis: int, n: int,
          x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower and upper node indices of the cell holding each coordinate on an
    n-node lattice along `axis`, and the weight of the upper node."""
    if grid.periodic[axis]:
        h = grid.extents[axis] / n
        t = np.mod((x - grid.origin[axis]) / h, n)
        f = np.floor(t)
        i0 = f.astype(int)
        # the float mod can round up to n itself, so the indices wrap too
        return np.mod(i0, n), np.mod(i0 + 1, n), t - f
    h = grid.extents[axis] / (n + 1)
    t = np.clip((x - (grid.origin[axis] + h)) / h, 0.0, n - 1.0)
    f = np.minimum(np.floor(t), n - 2.0)
    i0 = f.astype(int)
    return i0, i0 + 1, t - f


def interpolate_vector(grid: ConfigGrid, values: np.ndarray,
                       positions: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of stacked node tables at walker positions.

    `values` has shape (k, n_0, ..., n_{dim-1}): k component tables on a
    lattice over the grid's box, laid out by the grid's conventions with
    n_a nodes per axis (n_a may differ from grid.points, e.g. for a refined
    table).  Returns shape (m, k).  Periodic axes wrap; non-periodic axes
    clamp to the node range (constant extrapolation past the outermost
    nodes).
    """
    shape = values.shape[1:]
    ends = []  # per axis: (flat offset, weight) of the lower and upper node
    for a, n in enumerate(shape):
        lo, hi, w = _cell(grid, a, n, positions[:, a])
        stride = math.prod(shape[a + 1:])
        if stride > 1:
            lo, hi = lo * stride, hi * stride
        ends.append(((lo, 1.0 - w), (hi, w)))
    corners = []
    for corner in itertools.product(*ends):
        nodes, weights = zip(*corner)
        corners.append((functools.reduce(operator.add, nodes),
                        functools.reduce(operator.mul, weights)))
    # sum the corners row by row into the output: (k, m) temporaries made
    # every lookup extend the heap afresh, and the page faults cost time
    flat = values.reshape(values.shape[0], -1)
    out = np.empty((flat.shape[0], positions.shape[0]))
    (node0, weight0), *rest = corners
    for row, acc in zip(flat, out):
        np.multiply(np.take(row, node0), weight0, out=acc)
        for node, weight in rest:
            acc += np.take(row, node) * weight
    return out.T


# ---------------------------------------------------------------------------
# flow tables: current-ratio drift evaluation
# ---------------------------------------------------------------------------
#
# Interpolating the velocity directly misbehaves near density nodes, where v
# spikes on a sub-cell scale.  Both the ensemble sampler and the
# deterministic integrator therefore interpolate the smooth pair
# (rho * v, rho) and divide at the sample point.  A flow table stacks it as
# one array [rho v_0, ..., rho v_{dim-1}, rho] of shape (dim + 1, *nodes).
# On 1-D fully periodic grids the pair is first resampled onto a REFINE-times
# finer zero-padded Fourier lattice, which is exact for the band-limited
# solver output.

def _zero_pad_spectrum(spec: np.ndarray) -> np.ndarray:
    n = spec.size
    kpos = (n + 1) // 2
    pad = np.zeros(n * REFINE, dtype=complex)
    pad[:kpos] = spec[:kpos]
    pad[-(n - kpos):] = spec[kpos:]
    return np.fft.ifft(pad) * REFINE


def _spectral_flow_1d(state: WaveState, pot: Potentials | None,
                      system: ParticleSystem, mode: str,
                      eta: float) -> np.ndarray:
    grid = state.grid
    n = grid.points[0]
    m = system.mass_per_axis[0]
    hbar = system.hbar
    spec = np.fft.fft(state.psi)
    ik = 2j * np.pi * np.fft.fftfreq(n, d=grid.spacing[0])
    psi_f = _zero_pad_spectrum(spec)
    dpsi_f = _zero_pad_spectrum(spec * ik)
    cross = np.conj(psi_f) * dpsi_f
    rho_f = np.abs(psi_f) ** 2
    num = (hbar / m) * cross.imag
    if pot is not None and pot.vector_a_nodes is not None:
        a_f = _zero_pad_spectrum(np.fft.fft(pot.vector_a_nodes[0])).real
        num = num - (hbar * system.beta_per_axis[0] / m) * a_f * rho_f
    if mode == "ES":
        # rho * (eta / 2 m) grad log rho = (eta / 2 m) grad rho, and
        # grad rho = 2 Re(psi* psi') needs no extra transform
        num = num + (eta / m) * cross.real
    return np.stack([num, rho_f])


def _flow_tables(timeline: Sequence[WaveState], pot: Potentials | None,
                 system: ParticleSystem, mode: str,
                 eta: float) -> list[np.ndarray]:
    grid = timeline[0].grid
    if grid.dim == 1 and grid.periodic[0]:
        return [_spectral_flow_1d(state, pot, system, mode, eta)
                for state in timeline]
    tables = []
    for state in timeline:
        pair = madelung(state, hbar=system.hbar)
        v = drift_velocity_field(pair, pot, system, mode=mode, eta=eta)
        tables.append(np.concatenate([state.rho[None] * v.values,
                                      state.rho[None]]))
    return tables


def _ratio_drift(grid: ConfigGrid, table: np.ndarray,
                 positions: np.ndarray) -> np.ndarray:
    at = interpolate_vector(grid, table, positions)
    floor = RHO_FLOOR_REL * table[-1].max()
    return at[:, :-1] / np.maximum(at[:, -1], floor)[:, None]


def _blend(t0: np.ndarray, t1: np.ndarray, lam: float) -> np.ndarray:
    return (1 - lam) * t0 + lam * t1


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _advance(grid: ConfigGrid, positions: np.ndarray, v: np.ndarray,
             params: TransitionParams, system: ParticleSystem,
             rng: np.random.Generator | None,
             noise: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    if noise is None:
        noise = rng.standard_normal(positions.shape)
    sig = noise_sigmas(system, params)
    new = positions + v * params.dt + noise * sig
    escaped = np.zeros(positions.shape[0], dtype=bool)
    for a in range(grid.dim):
        if grid.periodic[a]:
            lo = grid.origin[a]
            new[:, a] = lo + np.mod(new[:, a] - lo, grid.extents[a])
        else:
            lo = grid.origin[a]
            hi = grid.origin[a] + grid.extents[a]
            escaped |= (new[:, a] <= lo) | (new[:, a] >= hi)
    return new, escaped


@dataclass(frozen=True)
class Ensemble:
    """Recorded walker history.

    positions has shape (n_records, walkers, dim) at times `times`;
    velocities/drifts (present when velocity recording is on) hold the
    per-step displacement velocity and the frozen drift at the departure
    point, shape (steps, walkers, dim).
    """

    grid: ConfigGrid
    system: ParticleSystem
    params: TransitionParams
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray | None
    drifts: np.ndarray | None
    seed: int
    meta: dict = field(default_factory=dict, compare=False)


def draw_initial_positions(state: WaveState, n_walkers: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draw over the discrete density, uniform jitter in-cell."""
    grid = state.grid
    rho = state.rho
    p = (rho / rho.sum()).ravel()
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    u = rng.random(n_walkers)
    flat_idx = np.searchsorted(cdf, u, side="left")
    multi = np.unravel_index(flat_idx, grid.shape)
    pos = np.empty((n_walkers, grid.dim))
    jitter = rng.random((n_walkers, grid.dim)) - 0.5
    for a in range(grid.dim):
        coords = grid.axis_coords(a)
        pos[:, a] = coords[multi[a]] + jitter[:, a] * grid.spacing[a]
    return grid.wrap(pos)


def simulate_ensemble(timeline: Sequence[WaveState], pot: Potentials | None,
                      system: ParticleSystem, params: TransitionParams,
                      n_walkers: int, seed: int,
                      mode: str | None = None,
                      record_stride: int = 1,
                      record_velocities: bool = False,
                      initial_positions: np.ndarray | None = None,
                      max_escape_fraction: float = 0.01) -> Ensemble:
    """March an ensemble along a timeline of wave states.

    The state spacing must equal params.dt.  The mean shift of a step uses
    the midpoint drift (predictor half-step on the departure field, corrector
    on the average of the adjacent fields), evaluated by current-ratio
    interpolation.  Escaped walkers (hard walls only) are frozen in place
    and counted; more than `max_escape_fraction` of them aborts.
    """
    if len(timeline) < 2:
        raise ValueError("timeline needs at least two states")
    dts = np.diff([s.time for s in timeline])
    if not np.allclose(dts, params.dt, rtol=1e-9, atol=1e-12):
        raise ValueError("timeline spacing does not match params.dt")
    grid = timeline[0].grid
    if mode is None:
        mode = "ES" if params.process_label == "ES" else "current"
    tables = _flow_tables(timeline, pot, system, mode, params.eta)

    root = np.random.SeedSequence(seed)
    init_seq, noise_seq = root.spawn(2)
    steps = len(timeline) - 1
    if initial_positions is None:
        init_rng = np.random.Generator(np.random.Philox(init_seq))
        pos = draw_initial_positions(timeline[0], n_walkers, init_rng)
    else:
        pos = np.array(initial_positions, dtype=float)
        if pos.shape != (n_walkers, grid.dim):
            raise ValueError("initial_positions shape mismatch")
    noise_rng = np.random.Generator(np.random.Philox(noise_seq))

    rec_times = [timeline[0].time]
    rec_positions = [pos.copy()]
    velocities = [] if record_velocities else None
    drifts = [] if record_velocities else None
    alive = np.ones(n_walkers, dtype=bool)
    escaped_total = 0

    for k in range(steps):
        v0 = _ratio_drift(grid, tables[k], pos)
        half = grid.wrap(pos + 0.5 * params.dt * v0)
        v_mid = _ratio_drift(grid, _blend(tables[k], tables[k + 1], 0.5),
                             half)
        new, escaped = _advance(grid, pos, v_mid, params, system, noise_rng)
        newly = escaped & alive
        if np.any(newly):
            alive &= ~newly
            escaped_total += int(newly.sum())
            if escaped_total > max_escape_fraction * n_walkers:
                raise RuntimeError(
                    f"{escaped_total} walkers escaped the domain "
                    f"(> {max_escape_fraction:.1%} of {n_walkers})")
        if escaped_total:
            new[~alive] = pos[~alive]
        if record_velocities:
            velocities.append((new - pos) / params.dt)
            drifts.append(v_mid)
        pos = new
        if (k + 1) % record_stride == 0 or k == steps - 1:
            rec_times.append(timeline[k + 1].time)
            rec_positions.append(pos.copy())

    return Ensemble(
        grid, system, params,
        times=np.array(rec_times),
        positions=np.array(rec_positions),
        velocities=None if velocities is None else np.array(velocities),
        drifts=None if drifts is None else np.array(drifts),
        seed=seed,
        meta={"mode": mode, "escaped": escaped_total, "walkers": n_walkers},
    )


# ---------------------------------------------------------------------------
# statistics of the sampled process
# ---------------------------------------------------------------------------

def fluctuation_covariance(system: ParticleSystem, params: TransitionParams,
                           n_draws: int, seed: int = 0) -> dict:
    """Monte-Carlo check of <dw_A dw_B> = eta dt**gamma * (1/m)_AB."""
    dim = len(system.axis_map)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    sig = noise_sigmas(system, params)
    draws = rng.standard_normal((n_draws, dim)) * sig
    cov = np.cov(draws.T, bias=False).reshape(dim, dim)
    expected = np.diag(params.eta * params.dt**params.gamma_exponent
                       / system.mass_per_axis)
    se = expected * np.sqrt(2.0 / (n_draws - 1))
    return {"covariance": cov, "expected": expected,
            "stderr_diag": np.diag(se), "n_draws": n_draws}


def velocity_increment_stats(ens: Ensemble) -> dict:
    """Covariance of velocity increments with the drift change removed.

    The residual velocity V_k - v(x_k, t_k) isolates the fluctuation part;
    consecutive differences then estimate <dU_A dU_B>, to be compared with
    2 eta dt * (1/m)_AB for the gamma = 3 process.
    """
    if ens.velocities is None or ens.drifts is None:
        raise ValueError("ensemble was recorded without velocity samples")
    resid = ens.velocities - ens.drifts
    du = resid[1:] - resid[:-1]
    flat = du.reshape(-1, du.shape[-1])
    dim = flat.shape[1]
    cov = np.cov(flat.T, bias=False).reshape(dim, dim)
    expected = np.diag(2 * ens.params.eta * ens.params.dt
                       / ens.system.mass_per_axis)
    n = flat.shape[0]
    return {"covariance": cov, "expected": expected,
            "n_increments": n,
            "rel_err_diag": np.abs(np.diag(cov) - np.diag(expected))
            / np.diag(expected)}


def scaling_exponent(system: ParticleSystem, dt_grid: Sequence[float],
                     trials: int, seed: int = 0) -> dict:
    """Fit log <|dw|^2> against log dt; the slope estimates gamma."""
    if system.eta == 0:
        raise ValueError("eta = 0: fluctuation scaling exponent is undefined")
    from .stats import fit_power_law
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    mean_sq = []
    for dt in dt_grid:
        params = TransitionParams(dt, system.eta, system.gamma_exponent)
        sig = noise_sigmas(system, params)[0]
        draws = rng.standard_normal(trials) * sig
        mean_sq.append(float(np.mean(draws**2)))
    fit = fit_power_law(np.asarray(dt_grid, float), np.asarray(mean_sq))
    return {"gamma_hat": fit["exponent"], "stderr": fit["stderr"],
            "mean_square": mean_sq, "dt_grid": list(dt_grid),
            "gamma_true": system.gamma_exponent}


def path_length_scaling(system: ParticleSystem, total_time: float,
                        dt_grid: Sequence[float], trials: int,
                        seed: int = 0) -> dict:
    """Mean path length of the pure-fluctuation walk over a fixed horizon.

    Expected exponent: gamma/2 - 1 (negative means the sampled path length
    diverges as dt -> 0, the non-differentiable regime).  Exposed as a
    diagnostic; no threshold is enforced.
    """
    if system.eta == 0:
        raise ValueError("eta = 0: path length scaling is undefined")
    from .stats import fit_power_law
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    mean_len = []
    for dt in dt_grid:
        params = TransitionParams(dt, system.eta, system.gamma_exponent)
        sig = noise_sigmas(system, params)[0]
        steps = max(int(round(total_time / dt)), 1)
        incr = np.abs(rng.standard_normal((trials, steps)) * sig)
        mean_len.append(float(np.mean(incr.sum(axis=1))))
    fit = fit_power_law(np.asarray(dt_grid, float), np.asarray(mean_len))
    return {"exponent": fit["exponent"], "stderr": fit["stderr"],
            "expected_exponent": system.gamma_exponent / 2 - 1,
            "mean_length": mean_len, "dt_grid": list(dt_grid)}


# ---------------------------------------------------------------------------
# deterministic (eta -> 0) trajectories
# ---------------------------------------------------------------------------

def bohmian_trajectories(timeline: Sequence[WaveState], pot: Potentials | None,
                         system: ParticleSystem, initial_positions: np.ndarray,
                         substeps: int = 1) -> np.ndarray:
    """Integrate dx/dt = v(x, t) with the midpoint rule along the timeline.

    The velocity is evaluated by current-ratio interpolation of snapshot flow
    tables (linear in time between them), the same evaluation the stochastic
    sampler uses, so an eta -> 0 ensemble collapses onto these paths.
    Returns positions of shape (len(timeline), K, dim).
    """
    if len(timeline) < 2:
        raise ValueError("timeline needs at least two states")
    grid = timeline[0].grid
    pos = np.array(initial_positions, dtype=float)
    tables = _flow_tables(timeline, pot, system, "current", 0.0)
    out = [pos.copy()]
    for k in range(len(timeline) - 1):
        dt_snap = timeline[k + 1].time - timeline[k].time
        h = dt_snap / substeps
        for j in range(substeps):
            lam0 = j / substeps
            lam_half = (j + 0.5) / substeps
            t0 = _blend(tables[k], tables[k + 1], lam0)
            th = _blend(tables[k], tables[k + 1], lam_half)
            v0 = _ratio_drift(grid, t0, pos)
            half = grid.wrap(pos + 0.5 * h * v0)
            vh = _ratio_drift(grid, th, half)
            pos = grid.wrap(pos + h * vh)
        out.append(pos.copy())
    return np.array(out)


def max_deviation_from_deterministic(ens: Ensemble,
                                     reference: np.ndarray) -> float:
    """Largest wrapped distance between recorded walkers and reference paths
    (same shape), averaged over walkers."""
    if ens.positions.shape != reference.shape:
        raise ValueError("ensemble and reference have different shapes")
    grid = ens.grid
    dev = ens.positions - reference
    for a in range(grid.dim):
        if grid.periodic[a]:
            L = grid.extents[a]
            dev[..., a] = (dev[..., a] + L / 2) % L - L / 2
    per_walker = np.max(np.sqrt((dev**2).sum(axis=-1)), axis=0)
    return float(per_walker.mean())


# ---------------------------------------------------------------------------
# centre-of-mass behaviour
# ---------------------------------------------------------------------------

def center_of_mass_report(masses: Sequence[float], eta: float, dt: float,
                          gamma_exponent: float = 3.0, n_draws: int = 20000,
                          seed: int = 0, hbar: float = 1.0,
                          width: float = 1.0) -> dict:
    """Fluctuation and quantum-potential scaling of the centre of mass.

    Draws independent per-particle fluctuations for a product state and
    checks the CM velocity fluctuation variance against eta * dt / M (for
    gamma = 3); then evaluates the quantum potential of a fixed-width CM
    density at masses M and 4M, whose magnitude must scale as 1/M.
    """
    masses = np.asarray(masses, dtype=float)
    if np.any(masses <= 0):
        raise ValueError("masses must be positive")
    total = masses.sum()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    sig = np.sqrt(eta * dt**gamma_exponent / masses)
    draws = rng.standard_normal((n_draws, masses.size)) * sig
    cm = (draws * masses).sum(axis=1) / total
    v_fluct = cm / dt
    sample_var = float(np.var(v_fluct, ddof=1))
    expected = eta * dt**(gamma_exponent - 2.0) / total
    se = expected * np.sqrt(2.0 / (n_draws - 1))

    from .grids import single_particle
    from .quantum import quantum_potential
    grid = ConfigGrid((256,), (16.0 * width,), (True,), origin=(-8.0 * width,))
    x = grid.axis_coords(0)
    rho = np.exp(-0.5 * (x / width) ** 2)
    rho /= rho.sum() * grid.cell_volume
    mags = {}
    for scale in (1.0, 4.0):
        sys_m = single_particle(mass=float(total * scale), hbar=hbar)
        q = quantum_potential(ScalarField(grid, rho), sys_m)
        mags[scale] = float(np.max(np.abs(q.values)))
    ratio = mags[1.0] / mags[4.0]

    return {
        "n_particles": int(masses.size),
        "total_mass": float(total),
        "cm_velocity_variance": sample_var,
        "expected_variance": expected,
        "stat_tolerance": 3.0 * se,
        "within_tolerance": bool(abs(sample_var - expected) <= 3.0 * se),
        "qpot_magnitude_ratio_M_vs_4M": ratio,
        "qpot_expected_ratio": 4.0,
    }
