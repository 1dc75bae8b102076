"""Geometry of the discrete phase space of probabilities and phases.

A point is (p, Phi) with p on the interior of the k-simplex (the metric is
singular on its boundary, so `EPhasePoint` refuses any p <= 0) and Phi a
phase per outcome, defined up to a common additive constant; the canonical
representative fixes the mean phase sum(p * Phi) to zero.  Tangent vectors
are gauge-fixed ("TGF") by sum(dp) = 0 and sum(p * dphi) = 0.  A tangent
may also hold a stack of P displacements as (P, n) arrays; the bilinear
structures then reduce over the last axis and return one value per row.

The structures implemented here, all per outcome i:

* symplectic form  Omega(V, U) = sum(dp dphi' - dphi dp')
* metric           G(V, U) = sum[(hbar/2p) dp dp' + (2p/hbar) dphi dphi']
* complex structure  J(dp, dphi) = (-(2p/hbar) dphi, (hbar/2p) dp)

G and Omega are compatible through J (G(JV, U) = Omega(V, U), J^2 = -1),
and (G + i Omega)/2hbar contracted on wave components sqrt(p) e^{i Phi/hbar}
reproduces the usual complex scalar product.

G is written once, in `metric`, which gauge-fixes the phase part of each
slot: on TGF vectors it is the formula above, and it ignores pure-gauge
phase parts, so flow-transported vectors compare without re-projection.

A phase-space generator f is passed as its gradient callable
(p, Phi) -> (df/dp, df/dPhi) on the unconstrained coordinates.  Poisson
brackets and Hamiltonian flows read nothing else; the Killing residual
also takes the derivative of that gradient along a stack of displacements
(see kernel_generator), so every derivative here is in closed form.  A
Hermitian kernel Q enters only as Q @ psi and one stack product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import ParticleSystem

MAX_OUTCOMES = 256
MAX_PROBES = 10_000


@dataclass(frozen=True)
class EPhasePoint:
    """Probabilities and phases over k+1 discrete outcomes, every
    probability positive."""

    probs: np.ndarray
    phases: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        p = np.ascontiguousarray(np.asarray(self.probs, dtype=float))
        phi = np.ascontiguousarray(np.asarray(self.phases, dtype=float))
        if p.ndim != 1 or phi.shape != p.shape:
            raise ValueError("probs and phases must be matching 1-d arrays")
        if p.size < 2 or p.size > MAX_OUTCOMES + 1:
            raise ValueError(f"need 2..{MAX_OUTCOMES + 1} outcomes")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(phi))):
            raise ValueError("non-finite entries")
        if np.any(p <= 0):
            raise ValueError("probabilities must be positive: the metric is "
                             "singular on the simplex boundary")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        p.flags.writeable = False
        phi.flags.writeable = False
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "phases", phi)

    @property
    def n_outcomes(self) -> int:
        return self.probs.size

    @property
    def mean_phase(self) -> float:
        return float(np.sum(self.probs * self.phases))

    def canonical(self) -> "EPhasePoint":
        """Representative with mean phase zero on the gauge orbit."""
        return EPhasePoint(self.probs, self.phases - self.mean_phase,
                           self.hbar)

    @property
    def psi(self) -> np.ndarray:
        return np.sqrt(self.probs) * np.exp(1j * self.phases / self.hbar)


@dataclass(frozen=True)
class EPhaseTangent:
    """Displacement (dp, dphi) at a phase-space point, or a stack of them."""

    dp: np.ndarray
    dphi: np.ndarray

    def __post_init__(self):
        dp = np.ascontiguousarray(np.asarray(self.dp, dtype=float))
        dphi = np.ascontiguousarray(np.asarray(self.dphi, dtype=float))
        if dp.ndim < 1 or dphi.shape != dp.shape:
            raise ValueError("dp and dphi must be matching arrays")
        dp.flags.writeable = False
        dphi.flags.writeable = False
        object.__setattr__(self, "dp", dp)
        object.__setattr__(self, "dphi", dphi)

    def scaled(self, c: float | np.ndarray) -> "EPhaseTangent":
        """Each displacement times c (one factor per row of a stack)."""
        c = np.asarray(c)[..., None]
        return EPhaseTangent(c * self.dp, c * self.dphi)


def _rows(v: EPhaseTangent, index) -> EPhaseTangent:
    return EPhaseTangent(v.dp[index], v.dphi[index])


def _gauge_fixed(p: np.ndarray, dphi: np.ndarray) -> np.ndarray:
    """dphi less its p-weighted mean sum(p * dphi), per row of a stack."""
    return dphi - np.sum(p * dphi, axis=-1, keepdims=True)


def tgf_residuals(point: EPhasePoint, v: EPhaseTangent):
    """|sum(dp)| and |sum(p * dphi)|, per row of a stack."""
    return (np.abs(v.dp.sum(axis=-1)),
            np.abs(np.sum(point.probs * v.dphi, axis=-1)))


def project_tgf(point: EPhasePoint, v: EPhaseTangent) -> EPhaseTangent:
    """Remove the off-simplex and pure-gauge components of a displacement."""
    dp = v.dp - v.dp.mean(axis=-1, keepdims=True)
    return EPhaseTangent(dp, _gauge_fixed(point.probs, v.dphi))


def _unit_tgf(point: EPhasePoint, raw: np.ndarray) -> EPhaseTangent:
    """Unit-length TGF tangents from raw (..., 2, n) draws: dp, then dphi."""
    v = project_tgf(point, EPhaseTangent(raw[..., 0, :], raw[..., 1, :]))
    return v.scaled(1.0 / np.sqrt(metric(point, v, v)))


# ---------------------------------------------------------------------------
# bilinear structures
# ---------------------------------------------------------------------------

def symplectic(v: EPhaseTangent, u: EPhaseTangent) -> float | np.ndarray:
    return np.sum(v.dp * u.dphi - v.dphi * u.dp, axis=-1)


def metric(point: EPhasePoint, v: EPhaseTangent,
           u: EPhaseTangent) -> float | np.ndarray:
    """Phase-space scalar product G(V, U), with the mean-phase component
    sum(p * dphi) projected out of each slot: on TGF vectors the formula
    of the module docstring, and blind to pure-gauge phase parts."""
    p, hbar = point.probs, point.hbar
    dv, du = _gauge_fixed(p, v.dphi), _gauge_fixed(p, u.dphi)
    return np.sum(hbar / (2 * p) * v.dp * u.dp + 2 * p / hbar * dv * du,
                  axis=-1)


def fs_length_squared(point: EPhasePoint, v: EPhaseTangent,
                      method: str = "closed") -> float | np.ndarray:
    """Squared length of a displacement on the quotient by phase shifts,
    per row of a stack.

    "closed" is G(v, v), whose mean-phase subtraction is analytic;
    "minimize" minimizes the phase part sum[(2p/hbar)(dphi + alpha)^2] over
    a constant shift alpha without forming that mean: the part is a
    parabola in alpha, whose vertex follows from its values at alpha = -1,
    0 and 1, per row.  Both must agree: the minimization over the gauge
    orbit is what defines the induced metric.
    """
    if method == "closed":
        return metric(point, v, v)
    if method == "minimize":
        p, hbar = point.probs, point.hbar
        radial = np.sum(hbar / (2 * p) * v.dp ** 2, axis=-1)

        def length(alpha):
            return np.sum(2 * p / hbar * (v.dphi + alpha) ** 2, axis=-1)
        below, at, above = length(-1.0), length(0.0), length(1.0)
        vertex = 0.5 * (below - above) / (below - 2.0 * at + above)
        return radial + length(np.expand_dims(vertex, -1))
    raise ValueError(f"unknown method {method!r}")


def apply_J(point: EPhasePoint, v: EPhaseTangent) -> EPhaseTangent:
    """Complex structure: (dp, dphi) -> (-(2p/hbar) dphi, (hbar/2p) dp).

    The image of a TGF vector is again TGF; this is verified (and then
    enforced against roundoff), not assumed.
    """
    p, hbar = point.probs, point.hbar
    out = EPhaseTangent(-(2.0 / hbar) * p * v.dphi,
                        hbar / (2.0 * p) * v.dp)
    r_in = np.maximum(*tgf_residuals(point, v))
    r_out = np.maximum(*tgf_residuals(point, out))
    scale = np.maximum(np.max(np.abs(out.dp), axis=-1),
                       np.max(np.abs(out.dphi), axis=-1))
    if np.any((r_in < 1e-9) & (r_out > 1e-9 * np.maximum(scale, 1e-300))):
        raise AssertionError("TGF closure under J failed")
    return project_tgf(point, out)


# ---------------------------------------------------------------------------
# functionals, brackets, flows
# ---------------------------------------------------------------------------

def poisson_bracket(grad_f: Callable, grad_g: Callable,
                    point: EPhasePoint) -> float:
    """{f, g} = sum(df/dp dg/dphi - df/dphi dg/dp) from the two gradients."""
    fp, fphi = grad_f(point.probs, point.phases)
    gp, gphi = grad_g(point.probs, point.phases)
    return float(np.sum(fp * gphi - fphi * gp))


def _canonical_field(df_dp: np.ndarray, df_dphi: np.ndarray) -> EPhaseTangent:
    """Vector field of the canonical flow: dp = df/dphi, dphi = -df/dp."""
    return EPhaseTangent(np.asarray(df_dphi, float), -np.asarray(df_dp, float))


def hamilton_field(grad: Callable, point: EPhasePoint) -> EPhaseTangent:
    """Canonical flow field of f at one point: dp = df/dphi, dphi = -df/dp."""
    return _canonical_field(*grad(point.probs, point.phases))


def hamiltonian_flow_step(grad: Callable, point: EPhasePoint,
                          dlam: float) -> EPhasePoint:
    """One explicit Euler step of the canonical flow generated by f.

    Rejects steps that would push a probability to zero or below (with the
    largest admissible step size in the message).  The phases are not
    recentred; `.canonical()` gives the representative with mean phase zero.
    """
    field_v = hamilton_field(grad, point)
    new_p = point.probs + dlam * field_v.dp
    if np.any(new_p <= 0):
        bad = dlam * field_v.dp < 0
        limit = float(np.min(point.probs[bad] / np.abs(field_v.dp[bad])))
        raise ValueError(
            f"step d_lambda={dlam:g} drives probabilities to zero; "
            f"use |d_lambda| < {limit:g}")
    if abs(new_p.sum() - 1.0) > 1e-8:
        raise ValueError("flow leaves the simplex: sum(dp) != 0")
    return EPhasePoint(new_p / new_p.sum(),
                       point.phases + dlam * field_v.dphi, point.hbar)


def normalization_gradient(p: np.ndarray,
                           phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient (-1, 0) of the constraint function 1 - sum(p); its flow
    shifts all phases."""
    return -np.ones_like(p), np.zeros_like(phi)


def _hermitian(kernel: np.ndarray) -> np.ndarray:
    """The kernel as a complex matrix, checked square and Hermitian."""
    q = np.asarray(kernel, dtype=complex)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("kernel must be a square matrix")
    # the largest entry of Q - Q^H against 1e-12 of the largest of Q; a
    # non-finite entry fails it
    if not np.max(np.abs(q - q.conj().T)) <= 1e-12 * np.abs(q).max():
        raise ValueError("kernel must be Hermitian")
    return q


def kernel_generator(kernel: np.ndarray,
                     hbar: float) -> tuple[Callable, Callable]:
    """Gradient of a Hermitian-kernel expectation <psi|Q|psi>, and its
    closed-form derivative along displacements; Q is checked once.

    Chain rule through psi_j = sqrt(p_j) e^{i phi_j/hbar}: with w = Q psi
    and prod = psi* w, the gradient maps (p, phi) -> (Re prod/p,
    (2/hbar) Im prod).  With dpsi = psi (dp/2p + i dphi/hbar) and
    dprod = dpsi* w + psi* Q dpsi, the derivative maps (p, phi, dp, dphi)
    -> (Re dprod/p - Re prod dp/p^2, (2/hbar) Im dprod) at the point
    (p, phi), for one displacement or a (P, n) stack of them.
    """
    q = _hermitian(kernel)

    def grad(p: np.ndarray, phi: np.ndarray):
        psi = np.sqrt(p) * np.exp(1j * phi / hbar)
        prod = psi.conj() * (q @ psi)
        return prod.real / p, (2.0 / hbar) * prod.imag

    def hess(p: np.ndarray, phi: np.ndarray, dp: np.ndarray,
             dphi: np.ndarray):
        psi = np.sqrt(p) * np.exp(1j * phi / hbar)
        w = q @ psi
        dpsi = psi * (dp / (2.0 * p) + 1j * dphi / hbar)
        prod = psi.conj() * w
        dprod = dpsi.conj() * w + psi.conj() * (dpsi @ q.T)
        return (dprod.real / p - prod.real * dp / p**2,
                (2.0 / hbar) * dprod.imag)

    return grad, hess


def killing_residual(grad: Callable, hess: Callable, point: EPhasePoint,
                     n_probes: int, seed: int) -> float:
    """Largest |d/dlambda G(V, U)| along the flow of f over probe pairs.

    Uses the Lie-derivative identity L_X G (V, U) = X[G(V, U)]
    + G(D_V X, U) + G(V, D_U X) for constant extensions of V, U; the field
    derivative D_V X is the canonical field of `hess(p, phi, dp, dphi)`,
    the derivative of f's gradient (see kernel_generator), along all probes
    as one (P, n) stack.  The probes are `n_probes` random pairs, plus one
    self-pair per coordinate, concentrated on that outcome, so violations
    localized on high-weight outcomes are not washed out by averaging.
    Generators bilinear in the wave components are isometries and land at
    roundoff; nonlinear functionals do not.
    """
    rng = np.random.default_rng(seed)
    p, hbar, n = point.probs, point.hbar, point.n_outcomes
    x_field = hamilton_field(grad, point)
    # drawn pair by pair as (slot, dp|dphi, n); regrouped as all v, then all u
    pairs = _unit_tgf(point, rng.standard_normal((n_probes, 2, 2, n))
                      .swapaxes(0, 1).reshape(-1, 2, n))
    own = project_tgf(point, EPhaseTangent(np.eye(n),
                                           np.diag(hbar / (2.0 * p))))
    norm2 = metric(point, own, own)
    own = _rows(own.scaled(1.0 / np.sqrt(norm2)), norm2 >= 1e-18)
    w = EPhaseTangent(np.concatenate([pairs.dp, own.dp]),
                      np.concatenate([pairs.dphi, own.dphi]))
    dx = _canonical_field(*hess(p, point.phases, w.dp, w.dphi))
    # slots (v, u) hold each random pair, then each self-pair twice
    first = np.r_[:n_probes, 2 * n_probes:len(w.dp)]
    v, dxv = _rows(w, first), _rows(dx, first)
    u, dxu = _rows(w, slice(n_probes, None)), _rows(dx, slice(n_probes, None))
    dv, du = _gauge_fixed(p, v.dphi), _gauge_fixed(p, u.dphi)
    coeff_term = np.sum(x_field.dp * (-hbar / (2 * p**2) * v.dp * u.dp
                                      + 2.0 / hbar * dv * du), axis=-1)
    lie = coeff_term + metric(point, dxv, u) + metric(point, v, dxu)
    return float(np.max(np.abs(lie), initial=0.0))


# ---------------------------------------------------------------------------
# the bracket-commutator identity
# ---------------------------------------------------------------------------

def commutator_identity_gap(u_kernel: np.ndarray, v_kernel: np.ndarray,
                            point: EPhasePoint) -> float:
    """|{U~, V~} - <psi|[U, V]|psi>/i hbar| at the given point.

    The bracket side is evaluated on the (p, phi) coordinates with
    chain-rule gradients; the commutator side on the wave components as
    2 Im<U psi|V psi>/hbar, which it is for Hermitian U and V.
    """
    hbar, psi = point.hbar, point.psi
    pb = poisson_bracket(kernel_generator(u_kernel, hbar)[0],
                         kernel_generator(v_kernel, hbar)[0], point)
    comm = 2.0 * np.vdot(u_kernel @ psi, v_kernel @ psi).imag / hbar
    return float(abs(pb - comm))


def geometry_battery(outcomes: int, probes: int, kernels: int,
                     seed: int) -> dict:
    """Identity checks of the phase-space structures at a random point
    (hbar = 1).

    Runs `probes` random TGF probe pairs for J^2 = -1, the G/Omega/J
    compatibility identities, and the closed-form vs minimized length;
    `kernels` random Hermitian generators for the Killing and commutator
    identities; plus the nonlinear counterexample and the flow of the
    normalization constraint.  Tolerances: 1e-10 for exact identities and
    1e-6 for the Killing and commutator residuals, both in closed form.
    """
    if outcomes > MAX_OUTCOMES:
        raise ValueError(f"at most {MAX_OUTCOMES} outcomes")
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(8.0 * np.ones(outcomes + 1))
    phi = 0.4 * rng.uniform(-1.0, 1.0, outcomes + 1)
    point = EPhasePoint(p, phi).canonical()

    n = outcomes + 1
    # drawn probe by probe (v, u, then v's phase shift), so a seed draws
    # the probes it always has; checked as one stack
    raw = np.empty((2, probes, 2, n))
    shifts = np.empty((probes, 1))
    for i in range(probes):
        raw[:, i] = rng.standard_normal((2, 2, n))
        shifts[i] = rng.uniform(-1, 1)
    v, u = _unit_tgf(point, raw[0]), _unit_tgf(point, raw[1])
    jv = apply_J(point, v)
    jjv = apply_J(point, jv)

    def largest(x):
        return float(np.max(np.abs(x), initial=0.0))

    j_sq = max(largest(jjv.dp + v.dp), largest(jjv.dphi + v.dphi))
    compat_metric = largest(metric(point, jv, jv) - metric(point, v, v))
    compat_omega = largest(metric(point, jv, u) - symplectic(v, u))
    w = EPhaseTangent(v.dp, v.dphi + shifts)
    fs_gap = largest(fs_length_squared(point, w)
                     - fs_length_squared(point, w, method="minimize"))

    killing_max = commutator_max = 0.0
    prev = None
    for _ in range(kernels):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q = 0.5 * (a + a.conj().T)
        killing_max = max(killing_max,
                          killing_residual(*kernel_generator(q, point.hbar),
                                           point, n_probes=probes,
                                           seed=int(rng.integers(2**31))))
        if prev is not None:
            commutator_max = max(commutator_max,
                                 commutator_identity_gap(prev, q, point))
        prev = q
    # f = sum(p^2), a functional that is not bilinear in the wave components
    counterexample = killing_residual(
        lambda p_, phi_: (2.0 * p_, np.zeros_like(p_)),
        lambda p_, phi_, dp, dphi: (2.0 * dp, np.zeros_like(dp)),
        point, n_probes=probes, seed=int(rng.integers(2**31)))

    moved = hamiltonian_flow_step(normalization_gradient, point, 0.17)
    n_flow_ok = (np.allclose(moved.probs, point.probs, atol=1e-12)
                 and np.allclose(moved.phases, point.phases + 0.17,
                                 atol=1e-9))

    report = {
        "outcomes": outcomes,
        "probes": probes,
        "kernels": kernels,
        "j_squared_max_dev": j_sq,
        "metric_j_invariance_max_dev": compat_metric,
        "omega_metric_j_identity_max_dev": compat_omega,
        "fs_closed_vs_minimized_max_gap": fs_gap,
        "killing_hermitian_max": killing_max,
        "killing_counterexample": counterexample,
        "commutator_identity_max_gap": commutator_max,
        "normalization_flow_ok": bool(n_flow_ok),
    }
    report["all_passed"] = bool(
        j_sq < 1e-10 and compat_metric < 1e-10 and compat_omega < 1e-10
        and fs_gap < 1e-10 and killing_max < 1e-6
        and counterexample > 1e-3 and commutator_max < 1e-6 and n_flow_ok)
    return report


# ---------------------------------------------------------------------------
# information metric of the transition kernel
# ---------------------------------------------------------------------------

# lattice points per axis (65 in 3-d, to bound memory) and half-width in
# step deviations
_QUAD_POINTS, _QUAD_SIGMAS = 129, 8.0


def transition_information_metric(system: ParticleSystem, dt: float) -> dict:
    """Fisher information of the Gaussian step kernel at the origin.

    Integrates gamma_AB = Int dx' P (d_A log P)(d_B log P) on a tensor
    quadrature lattice and compares with the closed form m_AB / (eta dt^g):
    for the g = 3 process this is the mass tensor up to the eta dt^3 factor.
    log P is quadratic in the start point x, so its derivative at x = 0 is
    d_A log P = x'_A / sigma_A^2 exactly.
    """
    if system.eta <= 0:
        raise ValueError("eta must be positive for the information metric")
    dim = len(system.axis_map)
    variances = system.step_variances(dt)
    sig = np.sqrt(variances)

    quad_points = 65 if dim == 3 else _QUAD_POINTS
    axes = [np.linspace(-_QUAD_SIGMAS * sig[a], _QUAD_SIGMAS * sig[a],
                        quad_points)
            for a in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    weights = np.prod([ax[1] - ax[0] for ax in axes])

    p_kernel = (np.exp(sum(-mesh[a] ** 2 / (2 * variances[a])
                           for a in range(dim)))
                / np.sqrt(np.prod(2 * np.pi * variances)))
    grads = [mesh[a] / variances[a] for a in range(dim)]
    gamma = np.empty((dim, dim))
    for a in range(dim):
        for b in range(a, dim):
            val = float(np.sum(p_kernel * grads[a] * grads[b]) * weights)
            gamma[a, b] = gamma[b, a] = val
    expected = np.diag(1.0 / variances)
    scale = np.sqrt(np.outer(np.diag(expected), np.diag(expected)))
    rel = np.abs(gamma - expected) / scale
    return {
        "gamma_matrix": gamma,
        "expected": expected,
        "max_rel_deviation": float(rel.max()),
        "off_diagonal_max": float(np.max(np.abs(gamma - np.diag(np.diag(
            gamma))))) if dim > 1 else 0.0,
        "mass_normalization": float(np.sum(p_kernel) * weights),
    }
