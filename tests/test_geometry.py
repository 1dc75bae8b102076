import numpy as np
import pytest
import scipy.linalg

from edsim import geometry
from edsim.geometry import (MAX_OUTCOMES, EPhasePoint, EPhaseTangent, apply_J,
                            commutator_identity_gap, fs_length_squared,
                            geometry_battery, hamilton_field,
                            hamiltonian_flow_step, kernel_generator,
                            killing_residual, metric,
                            normalization_gradient, poisson_bracket,
                            project_tgf, symplectic,
                            tgf_residuals, transition_information_metric)
from edsim.geometry import _unit_tgf
from edsim.grids import particles_on_line, single_particle


def rand_point(k, seed=0, hbar=1.0, phase_scale=0.5):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(10.0 * np.ones(k + 1))
    p = np.maximum(p, 5e-3)
    p /= p.sum()
    phi = phase_scale * hbar * rng.uniform(-1, 1, k + 1)
    return EPhasePoint(p, phi, hbar).canonical()


def rand_hermitian(n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.conj().T)


def kernel_expectation(q, hbar=1.0):
    """<psi|Q|psi> as a function of (p, phi), psi = sqrt(p) e^{i phi/hbar}."""
    def f(p, phi):
        psi = np.sqrt(p) * np.exp(1j * phi / hbar)
        return float(np.real(np.vdot(psi, q @ psi)))
    return f


def central_difference_gradient(f, point, h=1e-5):
    """Central differences of f(p, phi) in each coordinate, with step h."""
    p, phi = point.probs, point.phases
    steps = h * np.eye(p.size)
    return (np.array([f(p + e, phi) - f(p - e, phi) for e in steps]) / (2 * h),
            np.array([f(p, phi + e) - f(p, phi - e) for e in steps]) / (2 * h))


def quadratic_gradient(p, phi):
    """Gradient of sum(p^2), which is not bilinear in the wave components."""
    return 2.0 * p, np.zeros_like(p)


def quadratic_hessian(p, phi, dp, dphi):
    """Derivative of quadratic_gradient along (dp, dphi)."""
    return 2.0 * dp, np.zeros_like(dp)


def expectation_gradient(q, hbar=1.0):
    """The gradient of <psi|Q|psi> alone, of `kernel_generator`'s pair."""
    return kernel_generator(q, hbar)[0]


def test_point_validation_and_canonical_representative():
    pt = rand_point(7, seed=1)
    assert abs(pt.mean_phase) < 1e-13
    assert abs(pt.probs.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        EPhasePoint(np.array([0.6, 0.6]), np.zeros(2))
    with pytest.raises(ValueError):
        EPhasePoint(np.array([-0.1, 1.1]), np.zeros(2))
    too_many = MAX_OUTCOMES + 2
    with pytest.raises(ValueError):
        EPhasePoint(np.full(too_many, 1 / too_many), np.zeros(too_many))
    psi = pt.psi
    back = EPhasePoint(np.abs(psi) ** 2, np.angle(psi)).canonical()
    assert np.allclose(back.probs, pt.probs, atol=1e-14)
    assert np.allclose(back.phases, pt.phases, atol=1e-13)


def test_symplectic_form_components():
    rng = np.random.default_rng(2)
    v = EPhaseTangent(rng.standard_normal(5), rng.standard_normal(5))
    u = EPhaseTangent(rng.standard_normal(5), rng.standard_normal(5))
    assert symplectic(v, v) == 0.0
    assert np.isclose(symplectic(v, u), -symplectic(u, v), rtol=1e-14)
    e_p = EPhaseTangent(np.eye(5)[2], np.zeros(5))
    e_phi = EPhaseTangent(np.zeros(5), np.eye(5)[2])
    assert symplectic(e_p, e_phi) == 1.0


def test_tangent_gauge_fixing_projection():
    pt = rand_point(9, seed=3)
    rng = np.random.default_rng(4)
    raw = EPhaseTangent(rng.standard_normal(10), rng.standard_normal(10))
    v = project_tgf(pt, raw)
    res = tgf_residuals(pt, v)
    assert res[0] < 1e-13 and res[1] < 1e-13
    w = _unit_tgf(pt, rng.standard_normal((2, pt.n_outcomes)))
    assert max(tgf_residuals(pt, w)) < 1e-12
    assert np.isclose(metric(pt, w, w), 1.0, rtol=1e-12)


def test_fs_length_ignores_pure_gauge_directions():
    pt = rand_point(6, seed=7)
    gauge = EPhaseTangent(np.zeros(7), np.full(7, 0.37))
    assert fs_length_squared(pt, gauge) < 1e-28
    assert fs_length_squared(pt, gauge, method="minimize") < 1e-16


def test_fs_length_two_outcome_value():
    pt = EPhasePoint(np.array([0.5, 0.5]), np.zeros(2))
    eps = 1e-3
    v = EPhaseTangent(np.array([eps, -eps]), np.zeros(2))
    assert np.isclose(fs_length_squared(pt, v), 2.0 * eps**2, rtol=1e-12)


def test_fs_length_closed_form_equals_minimization():
    for seed in range(5):
        pt = rand_point(16, seed=seed)
        rng = np.random.default_rng(100 + seed)
        v = EPhaseTangent(project_tgf(pt, EPhaseTangent(
            rng.standard_normal(17), np.zeros(17))).dp,
            rng.standard_normal(17))
        closed = fs_length_squared(pt, v)
        minimized = fs_length_squared(pt, v, method="minimize")
        assert abs(closed - minimized) < 1e-10 * max(closed, 1.0)


def test_minimization_catches_a_closed_form_without_its_mean(monkeypatch):
    """The minimized length does not share the closed form's mean
    subtraction: with that subtraction gone, the battery's gap exceeds
    the 1e-10 bound of acceptance item a11 while the reference stays put."""
    pt = rand_point(64, seed=3)
    rng = np.random.default_rng(4)
    v = EPhaseTangent(np.zeros(65), rng.standard_normal(65) + 0.3)
    reference = fs_length_squared(pt, v, method="minimize")
    assert abs(fs_length_squared(pt, v) - reference) < 1e-10
    monkeypatch.setattr(geometry, "_gauge_fixed", lambda p, dphi: dphi)
    assert fs_length_squared(pt, v, method="minimize") == reference
    assert fs_length_squared(pt, v) - reference > 1e-10
    rep = geometry_battery(outcomes=64, probes=100, kernels=2, seed=0)
    assert rep["fs_closed_vs_minimized_max_gap"] > 1e-10
    assert not rep["all_passed"]


def test_phase_point_refuses_the_simplex_boundary():
    """The metric is singular where an outcome has probability zero, so a
    point there is refused, and so is a flow step that lands there."""
    with pytest.raises(ValueError, match="positive"):
        EPhasePoint(np.array([0.0, 0.5, 0.5]), np.zeros(3))
    pt = EPhasePoint(np.array([0.25, 0.75]), np.zeros(2))
    # f = phi_0 - phi_1 moves p along (-1, 1); d_lambda = 0.25 reaches p_0 = 0
    grad = lambda p, phi: (np.zeros(2), np.array([-1.0, 1.0]))
    with pytest.raises(ValueError, match="d_lambda"):
        hamiltonian_flow_step(grad, pt, 0.25)
    with pytest.raises(ValueError, match="d_lambda"):
        hamiltonian_flow_step(grad, pt, -0.75)


def test_complex_structure_squares_to_minus_one():
    pt = rand_point(12, seed=8)
    rng = np.random.default_rng(9)
    for _ in range(5):
        v = _unit_tgf(pt, rng.standard_normal((2, pt.n_outcomes)))
        jv = apply_J(pt, v)
        jjv = apply_J(pt, jv)
        assert np.max(np.abs(jjv.dp + v.dp)) < 1e-10
        assert np.max(np.abs(jjv.dphi + v.dphi)) < 1e-10


def test_complex_structure_is_compatible_with_metric_and_form():
    pt = rand_point(10, seed=10)
    rng = np.random.default_rng(11)
    for _ in range(5):
        v = _unit_tgf(pt, rng.standard_normal((2, pt.n_outcomes)))
        u = _unit_tgf(pt, rng.standard_normal((2, pt.n_outcomes)))
        jv = apply_J(pt, v)
        assert np.isclose(metric(pt, jv, jv), metric(pt, v, v), rtol=1e-10)
        assert np.isclose(metric(pt, jv, u), symplectic(v, u), rtol=0,
                          atol=1e-10)


def test_complex_structure_closes_on_gauge_fixed_vectors():
    pt = rand_point(8, seed=12)
    rng = np.random.default_rng(13)
    v = _unit_tgf(pt, rng.standard_normal((2, pt.n_outcomes)))
    jv = apply_J(pt, v)
    assert max(tgf_residuals(pt, jv)) < 1e-13


def test_poisson_bracket_canonical_pairs():
    pt = rand_point(5, seed=14)
    e, zero = np.eye(6), np.zeros(6)
    p2 = lambda p, phi: (e[2], zero)
    phi2 = lambda p, phi: (zero, e[2])
    phi3 = lambda p, phi: (zero, e[3])
    assert poisson_bracket(p2, phi2, pt) == 1.0
    assert poisson_bracket(p2, p2, pt) == 0.0
    assert poisson_bracket(p2, phi3, pt) == 0.0


def test_bracket_is_symplectic_form_of_hamilton_fields():
    # {f, g} = Omega(X_f, X_g) with X_f = (df/dphi, -df/dp)
    for seed in range(4):
        pt = rand_point(9, seed=50 + seed)
        gf = expectation_gradient(rand_hermitian(10, seed=60 + seed), 1.0)
        gg = expectation_gradient(rand_hermitian(10, seed=70 + seed), 1.0)
        bracket = poisson_bracket(gf, gg, pt)
        assert abs(bracket) > 1e-3
        assert bracket == symplectic(hamilton_field(gf, pt),
                                     hamilton_field(gg, pt))


def test_normalization_generator_commutes_with_kernel_expectations():
    pt = rand_point(6, seed=15)
    h = expectation_gradient(rand_hermitian(7, seed=16), 1.0)
    pb = poisson_bracket(normalization_gradient, h, pt)
    assert abs(pb) < 1e-12


def test_flow_of_normalization_constraint_shifts_phases():
    pt = rand_point(5, seed=17)
    moved = hamiltonian_flow_step(normalization_gradient, pt, 0.3)
    assert np.allclose(moved.probs, pt.probs, atol=1e-12)
    assert np.allclose(moved.phases, pt.phases + 0.3, atol=1e-10)
    assert np.allclose(moved.canonical().phases, pt.phases, atol=1e-10)


def test_flow_zero_step_is_identity():
    pt = rand_point(4, seed=18)
    h = expectation_gradient(rand_hermitian(5, seed=19), 1.0)
    same = hamiltonian_flow_step(h, pt, 0.0)
    assert np.allclose(same.probs, pt.probs, atol=1e-14)
    assert np.allclose(same.phases, pt.phases, atol=1e-12)


def test_flow_rejects_steps_leaving_the_simplex():
    pt = EPhasePoint(np.array([0.01, 0.99]), np.zeros(2))
    # f = -5 phi_0
    grad = lambda p, phi: (np.zeros(2), np.array([-5.0, 0.0]))
    with pytest.raises(ValueError, match="d_lambda"):
        hamiltonian_flow_step(grad, pt, 0.01)
    with pytest.raises(ValueError, match="simplex"):
        hamiltonian_flow_step(grad, pt, 1e-3)


def test_flow_matches_unitary_evolution_to_second_order():
    pt = rand_point(3, seed=20)
    q = rand_hermitian(4, seed=21)
    grad = expectation_gradient(q, 1.0)
    errs = []
    for dlam in (2e-2, 1e-2, 5e-3):
        euler = hamiltonian_flow_step(grad, pt, dlam).canonical()
        # exact flow of a Hermitian-kernel expectation: psi -> e^{-iQ dl/h} psi
        u = scipy.linalg.expm(-1j * q * dlam / pt.hbar)
        psi = u @ pt.psi
        p = np.abs(psi) ** 2
        exact = EPhasePoint(p / p.sum(), np.angle(psi)).canonical()
        errs.append(np.linalg.norm(euler.psi - exact.psi))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)
    assert errs[2] < 1e-4


def test_killing_residual_separates_isometries():
    pt = rand_point(8, seed=22)
    hermitian = kernel_generator(rand_hermitian(9, seed=23), 1.0)
    assert killing_residual(*hermitian, pt, n_probes=10, seed=1) < 1e-13
    assert killing_residual(quadratic_gradient, quadratic_hessian, pt,
                            n_probes=10, seed=1) > 1e-3
    # the normalization constraint is a pure gauge shift: residual is zero
    constant = lambda p, phi, dp, dphi: (np.zeros_like(dp),
                                         np.zeros_like(dp))
    assert killing_residual(normalization_gradient, constant, pt,
                            n_probes=5, seed=1) < 1e-14


def test_analytic_kernel_gradient_matches_finite_differences():
    pt = rand_point(7, seed=31)
    q = rand_hermitian(8, seed=32)
    gp, gphi = expectation_gradient(q, 1.0)(pt.probs, pt.phases)
    fp, fphi = central_difference_gradient(kernel_expectation(q), pt)
    assert np.max(np.abs(gp - fp)) < 1e-5
    assert np.max(np.abs(gphi - fphi)) < 1e-8


def test_kernel_hessian_matches_central_differences_of_the_gradient():
    # the gap to a central difference falls as eps^2, down to roundoff
    pt = rand_point(11, seed=42, hbar=0.7)
    q = rand_hermitian(12, seed=43)
    grad, hess = kernel_generator(q, pt.hbar)
    rng = np.random.default_rng(44)
    w = project_tgf(pt, EPhaseTangent(rng.standard_normal((5, 12)),
                                      rng.standard_normal((5, 12))))
    exact = np.concatenate(hess(pt.probs, pt.phases, w.dp, w.dphi), axis=-1)
    gaps = []
    for eps in (1e-4, 1e-5, 1e-6):
        diffs = []
        for dp, dphi in zip(w.dp, w.dphi):
            plus = grad(pt.probs + eps * dp, pt.phases + eps * dphi)
            minus = grad(pt.probs - eps * dp, pt.phases - eps * dphi)
            diffs.append(np.concatenate([(a - b) / (2 * eps)
                                         for a, b in zip(plus, minus)]))
        gaps.append(np.max(np.abs(np.array(diffs) - exact))
                    / np.max(np.abs(exact)))
    assert gaps[0] < 1e-5
    assert gaps[1] < gaps[0] / 50 and gaps[2] < gaps[1] / 50
    # one displacement alone gives the row of the stack
    alone = hess(pt.probs, pt.phases, w.dp[2], w.dphi[2])
    assert np.allclose(np.concatenate(alone), exact[2], rtol=0, atol=1e-13)


def test_directed_probes_catch_concentrated_violations():
    # a functional quadratic in a single high-weight outcome produces a
    # Lie derivative supported on that coordinate alone; random probes
    # spread over all outcomes dilute it but directed self-pairs do not
    pt = rand_point(40, seed=33)
    j = int(np.argmax(pt.probs))
    e_j = np.eye(pt.n_outcomes)[j]
    # gradient of p_j^2 and its derivative along a stack of displacements
    local = lambda p, phi: (2.0 * p[j] * e_j, np.zeros_like(p))
    local_hess = lambda p, phi, dp, dphi: (2.0 * dp[..., j, None] * e_j,
                                           np.zeros_like(dp))
    g = killing_residual(local, local_hess, pt, n_probes=10, seed=2)
    assert g > 1e-3


def pairwise_killing_residual(grad, point, n_probes=10, seed=0,
                              probe_eps=1e-4):
    """Finite-difference reference for killing_residual: one probe pair at a
    time, the field derivative a central difference of the Hamiltonian
    field at two pushed points, in the draw order of the closed form."""
    rng = np.random.default_rng(seed)
    p, hbar = point.probs, point.hbar
    x_field = hamilton_field(grad, point)

    def pushed_field(w):
        pp = p + probe_eps * w.dp
        pm = p - probe_eps * w.dp
        plus = EPhasePoint(pp / pp.sum(), point.phases + probe_eps * w.dphi,
                           hbar)
        minus = EPhasePoint(pm / pm.sum(), point.phases - probe_eps * w.dphi,
                            hbar)
        xp = hamilton_field(grad, plus)
        xm = hamilton_field(grad, minus)
        return EPhaseTangent((xp.dp - xm.dp) / (2 * probe_eps),
                             (xp.dphi - xm.dphi) / (2 * probe_eps))

    pairs = [(_unit_tgf(point, rng.standard_normal((2, point.n_outcomes))),
              _unit_tgf(point, rng.standard_normal((2, point.n_outcomes))))
             for _ in range(n_probes)]
    for j in range(p.size):
        dp = np.zeros(p.size)
        dp[j] = 1.0
        dphi = np.zeros(p.size)
        dphi[j] = hbar / (2.0 * p[j])
        t = project_tgf(point, EPhaseTangent(dp, dphi))
        norm2 = metric(point, t, t)
        if norm2 < 1e-18:
            continue
        t = t.scaled(1.0 / np.sqrt(norm2))
        pairs.append((t, t))

    worst = 0.0
    for v, u in pairs:
        dxv = pushed_field(v)
        dxu = dxv if u is v else pushed_field(u)
        dv = v.dphi - np.sum(p * v.dphi)
        du = u.dphi - np.sum(p * u.dphi)
        coeff_term = float(np.sum(x_field.dp *
                                  (-hbar / (2 * p**2) * v.dp * u.dp
                                   + 2.0 / hbar * dv * du)))
        lie = coeff_term + metric(point, dxv, u) + metric(point, v, dxu)
        worst = max(worst, abs(lie))
    return worst


def test_batched_killing_residual_matches_pairwise_reference():
    pt = rand_point(24, seed=34)
    for seed in (35, 36, 37):
        q = rand_hermitian(25, seed=seed)
        closed = killing_residual(*kernel_generator(q, 1.0), pt,
                                  n_probes=20, seed=seed)
        # the difference quotient sits at its floor, about 2e-7; the
        # closed form at roundoff
        reference = pairwise_killing_residual(expectation_gradient(q, 1.0), pt,
                                              n_probes=20, seed=seed,
                                              probe_eps=1e-5)
        assert closed < 1e-13
        assert 1e-12 < reference < 1e-6
    # a gradient linear in p has an exact difference quotient
    batched = killing_residual(quadratic_gradient, quadratic_hessian, pt,
                               n_probes=8, seed=38)
    loop = pairwise_killing_residual(quadratic_gradient, pt, n_probes=8,
                                     seed=38)
    assert batched > 1e-3
    assert batched == pytest.approx(loop, rel=1e-10, abs=0)


def test_stacked_structures_match_row_by_row():
    pt = rand_point(30, seed=39)
    rng = np.random.default_rng(40)
    v, u = (EPhaseTangent(rng.standard_normal((7, 31)),
                          rng.standard_normal((7, 31))) for _ in range(2))
    row = lambda t, i: EPhaseTangent(t.dp[i], t.dphi[i])
    projected = project_tgf(pt, v)
    for fn in (lambda a, b: metric(pt, a, b), symplectic):
        stacked = fn(v, u)
        assert stacked.shape == (7,)
        assert all(stacked[i] == fn(row(v, i), row(u, i)) for i in range(7))
    # the metric is blind to a pure-gauge phase part of either slot
    shifted = EPhaseTangent(v.dp, v.dphi + rng.standard_normal((7, 1)))
    assert np.allclose(metric(pt, shifted, u), metric(pt, v, u),
                       rtol=1e-12, atol=1e-12)
    for i in range(7):
        alone = project_tgf(pt, row(v, i))
        assert np.array_equal(projected.dp[i], alone.dp)
        assert np.array_equal(projected.dphi[i], alone.dphi)


def test_killing_residual_of_unitary_flows_is_roundoff_at_a_skewed_point():
    # a Dirichlet(1) point puts some outcomes near 1e-4, where a difference
    # quotient of the field lost digits
    rng = np.random.default_rng(45)
    pt = EPhasePoint(rng.dirichlet(np.ones(65)),
                     0.4 * rng.uniform(-1, 1, 65)).canonical()
    assert pt.probs.min() < 1e-3
    for seed in (46, 47):
        q = rand_hermitian(65, seed=seed)
        res = killing_residual(*kernel_generator(q, 1.0), pt, n_probes=50,
                               seed=seed)
        assert res <= 1e-12


def test_battery_passes_beyond_the_outcome_cap():
    # at the cap, four times the former cap of 64: the residual is
    # roundoff at any size the command line accepts
    rep = geometry_battery(outcomes=256, probes=10, kernels=3, seed=0)
    assert rep["killing_hermitian_max"] < 1e-12
    assert rep["all_passed"]


def test_bracket_equals_commutator_expectation():
    pt = rand_point(3, seed=25)
    u = rand_hermitian(4, seed=26)
    v = rand_hermitian(4, seed=27)
    assert commutator_identity_gap(u, v, pt) < 1e-6
    same = commutator_identity_gap(u, u, pt)
    assert same < 1e-8


def test_commutator_side_matches_the_dense_commutator():
    """The commutator side, 2 Im<U psi|V psi>/hbar, reads what the dense
    <psi|(UV - VU)|psi>/i hbar reads, to roundoff."""
    for n, hbar, seed in [(2, 1.0, 1), (9, 0.7, 2), (65, 1.0, 3),
                          (65, 0.3, 4)]:
        pt = rand_point(n - 1, seed=seed, hbar=hbar)
        u = rand_hermitian(n, seed=80 + seed)
        v = rand_hermitian(n, seed=90 + seed)
        pb = poisson_bracket(expectation_gradient(u, hbar),
                             expectation_gradient(v, hbar), pt)
        dense = np.vdot(pt.psi, (u @ v - v @ u) @ pt.psi) / (1j * hbar)
        reference = abs(pb - dense.real) + abs(dense.imag)
        assert abs(commutator_identity_gap(u, v, pt) - reference) < 1e-13


def test_the_battery_checks_each_kernel_once_per_use(monkeypatch):
    """One Hermitian check per Killing kernel and one per kernel of each
    commutator pair: 20 + 2 x 19 for 20 kernels."""
    calls = []
    check = geometry._hermitian
    monkeypatch.setattr(geometry, "_hermitian",
                        lambda kernel: calls.append(1) or check(kernel))
    assert geometry_battery(64, 100, 20, 0)["all_passed"]
    assert len(calls) <= 58


def test_information_metric_single_particle_value():
    sys1 = single_particle(mass=1.0, eta=1.0, gamma_exponent=3.0)
    rep = transition_information_metric(sys1, dt=0.1)
    assert abs(rep["gamma_matrix"][0, 0] - 1000.0) < 10.0
    assert rep["max_rel_deviation"] < 0.01
    assert abs(rep["mass_normalization"] - 1.0) < 1e-9


def test_information_metric_mass_tensor_structure():
    sys2 = particles_on_line([1.0, 2.0], eta=0.5, gamma_exponent=3.0)
    rep = transition_information_metric(sys2, dt=0.1)
    g = rep["gamma_matrix"]
    assert abs(g[1, 1] / g[0, 0] - 2.0) < 0.01
    assert rep["off_diagonal_max"] < 1e-6 * g.max()
    expected = 1.0 / (0.5 * 0.1**3)
    assert abs(g[0, 0] - expected) < 0.01 * expected


@pytest.mark.parametrize("kernel, message", [
    (np.ones((3, 4)), "square"),
    (np.triu(np.ones((4, 4))), "Hermitian"),
    # Hermitian but for 1e-10 of its largest entry
    (np.eye(4) + np.diag([1e-10] * 3, 1), "Hermitian"),
    (np.diag([1.0, np.nan, 1.0]), "Hermitian"),
])
def test_the_kernel_functions_refuse_a_kernel_that_is_not_hermitian(
        kernel, message):
    pt = rand_point(kernel.shape[0] - 1, seed=3)
    with pytest.raises(ValueError, match=message):
        kernel_generator(kernel, 1.0)
    with pytest.raises(ValueError, match=message):
        commutator_identity_gap(np.eye(kernel.shape[0]), kernel, pt)


def test_the_hermitian_check_allows_roundoff():
    q = rand_hermitian(6, seed=4)
    q[0, 1] += 1e-13 * np.abs(q).max()
    pt = rand_point(5, seed=4)
    gp, gphi = expectation_gradient(q, 1.0)(pt.probs, pt.phases)
    assert np.all(np.isfinite(gp)) and np.all(np.isfinite(gphi))


def test_battery_passes_at_small_scale():
    rep = geometry_battery(outcomes=12, probes=25, kernels=4, seed=5)
    assert rep["all_passed"]
    assert rep["j_squared_max_dev"] < 1e-10
    assert rep["killing_hermitian_max"] < 1e-6
    assert rep["killing_counterexample"] > 1e-3
    assert rep["commutator_identity_max_gap"] < 1e-6
    assert rep["normalization_flow_ok"]


_HALVES = np.array([0.5, 0.5])

REFUSALS = {
    "point-shape": (lambda: EPhasePoint(np.full((2, 2), 0.25),
                                        np.zeros((2, 2))),
                    "matching 1-d arrays"),
    "point-non-finite": (lambda: EPhasePoint(_HALVES, [0.0, np.nan]),
                         "non-finite"),
    "point-hbar": (lambda: EPhasePoint(_HALVES, np.zeros(2), hbar=0.0),
                   "hbar must be positive"),
    "tangent-shape": (lambda: EPhaseTangent(np.zeros(3), np.zeros(2)),
                      "matching arrays"),
    "length-method": (lambda: fs_length_squared(
        rand_point(3), EPhaseTangent(np.zeros(4), np.zeros(4)), "nearest"),
        "unknown method 'nearest'"),
    "battery-outcomes": (lambda: geometry_battery(MAX_OUTCOMES + 1, 1, 1,
                                                  seed=0),
                         f"at most {MAX_OUTCOMES} outcomes"),
    "information-eta": (lambda: transition_information_metric(
        single_particle(eta=0.0), 0.1), "eta must be positive"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_geometry_inputs_are_refused(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError, match=message):
        call()
