from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from edsim.grids import (ConfigGrid, ParticleSystem, density_floor,
                         rectangle_loop, single_particle)
from edsim.quantum import (
    CrankNicolson,
    MadelungPair,
    Potentials,
    SafeguardError,
    WaveState,
    build_potentials,
    charge_quantization_check,
    energy,
    evolve,
    evolve_trajectory,
    free_potentials,
    gauge_transform,
    gaussian_packet,
    hamilton_residuals,
    hamiltonian_matrix,
    madelung,
    phase_gradient,
    position_moments,
    quantum_potential,
    reverse_potentials,
    superpose,
    time_reverse,
    winding_number,
)
from edsim import quantum
from edsim.presets import build_preset

from conftest import BOUNDARY_GRIDS


def ring(n=128, L=16.0):
    return ConfigGrid((n,), (L,), (True,), origin=(-L / 2,))


def plane_wave(grid, k):
    x = grid.axis_coords(0)
    return WaveState(grid, np.exp(1j * k * x))


def test_plane_wave_discrete_dispersion():
    g = ring(64, L=2 * np.pi * 4)
    sys = single_particle(mass=1.5, hbar=0.9)
    pot = free_potentials(g, sys)
    k = 2 * np.pi * 3 / g.extents[0]
    st = plane_wave(g, k)
    hpsi = pot.hamiltonian @ st.psi
    ratio = hpsi / st.psi
    h = g.spacing[0]
    e_disc = sys.hbar**2 / (sys.masses[0] * h**2) * (1 - np.cos(k * h))
    assert np.allclose(ratio, e_disc, rtol=1e-12)
    # second-order agreement with the continuum value
    e_cont = sys.hbar**2 * k**2 / (2 * sys.masses[0])
    assert abs(e_disc - e_cont) < e_cont * (k * h) ** 2 / 10


def test_constant_gauge_field_shifts_dispersion():
    L = 8.0
    g = ring(64, L)
    sys = single_particle(mass=1.0, charge=1.0, hbar=1.0, light_speed=1.0)
    a_val = 0.7
    pot = build_potentials(g, sys, vector_a=[a_val])
    beta = sys.beta[0]
    h = g.spacing[0]

    # plane waves stay eigenvectors, with wavenumber shifted by beta*A
    k = 2 * np.pi * 5 / L
    st = plane_wave(g, k)
    ratio = (pot.hamiltonian @ st.psi) / st.psi
    expected = sys.hbar**2 / (sys.masses[0] * h**2) * (1 - np.cos((k - beta * a_val) * h))
    assert np.allclose(ratio, expected, rtol=1e-12)

    # full spectrum against dense diagonalization
    H = hamiltonian_matrix(pot).toarray()
    assert np.max(np.abs(H - H.conj().T)) < 1e-14
    evals = np.sort(scipy.linalg.eigvalsh(H))
    ks = 2 * np.pi * np.fft.fftfreq(g.points[0], d=h)
    analytic = np.sort(sys.hbar**2 / (sys.masses[0] * h**2)
                       * (1 - np.cos((ks - beta * a_val) * h)))
    assert np.max(np.abs(evals - analytic)) < 1e-12


def test_crank_nicolson_norm_and_energy_conservation():
    g = ring(128, 16.0)
    sys = single_particle()
    pot = build_potentials(g, sys, scalar_v=lambda x: 0.5 * x**2)
    st = gaussian_packet(g, 1.0, 0.8, momentum=0.5)
    e0 = energy(st, pot)
    states = evolve_trajectory(st, pot, 0.01, 200)
    norms = [s.meta["raw_norm"] for s in states[1:]]
    drift = np.max(np.abs(np.diff([1.0] + norms)))
    assert drift < 1e-12
    e1 = energy(states[-1], pot)
    assert abs(e1 - e0) < 1e-10 * abs(e0)


def uniform_field_potentials(grid, b_field):
    """Unit charge in a uniform magnetic field, symmetric gauge."""
    system = single_particle(dim=2, charge=1.0)
    return build_potentials(grid, system, vector_a=(
        lambda x, y: -0.5 * b_field * y, lambda x, y: 0.5 * b_field * x))


def test_crank_nicolson_orders_the_2d_factor_for_low_fill():
    # a field with curl does not split into per-axis modes, so the vortex
    # lattice factorizes; minimum degree on A + A^T, where COLAMD left
    # 599,936 entries in L + U
    sc = build_preset("vortex_2d")
    lu = CrankNicolson(uniform_field_potentials(sc.grid, 0.5), sc.dt)._lu
    assert lu.L.nnz + lu.U.nnz < 400_000


SPLIT_GRIDS = [g for g in BOUNDARY_GRIDS if g.dim > 1]


def split_potentials(grid, kind):
    """Potentials whose Hamiltonian is a Kronecker sum of per-axis ones."""
    system = single_particle(dim=grid.dim)
    if kind == "free":
        return free_potentials(grid, system)
    return build_potentials(grid, system, scalar_v=lambda *xs: sum(
        (a + 1) * 0.3 * x**2 + np.cos(x) for a, x in enumerate(xs)))


@pytest.mark.parametrize("kind", ["free", "separable_v"])
@pytest.mark.parametrize("grid", SPLIT_GRIDS,
                         ids=lambda g: "x".join(map(str, g.points)))
def test_split_hamiltonian_steps_in_axis_modes_as_the_sparse_solve(grid, kind):
    pot = split_potentials(grid, kind)
    cn = CrankNicolson(pot, 0.07)
    assert cn._lu is None
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    ref = scipy.sparse.linalg.splu(cn._A).solve(cn._B @ psi.ravel())
    out = cn.step(psi).ravel()
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind", ["coupled_v", "uniform_b", "uniform_a",
                                  "line"])
def test_hamiltonians_that_do_not_split_factorize(kind):
    # a uniform A splits, but into complex per-axis blocks, which are left
    # to the sparse LU
    plane = ConfigGrid((12, 10), (3.0, 2.5), (False, True), origin=(-1.5, 0.0))
    if kind == "coupled_v":
        pot = build_potentials(plane, single_particle(dim=2),
                               scalar_v=lambda x, y: 0.3 * x * y)
    elif kind == "uniform_b":
        pot = uniform_field_potentials(plane, 0.5)
    elif kind == "uniform_a":
        pot = build_potentials(plane, single_particle(dim=2, charge=1.0),
                               vector_a=[0.7, 0.2])
    else:
        pot = free_potentials(ring(32), single_particle())
    assert CrankNicolson(pot, 0.07)._lu is not None


def test_mode_steps_keep_the_norm_as_well_as_the_sparse_lu():
    # over 100 vortex_2d steps the squared norm drifts no further on the
    # mode path than on the LU of the same left-hand side
    sc = build_preset("vortex_2d")
    cn = CrankNicolson(sc.potentials, sc.dt)
    assert cn._lu is None
    lu = scipy.sparse.linalg.splu(cn._A, permc_spec="MMD_AT_PLUS_A")
    psi_modes = psi_lu = sc.state.psi.ravel()
    for _ in range(100):
        psi_modes = cn.step(psi_modes)
        psi_lu = lu.solve(cn._B @ psi_lu)
    n0 = np.vdot(sc.state.psi, sc.state.psi).real
    drift = [abs(np.vdot(p, p).real / n0 - 1) for p in (psi_modes, psi_lu)]
    assert drift[0] <= max(2 * drift[1], 1e-14)


def test_a_corrupted_mode_multiplier_trips_the_residual_check():
    sc = build_preset("vortex_2d", points=24)
    cn = CrankNicolson(sc.potentials, sc.dt)
    cn.step(sc.state.psi)
    # a unit-modulus error keeps the norm: only the residual can see it
    cn._mult = cn._mult * np.exp(1e-6j)
    with pytest.raises(SafeguardError, match="residual"):
        cn.step(sc.state.psi)


def test_mode_steps_stay_in_modes_for_the_state_they_returned(monkeypatch):
    # the multiplier is a pure phase, the returned state is read-only, and
    # stepping it again starts from its kept coefficients: one pass back,
    # where a copy of it goes into modes first
    sc = build_preset("vortex_2d")
    cn = CrankNicolson(sc.potentials, sc.dt)
    assert cn._lu is None
    assert np.max(np.abs(np.abs(cn._mult) - 1)) <= 4.5e-16
    psi = cn.step(sc.state.psi)
    assert not psi.flags.writeable
    passes = []
    along = quantum._along_axes
    monkeypatch.setattr(quantum, "_along_axes",
                        lambda *a: passes.append(1) or along(*a))
    kept = cn.step(psi)
    assert len(passes) == 1
    fresh = cn.step(psi.copy())
    assert len(passes) == 3
    assert np.max(np.abs(kept - fresh)) <= 1e-13 * np.max(np.abs(fresh))


def test_a_non_finite_step_trips_the_safeguard():
    # a NaN fails every comparison, so the checks are written to fail it
    sc = build_preset("vortex_2d", points=24)
    cn = CrankNicolson(sc.potentials, sc.dt)
    cn._mult = cn._mult * np.nan
    with pytest.raises(SafeguardError, match="residual"):
        cn.step(sc.state.psi)


def test_potentials_share_one_frozen_hamiltonian():
    sc = build_preset("ring_constant_a")
    pot, st = sc.potentials, sc.state
    H = pot.hamiltonian
    assert pot.hamiltonian is H
    for arr in (H.data, H.indices):
        with pytest.raises(ValueError):
            arr[0] = 0
    fresh = hamiltonian_matrix(pot)
    assert energy(st, pot) == float(
        (np.vdot(st.psi, fresh @ st.psi) * sc.grid.cell_volume).real)
    # lattice time reversal: H(-A) = H(A)*, built anew for the new potentials
    rev = reverse_potentials(pot).hamiltonian
    assert rev is not H
    assert abs(rev - H.conj()).max() == 0.0


def test_box_ground_state_is_stationary():
    g = ConfigGrid((64,), (8.0,), (False,))
    sys = single_particle()
    pot = build_potentials(g, sys, scalar_v=lambda x: 0.5 * (x - 4.0) ** 2)
    H = hamiltonian_matrix(pot).toarray()
    evals, evecs = scipy.linalg.eigh(H)
    ground = WaveState(g, evecs[:, 0].astype(complex))
    e0 = evals[0]
    t = 0.8
    steps = 400
    out = evolve(ground, pot, t / steps, steps)
    overlap = np.vdot(ground.psi, out.psi) * g.cell_volume
    assert abs(abs(overlap) - 1.0) < 1e-10
    # global phase rotates as exp(-i E0 t / hbar)
    assert np.angle(overlap * np.exp(1j * e0 * t)) == pytest.approx(0.0, abs=1e-6)


def test_free_packet_width_growth_quick():
    g = ring(256, 24.0)
    sys = single_particle()
    pot = free_potentials(g, sys)
    sigma0 = 1.0
    st = gaussian_packet(g, 0.0, sigma0)
    t = 1.0
    out = evolve(st, pot, 0.01, 100)
    w = position_moments(out)["width"][0]
    expected = sigma0 * np.sqrt(1 + (t / (2 * sigma0**2)) ** 2)
    assert w == pytest.approx(expected, rel=2e-3)


def test_madelung_compose_round_trip():
    g = ring()
    st = gaussian_packet(g, 0.5, 1.2, momentum=1.0)
    pair = madelung(st, hbar=1.0)
    back = np.sqrt(pair.rho) * np.exp(1j * pair.phi / pair.hbar)
    keep = st.rho > density_floor(st.rho)
    assert np.max(np.abs(back[keep] - st.psi[keep])) < 1e-12
    # phase stored on the principal branch
    assert pair.phi.max() <= np.pi * pair.hbar + 1e-12
    assert pair.phi.min() > -np.pi * pair.hbar - 1e-12


def test_phase_gradient_unwraps_plane_wave():
    g = ring(128, 16.0)
    k = 2 * np.pi * 7 / 16.0
    st = plane_wave(g, k)
    pair = madelung(st, hbar=1.0)
    grad = phase_gradient(pair, 0)
    assert np.allclose(grad, k, rtol=1e-10)


def test_quantum_potential_gaussian_formula():
    g = ring(512, 20.0)
    sys = single_particle(mass=1.3, hbar=0.9)
    sigma = 1.1
    x = g.axis_coords(0)
    rho = np.exp(-0.5 * (x / sigma) ** 2)
    rho /= rho.sum() * g.cell_volume
    q = quantum_potential(g, rho, sys)
    # Q = -(hbar^2/2m) (d^2 sqrt(rho)) / sqrt(rho) = (hbar^2/2m)(1/(2 s^2) - x^2/(4 s^4))
    expected = (sys.hbar**2 / (2 * sys.masses[0])) * (1 / (2 * sigma**2) - x**2 / (4 * sigma**4))
    inner = np.abs(x) < 3 * sigma
    assert np.max(np.abs(q[inner] - expected[inner])) < 2e-4


def test_hamilton_residuals_small_and_converging():
    g = ring(256, 16.0)
    sys = single_particle()
    pot = build_potentials(g, sys, scalar_v=lambda x: 0.3 * x**2)
    st = gaussian_packet(g, 0.5, 1.0, momentum=0.8)
    res = hamilton_residuals(st, pot, dt=1e-3)
    assert res["r_rho"] < 5e-3
    assert res["r_phi"] < 2e-2
    assert res["masked_fraction"] < 0.9
    assert not res["mask_warning"] or res["masked_fraction"] > 0.2


def test_hamilton_residuals_stationary_state():
    g = ConfigGrid((96,), (10.0,), (False,))
    sys = single_particle()
    pot = build_potentials(g, sys, scalar_v=lambda x: 2.0 * (x - 5.0) ** 2)
    H = hamiltonian_matrix(pot).toarray()
    _, evecs = scipy.linalg.eigh(H)
    ground = WaveState(g, evecs[:, 0].astype(complex))
    res = hamilton_residuals(ground, pot, dt=1e-3)
    # for an eigenstate the discrete quantum potential cancels V - E exactly
    assert res["r_phi"] < 1e-7
    assert res["r_rho"] < 1e-10


def test_time_reversal_round_trip_with_gauge_field():
    g = ring(96, 12.0)
    sys = single_particle(charge=1.0)
    pot = build_potentials(g, sys, scalar_v=lambda x: 0.2 * x**2, vector_a=[0.5])
    st = gaussian_packet(g, 1.0, 1.0, momentum=1.0)
    fwd = evolve(st, pot, 0.01, 150)
    back = evolve(time_reverse(fwd), reverse_potentials(pot), 0.01, 150)
    recovered = time_reverse(back)
    assert np.max(np.abs(recovered.psi - st.psi)) < 1e-9


def test_gauge_transform_density_invariant_and_commutes():
    g = ring(96, 12.0)
    sys = single_particle(charge=1.0)
    pot = build_potentials(g, sys, scalar_v=lambda x: 0.1 * x**2, vector_a=[0.3])
    st = gaussian_packet(g, 0.0, 1.0, momentum=0.7)

    chi = lambda x: 0.8 * np.sin(2 * np.pi * x / 12.0)
    st2, pot2 = gauge_transform(st, pot, chi)
    assert np.max(np.abs(st2.rho - st.rho)) < 1e-14

    evolved_then = gauge_transform(evolve(st, pot, 0.02, 50), pot, chi)[0]
    then_evolved = evolve(st2, pot2, 0.02, 50)
    assert np.max(np.abs(evolved_then.rho - then_evolved.rho)) < 1e-10


def test_gauge_transform_with_winding_chi_shifts_winding():
    L = 10.0
    g = ring(128, L)
    sys = single_particle(charge=1.0)  # beta = 1
    pot = free_potentials(g, sys)
    st = plane_wave(g, 2 * np.pi * 3 / L)
    loop = [(k,) for k in range(g.points[0])] + [(0,)]
    w0 = winding_number(st, loop)["integer"]
    chi_w = 2 * np.pi * 2  # two turns, beta * chi_w / 2 pi = 2
    chi = lambda x: chi_w * (x + L / 2) / L
    st2, _ = gauge_transform(st, pot, chi)
    w1 = winding_number(st2, loop)["integer"]
    assert w0 == 3 and w1 == 5
    assert charge_quantization_check(sys, chi_w)["verdict"]


def test_gauge_transform_takes_only_a_callable_chi():
    g = ring(32, 8.0)
    sys = single_particle(charge=1.0)
    st = gaussian_packet(g, 0.0, 1.0)
    with pytest.raises(TypeError, match="chi must be a callable") as info:
        gauge_transform(st, free_potentials(g, sys), np.zeros(g.shape))
    assert "\n" not in str(info.value)


def _counting_chi():
    calls = []

    def chi(*coords):
        calls.append(len(coords))
        return 0.3 * sum(np.sin(c) for c in coords)
    return chi, calls


def test_gauge_transform_evaluates_chi_once_per_node_set_and_shift():
    sc = build_preset("vortex_2d", points=16)
    chi, calls = _counting_chi()
    gauge_transform(sc.state, sc.potentials, chi)
    assert len(calls) == 5

    sys2 = line_system([1.0, -2.0])
    g = ConfigGrid((12, 10), (6.0, 5.0), (True, False), origin=(-3.0, 0.0))
    st = gaussian_packet(g, (0.0, 2.5), 0.8)
    chi, calls = _counting_chi()
    st2, pot2 = gauge_transform(st, free_potentials(g, sys2), chi)
    assert len(calls) == sys2.n_particles + 2 * g.dim
    assert calls == [1] * len(calls)  # each particle's own coordinate only
    x, y = g.meshgrid()
    phase = sys2.beta[0] * 0.3 * np.sin(x) + sys2.beta[1] * 0.3 * np.sin(y)
    assert np.allclose(st2.psi, st.psi * np.exp(1j * phase), atol=1e-14)
    h = g.spacing[1]
    bond = 0.3 * (np.sin(y + h) - np.sin(y))
    assert np.allclose(pot2.link_theta[1], sys2.beta[1] * bond, atol=1e-14)


@pytest.mark.parametrize("component", [np.zeros(32), None])
def test_build_potentials_takes_only_numbers_or_callables_for_a(component):
    g = ring(32, 8.0)
    sys = single_particle(charge=1.0)
    with pytest.raises(ValueError, match=r"vector_a\[0\]") as info:
        build_potentials(g, sys, vector_a=[component])
    assert "\n" not in str(info.value)


def test_absent_potentials_are_zero_arrays():
    g = ConfigGrid((8, 6), (4.0, 3.0), (True, False))
    sys = line_system([1.0, 1.0])
    pot = Potentials(g, sys)
    for name, shape in (("scalar_v", (8, 6)), ("link_theta", (2, 8, 6)),
                        ("vector_a_nodes", (2, 8, 6))):
        arr = getattr(pot, name)
        assert arr.shape == shape and arr.dtype == float
        assert not arr.any() and not arr.flags.writeable
        with pytest.raises(ValueError, match=name):
            Potentials(g, sys, **{name: np.zeros((3,) + shape)})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["scalar_v", "link_theta", "vector_a_nodes"])
def test_potentials_refuse_non_finite_entries(name, bad):
    g = ConfigGrid((8, 6), (4.0, 3.0), (True, False))
    shape = g.shape if name == "scalar_v" else (2,) + g.shape
    arr = np.zeros(shape)
    arr.flat[5] = bad
    with pytest.raises(ValueError, match=name) as info:
        Potentials(g, line_system([1.0, 1.0]), **{name: arr})
    assert "\n" not in str(info.value)


def line_system(charges):
    from edsim.grids import particles_on_line
    return particles_on_line((1.0,) * len(charges), charges)


def test_charge_quantization_check_pass_and_fail():
    rep = charge_quantization_check(line_system([1.0, 2.0, 3.0]), 2 * np.pi)
    assert rep["verdict"]
    rep2 = charge_quantization_check(line_system([1.0, np.sqrt(2)]), 2 * np.pi)
    assert not rep2["verdict"]
    deficits = [p["deficit"] for p in rep2["per_particle"]]
    assert deficits[0] < 1e-12 and deficits[1] > 0.1
    # chi with zero winding never quantizes anything
    assert charge_quantization_check(line_system([1.0, np.sqrt(2)]), 0.0)["verdict"]


def vortex_state(n=96, L=12.0, m=1):
    g = ConfigGrid((n, n), (L, L), (False, False), origin=(-L / 2, -L / 2))
    xx, yy = g.meshgrid()
    r = np.hypot(xx, yy)
    theta = np.arctan2(yy, xx)
    amp = np.tanh(r / 1.0) ** abs(m) if m != 0 else np.exp(-0.5 * (r / 3) ** 2)
    envelope = np.exp(-0.5 * (r / 3.0) ** 2)
    psi = amp * envelope * np.exp(1j * m * theta)
    return g, WaveState(g, psi)


def test_vortex_winding_all_charges():
    for m in (-2, -1, 0, 1, 2):
        g, st = vortex_state(m=m)
        n = g.points[0]
        loop = rectangle_loop((n // 2 - 12, n // 2 - 12), (n // 2 + 12, n // 2 + 12))
        rep = winding_number(st, loop)
        assert rep["integer"] == m
        assert rep["gap"] < 1e-9
        assert not rep["node_on_loop"]


def test_vortex_winding_homotopy_invariance():
    g, st = vortex_state(m=2)
    n = g.points[0]
    small = rectangle_loop((n // 2 - 6, n // 2 - 6), (n // 2 + 6, n // 2 + 6))
    large = rectangle_loop((n // 2 - 20, n // 2 - 20), (n // 2 + 20, n // 2 + 20))
    assert winding_number(st, small)["integer"] == winding_number(st, large)["integer"] == 2


def test_superposed_vortices_mask_nodal_loops():
    g, plus = vortex_state(m=1)
    _, minus = vortex_state(m=-1)
    mix = superpose(1.0, plus, 1.0, minus)  # ~ cos(theta): nodal lines
    n = g.points[0]
    loop = rectangle_loop((n // 2 - 10, n // 2 - 10), (n // 2 + 10, n // 2 + 10))
    rep = winding_number(mix, loop)
    assert rep["node_on_loop"] or rep["gap"] < 1e-6


def test_superpose_rejects_null_combination():
    g = ring()
    st = gaussian_packet(g, 0.0, 1.0)
    with pytest.raises(ValueError, match="zero"):
        superpose(1.0, st, -1.0, st)


def test_superposition_is_member_of_state_space():
    g = ring()
    s1 = gaussian_packet(g, -2.0, 1.0, momentum=1.0)
    s2 = gaussian_packet(g, 2.0, 1.0, momentum=-1.0)
    mix = superpose(0.6, s1, 0.8j, s2)
    norm = np.vdot(mix.psi, mix.psi).real * g.cell_volume
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_position_moments_between_hard_walls():
    g = ConfigGrid((256,), (20.0,), (False,), origin=(-10.0,))
    st = gaussian_packet(g, 1.3, 0.8, momentum=2.0)
    mom = position_moments(st)
    # the density is a Gaussian of mean 1.3 and standard deviation 0.8
    assert mom["mean"][0] == pytest.approx(1.3, abs=1e-12)
    assert mom["width"][0] == pytest.approx(0.8, abs=1e-12)


def test_position_moments_periodic_seam():
    g = ring(128, 16.0)
    st = gaussian_packet(g, -7.9, 0.5)  # straddles the seam
    mom = position_moments(st)
    # circular mean stays near the packet centre (wrapped)
    d = (mom["mean"][0] + 7.9 + 8.0) % 16.0 - 8.0
    assert abs(d) < 0.05
    assert mom["width"][0] == pytest.approx(0.5, rel=5e-3)


def random_pair(grid, hbar, seed):
    rng = np.random.default_rng(seed)
    rho = rng.random(grid.shape)
    # phases spread over several branches, so the bond differences wrap
    phi = 4 * np.pi * hbar * rng.normal(size=grid.shape)
    return MadelungPair(grid, rho, phi, hbar)


def phase_gradient_reference(pair, axis):
    """Nearest-branch bond differences averaged onto nodes, one-sided at
    hard walls, in per-slab slices."""
    grid = pair.grid
    h = grid.spacing[axis]
    phi = pair.phi
    period = 2 * np.pi * pair.hbar
    if grid.periodic[axis]:
        dphi = np.roll(phi, -1, axis=axis) - phi
    else:
        nxt = np.zeros_like(phi)
        nxt[(slice(None),) * axis + (slice(None, -1),)] = \
            phi[(slice(None),) * axis + (slice(1, None),)]
        dphi = nxt - phi
    fwd = (dphi - period * np.round(dphi / period)) / h
    if grid.periodic[axis]:
        bwd = np.roll(fwd, 1, axis=axis)
        return 0.5 * (fwd + bwd)
    out = np.empty_like(phi)
    sl = [slice(None)] * grid.dim

    def ax(s):
        t = list(sl)
        t[axis] = s
        return tuple(t)

    out[ax(slice(1, -1))] = 0.5 * (fwd[ax(slice(1, -1))] + fwd[ax(slice(0, -2))])
    out[ax(slice(0, 1))] = fwd[ax(slice(0, 1))]
    out[ax(slice(-1, None))] = fwd[ax(slice(-2, -1))]
    return out


def hamiltonian_reference(pot):
    """Hopping with link phases and a bond slice at hard walls, plus the
    scalar potential on the diagonal."""
    grid = pot.grid
    size = grid.size
    flat = np.arange(size).reshape(grid.shape)
    hbar = pot.system.hbar
    masses = pot.system.mass_per_axis
    diag = np.zeros(size, dtype=complex)
    row_parts, col_parts, val_parts = [], [], []
    for a in range(grid.dim):
        h = grid.spacing[a]
        coeff = hbar**2 / (2 * masses[a] * h**2)
        diag += 2 * coeff
        phase = np.exp(-1j * pot.link_theta[a])
        nb = np.roll(flat, -1, axis=a)
        bonds = slice(None) if grid.periodic[a] else slice(0, grid.points[a] - 1)
        sel = (slice(None),) * a + (bonds,)
        src, dst, ph = flat[sel].ravel(), nb[sel].ravel(), phase[sel].ravel()
        row_parts += [src, dst]
        col_parts += [dst, src]
        val_parts += [-coeff * ph, -coeff * np.conj(ph)]
    H = scipy.sparse.coo_matrix(
        (np.concatenate(val_parts),
         (np.concatenate(row_parts), np.concatenate(col_parts))),
        shape=(size, size), dtype=complex).tocsr()
    H = H + scipy.sparse.diags(diag + pot.scalar_v.ravel())
    return H.tocsr()


def test_phase_gradient_is_bit_identical_to_slab_reference(boundary_grid):
    grid = boundary_grid
    pair = random_pair(grid, 0.7, seed=grid.size)
    for axis in range(grid.dim):
        got = phase_gradient(pair, axis)
        assert got.tobytes() == phase_gradient_reference(pair, axis).tobytes()


def test_hamiltonian_is_bit_identical_to_bond_slice_reference(boundary_grid):
    grid = boundary_grid
    rng = np.random.default_rng(grid.size)
    system = ParticleSystem(tuple(rng.uniform(0.5, 2.0, grid.dim)),
                            (0.0,) * grid.dim,
                            tuple((a, 0) for a in range(grid.dim)), hbar=0.8)
    pot = Potentials(grid, system, scalar_v=rng.normal(size=grid.shape),
                     link_theta=rng.normal(size=(grid.dim,) + grid.shape))
    got, want = hamiltonian_matrix(pot), hamiltonian_reference(pot)
    for part in ("data", "indices", "indptr"):
        assert getattr(got, part).tobytes() == getattr(want, part).tobytes()


def moments_reference(state):
    """Mean and width per axis of one state, sum by sum on its own grid."""
    grid, rho, vol = state.grid, state.rho, state.grid.cell_volume
    means, widths = [], []
    for a, (x, phasor) in enumerate(zip(grid.coordinates, grid.ring_phasors)):
        if grid.periodic[a]:
            L = grid.extents[a]
            mean_ang = np.angle(np.sum(rho * phasor) * vol) % (2 * np.pi)
            mean = grid.origin[a] + L * mean_ang / (2 * np.pi)
            dev = (x - mean + L / 2) % L - L / 2
            correction = np.sum(rho * dev) * vol
            var = np.sum(rho * (dev - correction) ** 2) * vol
            means.append(float(mean + correction))
        else:
            mean = np.sum(rho * x) * vol
            var = np.sum(rho * (x - mean) ** 2) * vol
            means.append(float(mean))
        widths.append(float(np.sqrt(max(var, 0.0))))
    return means, widths


def test_stacked_rows_are_bit_identical_to_the_lone_state_formulas(
        boundary_grid):
    # `evolve` computes its rows for a stack of states at once
    grid = boundary_grid
    rng = np.random.default_rng(grid.size)
    pot = Potentials(grid, single_particle(dim=grid.dim, charge=1.0),
                     scalar_v=rng.normal(size=grid.shape),
                     link_theta=rng.normal(size=(grid.dim,) + grid.shape))
    states = [WaveState(grid, rng.normal(size=grid.shape)
                        + 1j * rng.normal(size=grid.shape)) for _ in range(3)]
    stack = np.stack([s.psi for s in states])
    means, widths = quantum._moments(grid, stack)
    energies = quantum._energies(pot, stack)
    for k, s in enumerate(states):
        assert (means[k].tolist(), widths[k].tolist()) == moments_reference(s)
        hpsi = pot.hamiltonian @ s.psi.ravel()
        assert energies[k] == (np.vdot(s.psi, hpsi) * grid.cell_volume).real
        assert energy(s, pot) == energies[k]


_LINE = ConfigGrid((16,), (8.0,), (True,), origin=(-4.0,))
_PLANE = ConfigGrid((8, 8), (4.0, 4.0), (True, True))

REFUSALS = {
    "state-shape": (lambda: WaveState(_LINE, np.ones(15)),
                    r"psi shape \(15,\) != grid shape \(16,\)"),
    "state-non-finite": (lambda: WaveState(_LINE, np.full(16, np.inf)),
                         "non-finite"),
    "state-zero": (lambda: WaveState(_LINE, np.zeros(16)),
                   "identically zero"),
    "potential-samples": (lambda: build_potentials(
        _LINE, single_particle(), scalar_v=np.zeros(15)),
        "does not match the grid"),
    "vector-a-count": (lambda: build_potentials(
        _LINE, single_particle(), vector_a=[0.0, 0.0]),
        "one spec per grid axis"),
    "cn-dt": (lambda: CrankNicolson(free_potentials(_LINE, single_particle()),
                                    0.0),
              "dt must be nonzero"),
    "superpose-grids": (lambda: superpose(
        1.0, gaussian_packet(_LINE, 0.0, 1.0), 1.0,
        gaussian_packet(ConfigGrid((32,), (8.0,), (True,), origin=(-4.0,)),
                        0.0, 1.0)),
        "different grids"),
    "open-loop": (lambda: winding_number(
        WaveState(_PLANE, np.ones((8, 8))), [(0, 0), (1, 0), (1, 1)]),
        "loop is not closed"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_quantum_inputs_are_refused(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError, match=message):
        call()
