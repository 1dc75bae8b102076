"""Wave-function flow: covariant Hamiltonian, Crank-Nicolson stepping, and
the density/phase (Madelung) view with its consistency diagnostics.

Potentials are static.  Each `Potentials` owns one frozen sparse
Hamiltonian (`Potentials.hamiltonian`), built on first use; Crank-Nicolson
stepping, `energy` and `hamilton_residuals` all read that one matrix.

The flow is linear, so a Crank-Nicolson step may be solved in any
eigenbasis of H, where it is a pure phase rotation of each mode.  When H on
a grid of two or more axes is a Kronecker sum of real per-axis
Hamiltonians, read off H itself (free motion, or a scalar potential that is
a sum of per-axis terms, and no vector potential), the run stays in
products of per-axis eigenmodes: each step rotates the coefficients it kept
and makes one pass of small dense products back to the grid; otherwise, and
on every 1-D grid, a step is one sparse LU solve.  Both are checked against
the sparse H at every step.

The sparse stack is imported where it runs: `scipy.sparse` inside the
functions that build sparse matrices (`hamiltonian_matrix`,
`_axis_hamiltonians`, `CrankNicolson.__init__`), and `scipy.sparse.linalg`
only in the LU branch of `CrankNicolson.__init__`.  Importing the module,
building potentials or presets, and the commands that step no wave load
neither; the per-axis mode path loads no LU.

`evolve_trajectory` keeps every state of a run, for the limit studies and
other callers that index the timeline.  `_Timeline` gives the same states
one at a time as they are stepped, keeping only the ones asked for:
`edsim ensemble` walks its walkers along it.  `edsim evolve` takes its rows
from `_evolve_rows`, which reads the raw stream of `_cn_steps` a block of
states at a time: `_energies` and `_moments`, the stacked forms of `energy`
and `position_moments`, serve a whole block, and a `WaveState` is built
only for each snapshot.  Both keep memory flat in the step count.

Gauge data lives on lattice links: the hopping term between nodes x and
x + e_A carries the phase exp(-i * theta_A(x)) with
theta_A = beta_n * (line integral of A along the bond).  Gauge
transformations update the link phases with exact endpoint differences of
chi, which is what makes the transform commute with evolution at machine
precision instead of O(h).  An absent field is a zero field: V, the link
phases and the node samples of A are always arrays, read by one formula.

Phases are local values in (-pi*hbar, pi*hbar]; phase gradients difference
neighbouring nodes and rewrap to the nearest branch, and winding numbers
come from sums of those increments along a closed loop.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .grids import (ConfigGrid, ParticleSystem, _shift, _wall_ends,
                    density_floor, gradient, nearest_image)

if TYPE_CHECKING:
    import scipy.sparse as sp

# relative residual and squared-norm change a Crank-Nicolson step may have
CN_TOL = 1e-9
# the bytes of psi whose `_evolve_rows` rows, or whose flow tables
# (`stochastic._flow_tables`), are computed together; a block holds at least
# one state
ROW_BLOCK_BYTES = 64 * 1024
# `hamilton_residuals` skips nodes whose density is below this fraction of
# the peak
RESIDUAL_FLOOR_REL = 1e-8


class SafeguardError(RuntimeError):
    """A numerical safeguard stopped a computation whose result it could not
    vouch for (a Crank-Nicolson step off tolerance, too many escaped
    walkers)."""


# ---------------------------------------------------------------------------
# states and potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WaveState:
    grid: ConfigGrid
    psi: np.ndarray
    time: float = 0.0
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        psi = np.ascontiguousarray(self.psi, dtype=complex)
        if psi.shape != self.grid.shape:
            raise ValueError(f"psi shape {psi.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(psi.view(float))):
            raise ValueError("psi contains non-finite entries")
        n = np.vdot(psi, psi).real * self.grid.cell_volume
        if n <= 0:
            raise ValueError("psi is identically zero")
        psi = psi / np.sqrt(n)
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)

    @property
    def rho(self) -> np.ndarray:
        return (self.psi.real**2 + self.psi.imag**2)


def gaussian_packet(grid: ConfigGrid, center, sigma,
                    momentum=0.0) -> WaveState:
    """Gaussian wave packet at time 0 (hbar = 1); `sigma` is the density
    standard deviation."""
    dim = grid.dim
    center = np.broadcast_to(np.atleast_1d(np.asarray(center, float)), (dim,))
    sigma = np.broadcast_to(np.atleast_1d(np.asarray(sigma, float)), (dim,))
    momentum = np.broadcast_to(np.atleast_1d(np.asarray(momentum, float)), (dim,))
    log_env = np.zeros(grid.shape)
    phase = np.zeros(grid.shape)
    for a in range(dim):
        x = grid.coordinate_array(a)
        dev = x - center[a]
        if grid.periodic[a]:
            dev = nearest_image(dev, grid.extents[a])
        log_env = log_env - dev**2 / (4 * sigma[a] ** 2)
        phase = phase + momentum[a] * x
    return WaveState(grid, np.exp(log_env + 1j * phase))


@dataclass(frozen=True)
class Potentials:
    """Scalar potential at nodes plus gauge data on links, each a finite,
    read-only float array that is zero when not given.

    `link_theta[a]` is the hopping phase angle on the bond from node i to
    i + e_a; `vector_a_nodes[a]` keeps plain node samples of A for drift and
    residual formulas.  `hamiltonian` is the lattice Hamiltonian of these
    potentials, built once and read-only.
    """

    grid: ConfigGrid
    system: ParticleSystem
    scalar_v: np.ndarray | None = None
    link_theta: np.ndarray | None = None
    vector_a_nodes: np.ndarray | None = None

    def __post_init__(self):
        node = self.grid.shape
        link = (self.grid.dim,) + node
        for name, shape in (("scalar_v", node), ("link_theta", link),
                            ("vector_a_nodes", link)):
            given = getattr(self, name)
            arr = np.ascontiguousarray(
                np.zeros(shape) if given is None else given, dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} has non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @functools.cached_property
    def hamiltonian(self) -> sp.csr_matrix:
        H = hamiltonian_matrix(self)
        for arr in (H.data, H.indices, H.indptr):
            arr.setflags(write=False)
        return H


def _eval_on_mesh(spec, grid: ConfigGrid, axis_shift: int | None = None):
    """Evaluate a number/array/callable spec on the node mesh, or on the bond
    midpoints of `axis_shift` when given."""
    mesh = grid.meshgrid()
    if axis_shift is not None:
        mesh = list(mesh)
        mesh[axis_shift] = mesh[axis_shift] + grid.spacing[axis_shift] / 2
    if callable(spec):
        return np.broadcast_to(np.asarray(spec(*mesh), dtype=float), grid.shape).copy()
    if np.isscalar(spec):
        return np.full(grid.shape, float(spec))
    arr = np.asarray(spec, dtype=float)
    if arr.shape != grid.shape:
        raise ValueError("potential sample array does not match the grid")
    return arr.copy()


def build_potentials(grid: ConfigGrid, system: ParticleSystem, scalar_v=0.0,
                     vector_a: Sequence | None = None) -> Potentials:
    """Assemble Potentials from specs; what is not given is zero.

    `scalar_v` is a number, a node-sample array or a callable of the mesh
    coordinates.  `vector_a[a]`, the vector-potential component along grid
    axis `a`, is a number or a callable; link phases sample it at the bond
    midpoint.
    """
    v = _eval_on_mesh(scalar_v, grid)
    if vector_a is None:
        return Potentials(grid, system, v)
    if len(vector_a) != grid.dim:
        raise ValueError("vector_a needs one spec per grid axis")
    for a, spec in enumerate(vector_a):
        if not (callable(spec) or np.isscalar(spec)):
            raise ValueError(f"vector_a[{a}] must be a number or a callable, "
                             f"got {type(spec).__name__}")
    beta, h = system.beta_per_axis, grid.spacing
    theta = [beta[a] * _eval_on_mesh(spec, grid, axis_shift=a) * h[a]
             for a, spec in enumerate(vector_a)]
    a_nodes = [_eval_on_mesh(spec, grid) for spec in vector_a]
    return Potentials(grid, system, v, theta, a_nodes)


# ---------------------------------------------------------------------------
# Hamiltonian and Crank-Nicolson stepping
# ---------------------------------------------------------------------------

def hamiltonian_matrix(pot: Potentials) -> sp.csr_matrix:
    """Sparse covariant Hamiltonian: hopping with link phases, hard walls on
    non-periodic axes, scalar potential on the diagonal.  A fresh matrix on
    every call; `pot.hamiltonian` is the shared one."""
    import scipy.sparse as sp

    grid = pot.grid
    system = pot.system
    size = grid.size
    flat = np.arange(size).reshape(grid.shape)
    hbar = system.hbar
    masses = system.mass_per_axis
    diag = np.zeros(size, dtype=complex)
    row_parts, col_parts, val_parts = [], [], []
    for a in range(grid.dim):
        h = grid.spacing[a]
        coeff = hbar**2 / (2 * masses[a] * h**2)
        diag += 2 * coeff
        phase = np.exp(-1j * pot.link_theta[a])
        # the neighbour across the bond; -1 past a hard wall: no bond
        nb = _shift(flat + 1, a, +1, grid.periodic[a]) - 1
        bonds = nb >= 0
        src, dst, ph = flat[bonds], nb[bonds], phase[bonds]
        row_parts += [src, dst]
        col_parts += [dst, src]
        val_parts += [-coeff * ph, -coeff * np.conj(ph)]
    H = sp.coo_matrix(
        (np.concatenate(val_parts),
         (np.concatenate(row_parts), np.concatenate(col_parts))),
        shape=(size, size), dtype=complex).tocsr()
    H = H + sp.diags(diag + pot.scalar_v.ravel())
    return H.tocsr()


def free_potentials(grid: ConfigGrid, system: ParticleSystem) -> Potentials:
    return Potentials(grid, system)


def energy(state: WaveState, pot: Potentials) -> float:
    hpsi = pot.hamiltonian @ state.psi.ravel()
    val = np.vdot(state.psi, hpsi) * state.grid.cell_volume
    return float(val.real)


def _energies(pot: Potentials, psi: np.ndarray) -> np.ndarray:
    """`energy` of each state of a stack, shaped (B,) + grid shape, with
    its bits.

    One sparse product serves the stack: H times the C-contiguous (n, B)
    array of its columns, which gives each column the bits of H @ psi.
    Each scalar product then reads two contiguous rows, as for one state.
    """
    flat = psi.reshape(len(psi), -1)
    columns = np.ascontiguousarray(flat.T)
    hpsi = np.ascontiguousarray((pot.hamiltonian @ columns).T)
    vol = pot.grid.cell_volume
    return np.array([(np.vdot(x, hx) * vol).real
                     for x, hx in zip(flat, hpsi)])


def _axis_hamiltonians(H: sp.csr_matrix,
                       shape: tuple[int, ...]) -> list[np.ndarray] | None:
    """Dense real per-axis Hamiltonians K_a whose Kronecker sum is H, or
    None when H does not split that way.

    K_a is read from H itself: its block on the line of nodes through node 0
    along axis a, which is the axis' own term plus the other axes' terms at
    node 0.  Every block holds H[0, 0] on its diagonal, so it is taken off
    every block but the first.  The split is accepted when every block is
    real and the Kronecker sum reproduces H to within 1e-12 of its largest
    entry, which a scalar potential that couples axes or a gauge field with
    curl does not.  A block with hopping phases (any vector potential) is
    left to the sparse LU.
    """
    import scipy.sparse as sp

    blocks, kron_sum = [], sp.csr_matrix(H.shape)
    for a, n in enumerate(shape):
        before, after = int(np.prod(shape[:a])), int(np.prod(shape[a + 1:]))
        line = after * np.arange(n)
        block = H[line][:, line].toarray()
        if np.any(block.imag):
            return None
        K = block.real.copy()
        if a:
            K -= H[0, 0].real * np.eye(n)
        blocks.append(K)
        kron_sum = kron_sum + sp.kron(
            sp.kron(sp.identity(before), K), sp.identity(after), format="csr")
    if abs(kron_sum - H).max() > 1e-12 * abs(H).max():
        return None
    return blocks


def _along_axes(mats: Sequence[np.ndarray], x: np.ndarray,
                roll: tuple[int, int]) -> np.ndarray:
    """Apply each matrix of `mats` in turn to the leading axis of `x`,
    moving the grid axes by `roll` (an np.moveaxis source and destination)
    between two products.

    `x` holds the grid axes first and may carry one trailing axis that no
    matrix touches (the real and imaginary parts of a complex array viewed
    as floats).  Each product is one matrix product on the leading axis;
    each move is one copy.
    """
    for k, m in enumerate(mats):
        if k:
            x = np.moveaxis(x, *roll)
        x = (m @ x.reshape(m.shape[1], -1)).reshape(x.shape)
    return x


class CrankNicolson:
    """(1 + i dt H / 2 hbar) psi' = (1 - i dt H / 2 hbar) psi.

    The propagator is a Cayley transform of a Hermitian matrix, so the step
    is norm-preserving.  It is solved one of two ways, chosen by the
    Hamiltonian alone:

    * on a grid of two or more axes whose H is a Kronecker sum of real
      per-axis Hamiltonians (no vector potential, no scalar potential that
      couples axes), in their eigenmodes: with H = U diag(lambda) U^T and U
      the Kronecker product of the real per-axis eigenvectors,
      psi' = U (m * U^T psi) with the multiplier
      m = (1 - i theta) / (1 + i theta) = exp(-2i arctan theta),
      theta = dt lambda / 2 hbar, applied one axis at a time (the fast
      diagonalization of Lynch, Rice and Thomas).  The solver keeps the
      coefficients m * U^T psi of the state it last returned, which is
      read-only, so stepping that state again skips U^T; any other psi
      goes into modes first;
    * otherwise by one sparse LU of the left-hand side, ordered by minimum
      degree on A + A^T.  On a 1-D grid A is tridiagonal, so the LU has no
      fill and beats any dense transform.

    Either way every step checks the residual of its result against the
    sparse left-hand side, relative to the right-hand side, and its
    relative change of the squared norm, against `CN_TOL`: with a huge step
    the residual can pass while the norm is lost, and a non-finite result
    fails both.  A step so large that dt H overflows is refused before
    either set-up.  `step` returns a read-only array.
    """

    def __init__(self, pot: Potentials, dt: float):
        import scipy.sparse as sp

        if dt == 0:
            raise ValueError("dt must be nonzero")
        self.max_residual = 0.0
        H = pot.hamiltonian
        z = 1j * dt / (2 * pot.system.hbar)
        eye = sp.identity(pot.grid.size, dtype=complex, format="csr")
        with np.errstate(over="ignore", invalid="ignore"):
            zh = z * H
        self._A = (eye + zh).tocsc()
        self._B = (eye - zh).tocsr()
        if not np.all(np.isfinite(self._A.data)):
            raise SafeguardError(
                f"Crank-Nicolson factor overflows at dt = {dt:g}")
        blocks = (_axis_hamiltonians(H, pot.grid.shape)
                  if pot.grid.dim > 1 else None)
        if blocks is None:
            import scipy.sparse.linalg as spla

            # minimum degree on A + A^T: A is structurally symmetric, and on
            # a 2-D lattice this leaves about half of COLAMD's fill
            self._lu = spla.splu(self._A, permc_spec="MMD_AT_PLUS_A")
            return
        self._lu = None
        modes = [np.linalg.eigh(K) for K in blocks]
        lam = functools.reduce(np.add.outer, [w for w, _ in modes])
        # eigh's vectors are orthonormal to a few ulp, with an error of one
        # sign that a long run accumulates in the norm; one Newton-Schulz
        # step, U (3 - U^T U) / 2, takes them to roundoff
        vecs = [U @ (1.5 * np.eye(len(U)) - 0.5 * (U.T @ U)) for _, U in modes]
        # into modes axis by axis, rolling the axes left between products,
        # leaves the last axis first; the multiplier is kept in that order,
        # and the way back goes through the axes in reverse, rolling right
        self._shape = pot.grid.shape
        # (1 - i theta) / (1 + i theta) as a pure phase: a run that stays in
        # modes multiplies by it every step, and the quotient's rounding of
        # |m| would drift the norm
        theta = dt * lam / (2 * pot.system.hbar)
        self._mult = np.ascontiguousarray(
            np.moveaxis(np.exp(-2j * np.arctan(theta)), -1, 0))
        self._into_modes = [U.T.copy() for U in vecs]
        self._from_modes = vecs[::-1]
        # the state `step` last returned and its mode coefficients
        self._last = self._coeffs = None

    def _mode_step(self, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """U (m * c) flattened, and m * c, with c = U^T psi or, when `psi`
        is the state this solver last returned, the coefficients kept with
        it.  U is real, so each product acts on the float view of its
        operand, the real and imaginary parts at once."""
        last = len(self._shape) - 1
        view = lambda x: x.view(float).reshape(x.shape + (2,))
        if psi is self._last:
            c = self._coeffs
        else:
            psi = np.ascontiguousarray(psi).reshape(self._shape)
            c = _along_axes(self._into_modes, view(psi), (0, last))
            c = c.view(complex)[..., 0]
        c = c * self._mult
        out = _along_axes(self._from_modes, view(c), (last, 0))
        return out.view(complex).ravel(), c

    def step(self, psi: np.ndarray) -> np.ndarray:
        """The state one step after `psi`, read-only."""
        b = self._B @ psi.ravel()
        if self._lu is not None:
            out = self._lu.solve(b)
        else:
            out, coeffs = self._mode_step(psi)
        resid = np.max(np.abs(self._A @ out - b))
        scale = max(np.max(np.abs(b)), 1e-300)
        self.max_residual = max(self.max_residual, resid / scale)
        # written so that a NaN fails them too
        if not resid / scale <= CN_TOL:
            raise SafeguardError(
                f"Crank-Nicolson solve residual {resid / scale:.3e} exceeds "
                f"tolerance {CN_TOL:.3e}")
        before, after = np.vdot(psi, psi).real, np.vdot(out, out).real
        if not abs(after - before) <= CN_TOL * before:
            raise SafeguardError(
                f"Crank-Nicolson step changed the squared norm by "
                f"{abs(after - before) / before:.3e}, beyond tolerance "
                f"{CN_TOL:.3e}")
        out = out.reshape(psi.shape)
        out.setflags(write=False)
        if self._lu is None:
            coeffs.setflags(write=False)
            self._last, self._coeffs = out, coeffs
        return out


def _cn_steps(state: WaveState, pot: Potentials, dt: float, steps: int):
    """The Crank-Nicolson loop: after each step, yield (psi, time, largest
    residual so far), psi the solver's read-only, unnormalized result."""
    cn = CrankNicolson(pot, dt)
    psi, t = state.psi, state.time
    for _ in range(steps):
        psi = cn.step(psi)
        t += dt
        yield psi, t, cn.max_residual


def _raw_norm(grid: ConfigGrid, psi: np.ndarray) -> float:
    """The norm of a stepped psi before `WaveState` normalizes it."""
    return float(np.vdot(psi, psi).real * grid.cell_volume)


def _stepped_state(grid: ConfigGrid, psi: np.ndarray, t: float,
                   residual: float) -> WaveState:
    return WaveState(grid, psi, time=t, meta={
        "cn_residual": residual, "raw_norm": _raw_norm(grid, psi)})


def evolve(state: WaveState, pot: Potentials, dt: float,
           steps: int) -> WaveState:
    """Advance `steps` Crank-Nicolson steps of size `dt`."""
    last = (state.psi, state.time, 0.0)
    for last in _cn_steps(state, pot, dt, steps):
        pass
    return _stepped_state(state.grid, *last)


class _Timeline:
    """`state`, then the state after each of `steps` Crank-Nicolson steps,
    each computed as it is read: the states of `evolve_trajectory` without
    the list.  len() is their count.  Each state whose index is in `keep`
    stays in `kept` (index -> state); the others are freed once their
    reader lets go of them, so memory stays flat in the step count.  Each
    pass over it steps the run afresh, with the same bits."""

    def __init__(self, state: WaveState, pot: Potentials, dt: float,
                 steps: int, keep=()):
        self._run = (state, pot, dt, steps)
        self.keep = keep
        self.kept = {}

    def __len__(self) -> int:
        return self._run[3] + 1

    def __iter__(self):
        state = self._run[0]
        stepped = (_stepped_state(state.grid, *s)
                   for s in _cn_steps(*self._run))
        for i, s in enumerate(itertools.chain([state], stepped)):
            if i in self.keep:
                self.kept[i] = s
            yield s


def evolve_trajectory(state: WaveState, pot: Potentials, dt: float,
                      steps: int) -> list[WaveState]:
    """`state`, then the state after each of `steps` Crank-Nicolson steps,
    as a list, for callers that index the timeline or walk it more than
    once."""
    return list(_Timeline(state, pot, dt, steps))


def position_moments(state: WaveState) -> dict:
    """Mean and width of the density per axis (see `_moments`)."""
    means, widths = _moments(state.grid, state.psi[None])
    return {"mean": means[0].tolist(), "width": widths[0].tolist()}


def _moments(grid: ConfigGrid, psi: np.ndarray) -> tuple[np.ndarray, ...]:
    """Means and widths of the densities of a stack of states, shaped
    (B,) + grid shape, as two (B, dim) arrays.

    Periodic axes use the circular mean and moments of the wrapped deviation,
    so a packet drifting through the seam keeps sensible statistics.  The
    coordinates and ring phasors are the grid's, computed once per grid.
    Each sum runs over one state's flattened grid, as for a lone state.
    """
    rho = psi.real**2 + psi.imag**2
    vol = grid.cell_volume
    col = (-1,) + (1,) * grid.dim
    total = lambda f: np.sum(f.reshape(len(f), -1), axis=1) * vol
    means, widths = [], []
    for a, (x, phasor) in enumerate(zip(grid.coordinates, grid.ring_phasors)):
        if grid.periodic[a]:
            L = grid.extents[a]
            mean_ang = np.angle(total(rho * phasor)) % (2 * np.pi)
            mean = grid.origin[a] + L * mean_ang / (2 * np.pi)
            dev = nearest_image(x - mean.reshape(col), L)
            correction = total(rho * dev)
            var = total(rho * (dev - correction.reshape(col)) ** 2)
            means.append(mean + correction)
        else:
            mean = total(rho * x)
            var = total(rho * (x - mean.reshape(col)) ** 2)
            means.append(mean)
        widths.append(np.sqrt(np.maximum(var, 0.0)))
    return np.stack(means, axis=1), np.stack(widths, axis=1)


def _evolve_rows(state: WaveState, pot: Potentials, dt: float, steps: int,
                 keep: set) -> tuple[list[list], list[WaveState]]:
    """The rows of `state` and of the state after each of `steps`
    Crank-Nicolson steps, and the states whose index is in `keep`.

    A row is (time, |raw norm - 1|, energy, largest residual so far), then
    the mean and width of each axis: the bits that `energy`,
    `position_moments` and the `meta` of `evolve_trajectory`'s states give.
    The stepped states are taken a block of at most `ROW_BLOCK_BYTES` of
    psi at a time, normalized together and their rows computed together; a
    `WaveState` is built only for each kept state, and nothing else of the
    pass outlives it.
    """
    grid = state.grid

    def rows(psi, times, raw_norms, residuals):
        means, widths = _moments(grid, psi)
        cols = np.stack([means, widths], axis=2).reshape(len(psi), -1)
        return [[t, abs(n - 1.0), e, r, *c] for t, n, e, r, c in zip(
            times, raw_norms, _energies(pot, psi).tolist(), residuals,
            cols.tolist())]

    out = rows(state.psi[None], [state.time],
               [state.meta.get("raw_norm", 1.0)],
               [state.meta.get("cn_residual", 0.0)])
    kept = [state] if 0 in keep else []
    per_block = max(1, ROW_BLOCK_BYTES // state.psi.nbytes)
    stream = enumerate(_cn_steps(state, pot, dt, steps), start=1)
    while block := list(itertools.islice(stream, per_block)):
        psis, times, residuals = zip(*(s for _, s in block))
        norms = [_raw_norm(grid, p) for p in psis]
        psi = np.stack(psis)
        psi /= np.sqrt(norms).reshape((-1,) + (1,) * grid.dim)
        out += rows(psi, times, norms, residuals)
        kept += [_stepped_state(grid, *s) for i, s in block if i in keep]
    return out, kept


# ---------------------------------------------------------------------------
# Madelung variables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MadelungPair:
    """Density and phase node arrays, the phase stored modulo 2*pi*hbar.

    Phase-derived quantities are meaningful only where rho clears the
    support floor (`grids.density_floor`).  The arrays have the grid's
    shape, or a leading axis of stacked states before it (`madelung`).
    """

    grid: ConfigGrid
    rho: np.ndarray
    phi: np.ndarray
    hbar: float


def _psi_stack(states: Sequence[WaveState]) -> np.ndarray:
    """The psi of states of one grid stacked along a leading axis: a view
    of a lone state's psi, a copy of several."""
    if len(states) == 1:
        return states[0].psi[None]
    return np.stack([s.psi for s in states])


def madelung(state: WaveState | Sequence[WaveState],
             hbar: float) -> MadelungPair:
    """The (rho, phase) pair of a state, or of a sequence of states of one
    grid stacked along a leading axis, each row with its own state's bits."""
    if isinstance(state, WaveState):
        grid, psi = state.grid, state.psi
    else:
        grid, psi = state[0].grid, _psi_stack(state)
    return MadelungPair(grid, psi.real**2 + psi.imag**2,
                        hbar * np.angle(psi), hbar)


def _wrap_branch(dphi: np.ndarray, hbar: float) -> np.ndarray:
    """Rewrap phase differences to the nearest branch in (-pi*hbar, pi*hbar]."""
    period = 2 * np.pi * hbar
    return dphi - period * np.round(dphi / period)


def phase_gradient(pair: MadelungPair, axis: int) -> np.ndarray:
    """Unwrapped phase derivative along one grid axis: nearest-branch bond
    differences of phi, averaged onto nodes (one-sided at hard walls).  The
    grid's axes are the trailing axes of the pair's arrays."""
    grid = pair.grid
    h = grid.spacing[axis]
    phi = pair.phi
    per = grid.periodic[axis]
    ax = axis - grid.dim
    fwd = _wrap_branch(_shift(phi, ax, +1, per) - phi, pair.hbar) / h
    out = 0.5 * (fwd + _shift(fwd, ax, -1, per))
    if not per:
        _wall_ends(out, np.take(fwd, [0, -2], ax), ax)
    return out


def quantum_potential(grid: ConfigGrid, rho: np.ndarray,
                      system: ParticleSystem) -> np.ndarray:
    """Q = - sum_A (hbar^2 / 2 m_A) (d^2_A sqrt(rho)) / sqrt(rho) at the
    nodes.

    Masked (set to zero) where rho is below the support floor.
    """
    amp = np.sqrt(np.maximum(rho, 0.0))
    mask = rho > density_floor(rho)
    out = np.zeros(grid.shape)
    hbar = system.hbar
    masses = system.mass_per_axis
    for a in range(grid.dim):
        h = grid.spacing[a]
        per = grid.periodic[a]
        d2 = (_shift(amp, a, +1, per) - 2 * amp + _shift(amp, a, -1, per)) / h**2
        out = out - hbar**2 / (2 * masses[a]) * d2
    return np.where(mask, out / np.where(mask, amp, 1.0), 0.0)


def hamilton_residuals(state: WaveState, pot: Potentials, dt: float) -> dict:
    """Defects of the continuity and phase (Hamilton-Jacobi) equations.

    Time derivatives are centred: one Crank-Nicolson step forward and one
    backward around the state.  Both residuals are masked where rho is below
    `RESIDUAL_FLOOR_REL` times its maximum, which also covers the quantum
    potential's own, lower floor.
    """
    grid = state.grid
    system = pot.system
    hbar = system.hbar
    fwd = evolve(state, pot, dt, 1)
    bwd = evolve(state, pot, -dt, 1)
    rho_dot = (fwd.rho - bwd.rho) / (2 * dt)
    phi_dot = hbar * np.angle(fwd.psi * np.conj(bwd.psi)) / (2 * dt)

    pair = madelung(state, hbar=hbar)
    rho = pair.rho
    mask = rho > density_floor(rho, RESIDUAL_FLOOR_REL)

    masses = system.mass_per_axis
    beta = system.beta_per_axis
    kin = np.zeros(grid.shape)
    div_current = np.zeros(grid.shape)
    for a in range(grid.dim):
        mom = phase_gradient(pair, a) - hbar * beta[a] * pot.vector_a_nodes[a]
        vel = mom / masses[a]
        kin += mom * vel / 2
        div_current += gradient(grid, rho * vel, a)
    qpot = quantum_potential(grid, rho, system)
    r_rho_field = rho_dot + div_current
    r_phi_field = phi_dot + kin + qpot + pot.scalar_v
    r_rho = float(np.max(np.abs(np.where(mask, r_rho_field, 0.0))))
    r_phi = float(np.max(np.abs(np.where(mask, r_phi_field, 0.0))))
    return {
        "r_rho": r_rho,
        "r_phi": r_phi,
        "masked_fraction": float(1.0 - mask.mean()),
        "mask_warning": bool((1.0 - mask.mean()) > 0.2),
    }


# ---------------------------------------------------------------------------
# discrete symmetries
# ---------------------------------------------------------------------------

def time_reverse(state: WaveState) -> WaveState:
    return WaveState(state.grid, np.conj(state.psi), time=-state.time)


def reverse_potentials(pot: Potentials) -> Potentials:
    """V -> V, A -> -A.  The new potentials build their own Hamiltonian, the
    complex conjugate of the original one."""
    return Potentials(pot.grid, pot.system, pot.scalar_v, -pot.link_theta,
                      -pot.vector_a_nodes)


def gauge_transform(state: WaveState, pot: Potentials,
                    chi) -> tuple[WaveState, Potentials]:
    """Apply chi: psi gets the phase exp(i sum_n beta_n chi(x_n)); the link
    phases get exact endpoint differences of chi, and node samples of A get
    the central-difference gradient.

    `chi` is a callable of the mesh coordinates, evaluated per particle when
    several share the physical space: once at the nodes per particle, and
    once a step h ahead and once behind per axis.  It may be multivalued
    (winding on a ring): the bond crossing the seam is evaluated by
    continuing past the edge.
    """
    if not callable(chi):
        raise TypeError("chi must be a callable of the mesh coordinates, "
                        f"got {type(chi).__name__}")
    grid = state.grid
    system = pot.system
    mesh = grid.meshgrid()
    axes_of = [[a for a, (pn, _) in enumerate(system.axis_map) if pn == n]
               for n in range(system.n_particles)]

    def chi_of(n, axis=None, dx=0.0):
        """chi of particle n at the nodes, or moved by dx along `axis`."""
        coords = [mesh[a] + dx if a == axis else mesh[a] for a in axes_of[n]]
        return np.broadcast_to(np.asarray(chi(*coords), float), grid.shape)

    chi_nodes = [chi_of(n) if axes_of[n] else np.zeros(grid.shape)
                 for n in range(system.n_particles)]
    phase = np.zeros(grid.shape)
    for b, cn in zip(system.beta, chi_nodes):
        phase = phase + b * cn
    new_psi = state.psi * np.exp(1j * phase)

    # exact bond increments of chi per axis
    dim = grid.dim
    dchi_bond = np.zeros((dim,) + grid.shape)
    dchi_nodes = np.zeros((dim,) + grid.shape)
    for a in range(dim):
        h = grid.spacing[a]
        n = system.axis_map[a][0]
        there, back = chi_of(n, a, h), chi_of(n, a, -h)
        dchi_bond[a] = there - chi_nodes[n]
        dchi_nodes[a] = (there - back) / (2 * h)

    beta_axis = system.beta_per_axis.reshape((-1,) + (1,) * dim)
    new_pot = Potentials(grid, system, pot.scalar_v,
                         pot.link_theta + beta_axis * dchi_bond,
                         pot.vector_a_nodes + dchi_nodes)
    return WaveState(grid, new_psi, time=state.time), new_pot


def charge_quantization_check(system: ParticleSystem,
                              chi_winding: float) -> dict:
    """Is exp(i beta_n chi) single-valued for every particle?

    chi_winding is the increment of chi around the loop; the condition is
    beta_n * chi_winding = 2 pi * integer, to a relative 1e-9.
    """
    per_particle = []
    ok = True
    for n, b in enumerate(system.beta):
        d = b * chi_winding / (2 * np.pi)
        deficit = abs(d - round(d))
        passed = deficit <= 1e-9 * max(1.0, abs(d))
        ok = ok and passed
        per_particle.append({"particle": n, "deficit": deficit,
                             "pass": passed})
    return {"per_particle": per_particle, "verdict": ok}


# ---------------------------------------------------------------------------
# superposition and winding
# ---------------------------------------------------------------------------

def superpose(a1: complex, s1: WaveState, a2: complex, s2: WaveState) -> WaveState:
    if s1.grid != s2.grid:
        raise ValueError("states live on different grids")
    psi = a1 * s1.psi + a2 * s2.psi
    n = np.vdot(psi, psi).real * s1.grid.cell_volume
    if n < 1e-24:
        raise ValueError("superposition is identically zero")
    return WaveState(s1.grid, psi, time=s1.time)


def winding_number(state: WaveState, loop: Sequence[tuple]) -> dict:
    """Winding of the phase along a closed lattice loop.

    The raw value is the sum of nearest-branch phase increments; `gap` is
    its distance from the nearest integer multiple of 2*pi (in turns).
    `max_increment` near pi means the loop is under-resolved.
    """
    grid = state.grid
    nodes = [tuple(int(i) for i in p) for p in loop]
    if nodes[0] != nodes[-1]:
        raise ValueError("loop is not closed")
    psi = state.psi
    rho = state.rho
    floor = density_floor(rho)
    node_hit = any(rho[p] <= floor for p in nodes)
    total = 0.0
    max_inc = 0.0
    for p, q in zip(nodes[:-1], nodes[1:]):
        inc = float(np.angle(psi[q] * np.conj(psi[p])))
        total += inc
        max_inc = max(max_inc, abs(inc))
    integer = int(np.round(total / (2 * np.pi)))
    gap = abs(total / (2 * np.pi) - integer)
    return {
        "integer": integer,
        "raw": total,
        "gap": gap,
        "max_increment": max_inc,
        "node_on_loop": bool(node_hit),
        "under_resolved": bool(max_inc > 0.9 * np.pi),
    }
