"""Trajectory sampling for the sub-quantum processes.

There is one step rule, `_Walk.step`: a predictor half-step on the drift
of the departure state, the corrector drift on the average of the departure
and arrival states, and a move by that drift plus, for an ensemble, a
Gaussian fluctuation with the per-axis variance of
`ParticleSystem.step_variances`.  Deterministic (Bohmian) paths are the
sampled process of gamma = 3 at eta = 0, its eta -> 0 limit: the same step
on the current velocity, with a fluctuation of zero variance.  For every
gamma the drift is the current velocity (grad Phi - A) / m plus the
osmotic term D grad log rho, with the law's D = eta dt^(gamma - 1) / 2 m
(`ParticleSystem.diffusion`), so the Fokker-Planck current equals the
quantum current and the ensemble keeps tracking rho.

Each fact of a run has one source: the `ParticleSystem` gives eta and
gamma, and the timeline of wave states gives the step dt, its uniform
spacing, the step of entropic time.

Drift values come from current-ratio interpolation: the smooth pair
(rho * v, rho) is interpolated and divided at the walker position, which
behaves near density nodes where v itself spikes; see the flow-table block
below.  Randomness: a master seed feeds a SeedSequence; independent children
drive the initial draw and the per-step noise (counter-based Philox
streams), so a run is bit-reproducible for fixed (seed, walkers, timeline).
The noise of a walk comes from its one generator in step order: one
standard normal fill per step, scaled by each block's deviation.
From NOISE_THREAD_WALKERS walkers on, a helper thread draws step k + 1's
noise while step k runs (the fill releases the GIL); below, each step draws
its own.  Both ways draw the same bits.  At 1e5 walkers on a 2-core x86-64
box the overlap takes a walk from about 1.0 s to 0.7 s, at 1.6 CPU
seconds per wall second (BENCH_34.json).  The helper's
`concurrent.futures` is imported only when a run has that many walkers.

Periodic coordinates wrap by one rule, `grids.mod_period`: a masked add or
subtract of the period, with an np.mod fallback for values more than one
period outside the box.  The arithmetic of the lookup and of the table
blend is that of the plain np.mod formulation of the step, so positions,
drifts and escape counts are byte-identical to it.

A walk is one object, `_Walk`: R blocks of walkers over a stream of
run-stacked flow tables of shape (k, R, *nodes), streamed through two
padded slots (it builds the table of state k + 1 at step k), its lookup
and step buffers, its positions, noise, alive mask and per-block escape
counts.  A walker of block r reads its own block of the table through a
flat offset.  Every block is a sampled run.  A step looks up and moves
the walkers a batch of at most WALKER_BATCH at a time, so the lookup and
step buffers, allocated once, hold one batch.  `simulate_ensemble` steps
a walk of one block, and `bohmian_trajectories` is its run at eta = 0.
`vanishing_noise_deviations` steps the whole limit study as one walk:
block 0 is the eta = 0 run, the Bohmian reference, and one block per eta
follows.  One generator, `_flow_tables`, builds the tables a block of
states at a time, in stacked numpy calls (one batched FFT resample on a
ring, the lattice stencils on trailing axes elsewhere): the rows that do
not depend on eta once for all runs, then every run's block of the table,
with the osmotic term of that run's law.

A walk reads its timeline once, in order, a block of states at a time: a
list, or any iterable of states with a len(), such as `quantum._Timeline`,
whose states are stepped as the walk reads them, so that a walk holds no
state beyond the block of states it is reading.  Every walk is checked on
entry (`_check_run`): the timeline's first spacing is positive, the
systems differ from the potentials' system in eta and gamma only, and
given start positions hold one row per walker with one column per axis;
each later spacing is checked, as its state is read, to be positive and
equal to the first.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Collection, Iterable, NamedTuple, Sequence

import numpy as np

from .grids import (ConfigGrid, ParticleSystem, density_floor, gradient,
                    mod_period, nearest_image, particles_on_line,
                    single_particle)
from .quantum import (ROW_BLOCK_BYTES, MadelungPair, Potentials,
                      SafeguardError, WaveState, _psi_stack, madelung,
                      phase_gradient, quantum_potential)

# resampling factor of the spectral flow tables of 1-D rings
REFINE = 4
# the largest fraction of an ensemble that may escape past a hard wall
MAX_ESCAPE_FRACTION = 0.01
# walkers from which a run draws its noise one step ahead in a helper
# thread; below, the hand-offs between threads cost more than they hide
NOISE_THREAD_WALKERS = 10_000
# the walkers a walk looks up and moves at a time, so that its lookup and
# step buffers hold one batch, not every walker; in a sweep at 1e5 walkers
# on a 2-core x86-64 box (BENCH_34.json) 16,384 and 32,768 read fastest,
# 16,384 with less memory, and 8,192 slowest
WALKER_BATCH = 16_384


def with_eta(system: ParticleSystem, eta: float,
             gamma_exponent: float) -> ParticleSystem:
    return replace(system, eta=eta, gamma_exponent=gamma_exponent)


# ---------------------------------------------------------------------------
# drift fields
# ---------------------------------------------------------------------------

def drift_velocity_field(pair: MadelungPair, pot: Potentials,
                         system: ParticleSystem) -> np.ndarray:
    """Current velocity v_A = (grad_A Phi - hbar beta_A A_A) / m_A, stacked
    over the axes ahead of the pair's shape (a pair of stacked states gives
    shape (dim, states, *nodes)); `_flow_tables` adds the osmotic term to
    it."""
    grid = pair.grid
    masses = system.mass_per_axis
    beta = system.beta_per_axis
    comps = []
    for a in range(grid.dim):
        mom = (phase_gradient(pair, a)
               - system.hbar * beta[a] * pot.vector_a_nodes[a])
        comps.append(mom / masses[a])
    return np.stack(comps)


# ---------------------------------------------------------------------------
# lattice lookup
# ---------------------------------------------------------------------------

def _cell(grid: ConfigGrid, axis: int, n: int, x: np.ndarray,
          upper: np.ndarray, lower: np.ndarray, lo: np.ndarray) -> None:
    """Fill, for each coordinate on an n-node lattice along `axis`, the
    lower node index of its cell and the weights of its upper and lower
    node (the upper node is lo + 1)."""
    if grid.periodic[axis]:
        h = grid.extents[axis] / n
        np.subtract(x, grid.origin[axis], out=upper)
        np.divide(upper, h, out=upper)
        # may round up to n itself: padded node n repeats node 0
        mod_period(upper, n)
        np.floor(upper, out=lower)
    else:
        h = grid.extents[axis] / (n + 1)
        np.subtract(x, grid.origin[axis] + h, out=upper)
        np.divide(upper, h, out=upper)
        np.clip(upper, 0.0, n - 1.0, out=upper)
        np.floor(upper, out=lower)
        np.minimum(lower, n - 2.0, out=lower)
    np.copyto(lo, lower, casting="unsafe")
    np.subtract(upper, lower, out=upper)
    np.subtract(1.0, upper, out=lower)


def interpolate_vector(walk: _Walk, values: np.ndarray,
                       positions: np.ndarray, batch: _Batch) -> np.ndarray:
    """Multilinear interpolation of stacked node tables at walker positions.

    `values` has shape (k, R * padded nodes): one of `walk.slots` or their
    blend, k component tables per block on a lattice over the grid's box,
    laid out by the grid's conventions with `walk.nodes` nodes per axis
    (which may differ from grid.points, e.g. for a refined table).
    `positions` are those of the walkers of `batch`, one of
    `walk.batches`, and the walkers of block r read block r.  Returns
    shape (len(positions), k), a view of `batch.acc`.  Periodic
    axes wrap; non-periodic axes clamp to the node range (constant
    extrapolation past the outermost nodes).
    """
    grid = walk.grid
    upper, lower, lo = batch.upper, batch.lower, batch.lo
    # flat index of each walker's lowest cell corner; the corner with the
    # upper node on the axes `up` sits sum(strides[up]) further on
    base = lo[0]
    for a, n in enumerate(walk.nodes):
        _cell(grid, a, n, positions[:, a], upper[a], lower[a], lo[a])
        if walk.strides[a] > 1:
            lo[a] *= walk.strides[a]
        if a:
            base += lo[a]
    if batch.offsets is not None:
        base += batch.offsets
    # mode="clip" lets take write straight into the buffer (its default
    # gathers into a temporary first); every index is in range already
    acc, tmp = batch.acc, batch.tmp
    for i, up in enumerate(itertools.product((False, True), repeat=grid.dim)):
        offset = sum(s for s, u in zip(walk.strides, up) if u)
        weight = None  # the product of the axis weights, in axis order
        for a, u in enumerate(up):
            w = upper[a] if u else lower[a]
            weight = w if weight is None else np.multiply(weight, w,
                                                          out=batch.weight)
        dest = tmp if i else acc
        values[:, offset:].take(base, axis=1, out=dest, mode="clip")
        dest *= weight
        if i:
            acc += tmp
    return acc.T


# ---------------------------------------------------------------------------
# flow tables: current-ratio drift evaluation
# ---------------------------------------------------------------------------
#
# Interpolating the velocity directly misbehaves near density nodes, where v
# spikes on a sub-cell scale.  The step therefore interpolates the smooth
# pair (rho * v, rho) and divides at the sample point.  A flow table stacks
# it as one array [rho v_0, ..., rho v_{dim-1}, rho] of shape
# (dim + 1, *nodes); a walk of R blocks reads R of them stacked as
# (dim + 1, R, *nodes).
# On 1-D fully periodic grids the pair is first resampled onto a REFINE-times
# finer zero-padded Fourier lattice, which is exact for the band-limited
# solver output.

def _zero_pad_spectrum(spec: np.ndarray) -> np.ndarray:
    """The REFINE-times finer samples of the spectra along the last axis
    of `spec`, one transform for every row."""
    n = spec.shape[-1]
    kpos = (n + 1) // 2
    pad = np.zeros(spec.shape[:-1] + (n * REFINE,), dtype=complex)
    pad[..., :kpos] = spec[..., :kpos]
    pad[..., -(n - kpos):] = spec[..., kpos:]
    out = np.fft.ifft(pad)
    out *= REFINE
    return out


def _flow_tables(states: Iterable[WaveState], pot: Potentials,
                 systems: Sequence[ParticleSystem], dt: float):
    """The run-stacked flow table of every state, one at a time, of shape
    (k, len(systems), *nodes): block r is the table of systems[r], with the
    osmotic term D grad log rho, D = `systems[r].diffusion(dt)`.

    The states are read from their iterator a block at a time, at most
    `ROW_BLOCK_BYTES` of psi (one state at least), and each step of the build
    one stacked numpy call whose every row has the bits of that state's own
    call.  The systems differ in eta and gamma only (`_check_run`), so each
    state's eta-free rows are built once for all runs: on a 1-D ring, on
    the refined lattice, rho v of the current velocity, Re(psi* psi') and
    rho; elsewhere the current velocity (`drift_velocity_field`), grad log
    rho with rho raised to the state's own density floor (when any D > 0)
    and rho.  Each yielded table is a view of its block's own buffer.
    """
    states = iter(states)
    first = next(states)
    grid = first.grid
    states = itertools.chain([first], states)
    system = systems[0]
    coeffs = [run.diffusion(dt) for run in systems]
    per_block = max(1, ROW_BLOCK_BYTES // first.psi.nbytes)
    if grid.dim == 1 and grid.periodic[0]:
        # the potentials are static, so (hbar beta / m) A is resampled onto
        # the refined lattice once for the timeline
        m = system.mass_per_axis[0]
        a_f = _zero_pad_spectrum(np.fft.fft(pot.vector_a_nodes[0])).real
        a_term = (system.hbar * system.beta_per_axis[0] / m) * a_f
        ik = 2j * np.pi * np.fft.fftfreq(grid.points[0], d=grid.spacing[0])

        def tables(block):
            spec = np.fft.fft(_psi_stack(block))
            psi_f, dpsi_f = _zero_pad_spectrum(np.stack([spec, spec * ik]))
            cross = np.conj(psi_f) * dpsi_f
            rho = np.abs(psi_f) ** 2
            num = (system.hbar / m) * cross.imag - a_term * rho
            out = np.empty((len(block), 2, len(systems)) + rho.shape[1:])
            out[:, 1] = rho[:, None]
            for r, d in enumerate(coeffs):
                if d[0]:
                    # rho D grad log rho = D grad rho, and
                    # grad rho = 2 Re(psi* psi') needs no extra transform
                    np.add(num, (2 * d[0]) * cross.real, out=out[:, 0, r])
                else:
                    out[:, 0, r] = num
            return out
    else:
        def tables(block):
            pair = madelung(block, hbar=system.hbar)
            v = drift_velocity_field(pair, pot, system)
            rho = pair.rho
            if np.any(coeffs):
                floors = np.array([density_floor(row) for row in rho])
                log_rho = np.log(np.maximum(
                    rho, floors.reshape((-1,) + (1,) * grid.dim)))
                dlog = [gradient(grid, log_rho, a) for a in range(grid.dim)]
            out = np.empty((len(block), len(v) + 1, len(systems))
                           + rho.shape[1:])
            out[:, -1] = rho[:, None]
            for r, d in enumerate(coeffs):
                for a, va in enumerate(v):
                    if d[a]:
                        # the osmotic term D_A grad_A log rho cancels the
                        # diffusive flux of the step's fluctuation
                        va = va + d[a] * dlog[a]
                    np.multiply(rho, va, out=out[:, a, r])
            return out
    # a block's intermediates are freed when `tables` returns; its output
    # lives while a table of it is held
    while block := list(itertools.islice(states, per_block)):
        yield from tables(block)


def _ratio_drift(walk: _Walk, table: np.ndarray, floor: float,
                 positions: np.ndarray, batch: _Batch) -> np.ndarray:
    """Drift at the positions of the walkers of `batch`, shape (m, dim):
    the interpolated rho v over the interpolated rho, raised to `floor`,
    the table's density floor; a view of `batch.acc`."""
    interpolate_vector(walk, table, positions, batch)
    acc = batch.acc
    den = acc[-1]
    np.maximum(den, floor, out=den)
    np.divide(acc[:-1], den, out=acc[:-1])
    return acc[:-1].T


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ensemble:
    """Recorded walker history.

    positions has shape (n_records, walkers, dim) at times `times`;
    velocities/drifts (present when velocity recording is on) hold the
    per-step displacement velocity and the frozen drift at the departure
    point, shape (steps, walkers, dim).  dt is the timeline's spacing, the
    step of entropic time.
    """

    grid: ConfigGrid
    system: ParticleSystem
    dt: float
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray | None
    drifts: np.ndarray | None
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


@contextmanager
def _noise_stream(seed: int, variances: np.ndarray, shape: tuple[int, int],
                  steps: int):
    """The noise of `steps` walker steps at `seed` for the blocks whose
    per-axis variances are the rows of `variances`: per step, one standard
    normal fill of `shape` times each row's sqrt, shape (blocks, *shape),
    drawn in step order from one Philox generator; the initial draw uses
    the other child of the same SeedSequence.  Every block thus gets the
    bits a run of its own at `seed` would draw.

    From NOISE_THREAD_WALKERS walkers on, a helper thread fills step
    k + 1's buffer while the caller runs step k, and the two buffers take
    turns; below, one buffer is filled in the caller's thread.  Each array
    the stream yields is valid until the next one is taken.  The helper
    calls numpy only, and it is joined on every exit from the block.
    """
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed).spawn(2)[1]))
    sig = np.sqrt(variances)
    shape = (len(sig),) + tuple(shape)

    def fill(buf: np.ndarray) -> np.ndarray:
        unit = buf[0]
        rng.standard_normal(out=unit)
        np.multiply(unit, sig[1:, None], out=buf[1:])
        unit *= sig[0]
        return buf

    if shape[1] < NOISE_THREAD_WALKERS:
        buf = np.empty(shape)
        yield (fill(buf) for _ in range(steps))
        return
    from concurrent.futures import ThreadPoolExecutor

    bufs = np.empty((2,) + shape)
    with ThreadPoolExecutor(1, "edsim-noise") as helper:
        def ahead():
            drawn = helper.submit(fill, bufs[0])
            for k in range(steps):
                noise = drawn.result()
                if k + 1 < steps:
                    # the last reader of bufs[(k + 1) % 2], step k - 1, is done
                    drawn = helper.submit(fill, bufs[(k + 1) % 2])
                yield noise
        yield ahead()


class _Batch(NamedTuple):
    """A batch of a walk's walkers: its rows of the positions, the flat
    block offset of each walker (None at R = 1), and the walk's lookup and
    step buffers cut to its size: per axis the upper and lower node weight
    and the lower node index, the weight of one corner of a multi-axis
    cell, the lookup's (k, size) sum and scratch, and the half-step."""
    rows: slice
    offsets: np.ndarray | None
    upper: np.ndarray
    lower: np.ndarray
    lo: np.ndarray
    weight: np.ndarray
    acc: np.ndarray
    tmp: np.ndarray
    half: np.ndarray


class _Walk:
    """One walk: R blocks of m walkers stepped along a stream of run-stacked
    flow tables of shape (k, R, *nodes), block r along its own lattice r.

    `tables` streams the tables: the first is read on construction and
    table k + 1 at step k.  `slots` holds the last two read as
    (2, k, R * padded nodes); `nodes` and `strides` describe the unpadded
    node counts and the padded flat layout of one block per axis.  A walker
    of block r reads its own lattice through the flat offset r * (padded
    nodes) added to its lowest cell corner, an add skipped at R = 1.
    `positions` holds the blocks one after another, shape (R * m, dim).
    A step looks up and moves the walkers a batch of at most `WALKER_BATCH`
    at a time (`batches`), so every temporary of a lookup and of a step
    lives in buffers of one batch, allocated once; results read from them
    (lookups, drifts) are valid until the next call that writes the same
    buffer.  Each table's density floor is taken once, not per batch.

    `noises` is an iterator of per-step arrays of shape (R, m, dim); a
    block at eta = 0 takes zeros, and its walkers follow the deterministic
    paths.  Escaped walkers (hard walls only) are frozen in place and
    counted per block.  Once more than `MAX_ESCAPE_FRACTION` of a block's
    walkers have escaped, `failure` holds its SafeguardError if no earlier
    block has failed; the failure of block 0 is raised at once, and any
    later one by `finish`, as no earlier block may fail after it.
    """

    def __init__(self, grid: ConfigGrid, tables, positions: np.ndarray,
                 noises):
        self.tables = iter(tables)
        first = next(self.tables)
        self.grid = grid
        k, blocks = first.shape[:2]
        self.nodes = first.shape[2:]
        shape = tuple(n + 2 if per else n
                      for n, per in zip(self.nodes, grid.periodic))
        self.strides = [math.prod(shape[a + 1:]) for a in range(grid.dim)]
        self.padded = np.empty((2, k, blocks) + shape)
        self.slots = self.padded.reshape(2, k, -1)
        # the density floor of the table in each slot
        self.floors = [0.0, 0.0]
        self.loaded = 0
        self.load(first)
        n, dim = positions.shape
        m = n // blocks
        # the flat offset of each walker's own block in a slot row
        offsets = (np.repeat(np.arange(blocks) * math.prod(shape), m)
                   if blocks > 1 else None)
        batch = min(n, WALKER_BATCH)
        upper, lower = np.empty((dim, batch)), np.empty((dim, batch))
        lo = np.empty((dim, batch), dtype=np.intp)
        # flat, so that a batch of b walkers reads a contiguous (k, b)
        acc, tmp = np.empty(k * batch), np.empty(k * batch)
        weight, half = np.empty(batch), np.empty((batch, dim))
        self.batches = [
            _Batch(slice(s, s + b),
                   None if offsets is None else offsets[s:s + b],
                   upper[:, :b], lower[:, :b], lo[:, :b], weight[:b],
                   acc[:k * b].reshape(k, b), tmp[:k * b].reshape(k, b),
                   half[:b])
            for s in range(0, n, batch) for b in [min(batch, n - s)]]
        # the blend of two adjacent tables and its scratch
        self.mid = np.empty_like(self.slots)
        self.pos = positions
        self.new = np.empty_like(positions)
        self.noises = noises
        # per block, its alive mask and escape count
        self.alive = np.ones((blocks, m), dtype=bool)
        self.escaped = np.zeros(blocks, dtype=int)
        self.failure = None
        self.failed = blocks

    def load(self, table: np.ndarray) -> None:
        """Copy `table` into the slot of the older of the two and repeat
        nodes 0 and 1 of each periodic axis after its node n - 1, so the two
        nodes of a cell are i0 and i0 + 1 with no integer mod and every
        corner of a cell is a fixed offset from its lowest corner."""
        slot = self.loaded % 2
        out = self.padded[slot]
        out[tuple(slice(0, n) for n in table.shape)] = table
        for a, periodic in enumerate(self.grid.periodic):
            if periodic:
                n = table.shape[a + 2]
                axes = (slice(None),) * (a + 2)
                out[axes + (slice(n, n + 2),)] = out[axes + (slice(0, 2),)]
        self.floors[slot] = density_floor(self.slots[slot][-1])
        self.loaded += 1

    def step(self, k: int, dt: float, drift: np.ndarray | None = None):
        """One midpoint step of length dt from table k to table k + 1.

        Steps run in order k = 0, 1, ..., and step k first loads table
        k + 1.  A predictor half-step on table k, the corrector drift v on
        the average of tables k and k + 1, then new = pos + v dt (+ noise),
        wrapped on periodic axes, a batch of walkers at a time.  Afterwards
        `pos` holds the new positions and `new` the old ones, and `drift`,
        when given, the v of every walker.
        """
        noise = next(self.noises).reshape(self.pos.shape)
        self.load(next(self.tables))
        grid = self.grid
        now, after = self.slots[k % 2], self.slots[(k + 1) % 2]
        mid, scratch = self.mid
        np.multiply(now, 0.5, out=mid)
        np.multiply(after, 0.5, out=scratch)
        np.add(mid, scratch, out=mid)
        floor_now, floor_mid = self.floors[k % 2], density_floor(mid[-1])
        for batch in self.batches:
            rows, half = batch.rows, batch.half
            pos, out = self.pos[rows], self.new[rows]
            v0 = _ratio_drift(self, now, floor_now, pos, batch)
            np.multiply(v0, 0.5 * dt, out=half)
            np.add(pos, half, out=half)
            grid.wrap(half, out=half)
            v = _ratio_drift(self, mid, floor_mid, half, batch)
            if drift is not None:
                drift[rows] = v
            np.multiply(v, dt, out=out)
            np.add(pos, out, out=out)
            np.add(out, noise[rows], out=out)
            grid.wrap(out, out=out)
        self._check_walls()
        self.pos, self.new = self.new, self.pos

    def _check_walls(self) -> None:
        """Freeze and count, per block, the walkers of `new` on or beyond a
        hard wall; a block fails once more than MAX_ESCAPE_FRACTION of its
        walkers have escaped."""
        grid, alive = self.grid, self.alive.reshape(-1)
        new, old = self.new, self.pos
        escaped = None
        for a in range(grid.dim):
            if grid.periodic[a]:
                continue
            lo = grid.origin[a]
            hi = grid.origin[a] + grid.extents[a]
            col = new[:, a]
            if col.min(initial=hi) > lo and col.max(initial=lo) < hi:
                continue  # no walker at this axis' walls: skip the masks
            hit = (col <= lo) | (col >= hi)
            escaped = hit if escaped is None else escaped | hit
        if escaped is not None:
            newly = escaped & alive
            if np.any(newly):
                alive &= ~newly
                m = self.alive.shape[1]
                self.escaped += newly.reshape(-1, m).sum(axis=1)
                over = np.flatnonzero(self.escaped > MAX_ESCAPE_FRACTION * m)
                if over.size and over[0] < self.failed:
                    b = self.failed = int(over[0])
                    self.failure = SafeguardError(
                        f"{self.escaped[b]} walkers escaped the domain "
                        f"(> {MAX_ESCAPE_FRACTION:.1%} of {m})")
                    if b == 0:
                        raise self.failure
        if self.escaped.any():
            new[~alive] = old[~alive]

    def finish(self) -> None:
        """Raise the SafeguardError of the first block that failed, by its
        escapes or by walkers at a non-finite position (an overflowed drift
        or noise).  No step or wrap makes a non-finite position finite
        again, so the final positions show every such walker, and the
        walks step with numpy's overflow and invalid-value warnings off."""
        lost = (~np.isfinite(self.pos).all(axis=1)).reshape(
            self.alive.shape).sum(axis=1)
        (bad,) = np.nonzero(lost)
        if bad.size and bad[0] < self.failed:
            raise SafeguardError(
                f"{lost[bad[0]]} walkers reached a non-finite position")
        if self.failure is not None:
            raise self.failure


def _check_run(timeline: Iterable[WaveState], pot: Potentials,
               systems: Sequence[ParticleSystem],
               positions: np.ndarray | None, n_walkers: int,
               recorded: Collection[int] = ()) -> tuple:
    """Check a sampled run on entry and open its timeline, which is read
    once.  Returns the step dt, the timeline's first spacing; its first
    state; an iterator over every state, the first included; and a dict
    that gets the time of state k, for k in `recorded`, as it is read.

    Refuses, on entry, a timeline of fewer than two states or whose first
    spacing is not positive; any system whose particles differ from those
    the potentials (and so the wave states) were built for, as a run's
    systems may differ from `pot.system` in eta and gamma only; and start
    positions (None when they are drawn) of any shape but (n_walkers, dim).
    The iterator refuses, as it reads it, a state whose spacing is not
    positive or not dt to a relative 1e-9 (an absolute 1e-12)."""
    states = iter(timeline)
    head = list(itertools.islice(states, 2))
    if len(head) < 2:
        raise ValueError("timeline needs at least two states")
    dt = float(head[1].time - head[0].time)
    if not dt > 0:
        raise ValueError("timeline times must increase")
    base = pot.system
    for system in systems:
        if with_eta(system, base.eta, base.gamma_exponent) != base:
            raise ValueError("a run's systems may differ from the potentials' "
                             "system in eta and gamma only")
    if (positions is not None
            and np.shape(positions) != (n_walkers, head[0].grid.dim)):
        raise ValueError("initial_positions shape mismatch")
    times = {}
    tol = 1e-12 + 1e-9 * dt

    def read():
        last = None
        for k, state in enumerate(itertools.chain(head, states)):
            if k:
                step = state.time - last
                if not step > 0:
                    raise ValueError("timeline times must increase")
                if not abs(step - dt) <= tol:
                    raise ValueError("timeline spacing is not uniform")
            last = state.time
            if k in recorded:
                times[k] = last
            yield state
    return dt, head[0], read(), times


def _recorded_steps(steps: int, record_stride: int) -> list[int]:
    """The states an ensemble records: the first, every record_stride-th
    and the last."""
    return [0] + [k for k in range(1, steps + 1)
                  if k % record_stride == 0 or k == steps]


def simulate_ensemble(timeline: Collection[WaveState], pot: Potentials,
                      system: ParticleSystem, n_walkers: int, seed: int,
                      record_stride: int = 1,
                      record_velocities: bool = False,
                      initial_positions: np.ndarray | None = None) -> Ensemble:
    """March an ensemble along a timeline of wave states.

    The timeline is any iterable of states with a len(): a list, or a
    `quantum._Timeline` whose states are stepped as the walk reads them.
    It is read once, a state at a time, and no state is kept.  The system
    is the one source of eta and gamma, and so of the noise and of the
    drift's osmotic term (`_flow_tables`).  The timeline is the one source
    of the step dt: its spacing, which must be positive and uniform.  The
    system may differ from the potentials' in eta and gamma only.  Each
    step is `_Walk.step` with the step's Philox noise, drawn in step order
    from the run's one noise generator: from NOISE_THREAD_WALKERS walkers
    on, one step ahead by a helper thread, which overlaps the draw with the
    step and is joined before the call returns or raises (`_noise_stream`).
    Escaped walkers (hard walls only) are frozen in place and counted;
    more than `MAX_ESCAPE_FRACTION` of them, or a walker at a non-finite
    position, aborts with a SafeguardError.
    """
    steps = len(timeline) - 1
    recorded = _recorded_steps(steps, record_stride)
    slot = {k: r for r, k in enumerate(recorded)}
    dt, first, states, times = _check_run(
        timeline, pot, [system], initial_positions, n_walkers, slot)
    grid = first.grid
    tables = _flow_tables(states, pot, [system], dt)
    if initial_positions is None:
        init_seq = np.random.SeedSequence(seed).spawn(2)[0]
        init_rng = np.random.Generator(np.random.Philox(init_seq))
        pos = draw_initial_positions(first, n_walkers, init_rng)
    else:
        pos = np.array(initial_positions, dtype=float)

    rec_positions = np.empty((len(recorded),) + pos.shape)
    rec_positions[0] = pos
    velocities = [] if record_velocities else None
    drifts = [] if record_velocities else None

    with (_noise_stream(seed, system.step_variances(dt)[None], pos.shape,
                        steps) as noises,
          np.errstate(over="ignore", invalid="ignore")):
        walk = _Walk(grid, tables, pos, noises)
        for k in range(steps):
            drift = np.empty_like(pos) if record_velocities else None
            walk.step(k, dt, drift)
            if record_velocities:
                velocities.append(_nearest_displacement(
                    grid, walk.pos - walk.new) / dt)
                drifts.append(drift)
            if k + 1 in slot:
                rec_positions[slot[k + 1]] = walk.pos
    walk.finish()

    return Ensemble(
        grid, system, dt,
        times=np.array([times[k] for k in recorded]),
        positions=rec_positions,
        velocities=None if velocities is None else np.array(velocities),
        drifts=None if drifts is None else np.array(drifts),
        meta={"escaped": int(walk.escaped[0])},
    )


# ---------------------------------------------------------------------------
# statistics of the sampled process
# ---------------------------------------------------------------------------

def fluctuation_covariance(system: ParticleSystem, dt: float, n_draws: int,
                           seed: int) -> dict:
    """Monte-Carlo check of <dw_A dw_B> = step_variances(dt) delta_AB."""
    dim = len(system.axis_map)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    variances = system.step_variances(dt)
    draws = rng.standard_normal((n_draws, dim)) * np.sqrt(variances)
    cov = np.cov(draws.T, bias=False).reshape(dim, dim)
    expected = np.diag(variances)
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
    expected = np.diag(2 * ens.system.eta * ens.dt
                       / ens.system.mass_per_axis)
    return {"covariance": cov, "expected": expected,
            "rel_err_diag": np.abs(np.diag(cov) - np.diag(expected))
            / np.diag(expected)}


def scaling_exponent(system: ParticleSystem, dt_grid: Sequence[float],
                     trials: int, seed: int) -> dict:
    """Fit log <|dw|^2> against log dt; the slope estimates gamma."""
    if system.eta == 0:
        raise ValueError("eta = 0: fluctuation scaling exponent is undefined")
    from .stats import fit_power_law
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    mean_sq = []
    for dt in dt_grid:
        sig = np.sqrt(system.step_variances(dt))[0]
        draws = rng.standard_normal(trials) * sig
        mean_sq.append(float(np.mean(draws**2)))
    fit = fit_power_law(np.asarray(dt_grid, float), np.asarray(mean_sq))
    return {"gamma_hat": fit["exponent"]}


# ---------------------------------------------------------------------------
# deterministic (eta -> 0) trajectories
# ---------------------------------------------------------------------------

def bohmian_trajectories(timeline: Collection[WaveState], pot: Potentials,
                         system: ParticleSystem,
                         initial_positions: np.ndarray) -> np.ndarray:
    """Integrate dx/dt = v(x, t) along the timeline: `simulate_ensemble` of
    the system at eta = 0 and gamma = 3, whose drift is the current
    velocity and whose noise is 0 x N(0, 1).  The system's own eta and
    gamma are not read.  As every sampled walker, one that reaches a hard
    wall is frozen there, and more than `MAX_ESCAPE_FRACTION` of them abort
    with a SafeguardError.

    Returns positions of shape (len(timeline), K, dim).
    """
    return simulate_ensemble(timeline, pot,
                             with_eta(system, 0.0, gamma_exponent=3.0),
                             len(initial_positions), 0,
                             initial_positions=initial_positions).positions


def _nearest_displacement(grid: ConfigGrid, dev: np.ndarray) -> np.ndarray:
    """`dev`, each periodic component overwritten by its nearest image, so
    a walker that crossed a seam moves by its step, not by a period."""
    for a in range(grid.dim):
        if grid.periodic[a]:
            dev[..., a] = nearest_image(dev[..., a], grid.extents[a])
    return dev


def _wrapped_distance(grid: ConfigGrid, dev: np.ndarray) -> np.ndarray:
    """|dev| over the last axis, each periodic component taken to its
    nearest image first; periodic components of `dev` are overwritten."""
    return np.sqrt((_nearest_displacement(grid, dev)**2).sum(axis=-1))


def max_deviation_from_deterministic(ens: Ensemble,
                                     reference: np.ndarray) -> float:
    """Largest wrapped distance between recorded walkers and reference paths
    (same shape), averaged over walkers."""
    if ens.positions.shape != reference.shape:
        raise ValueError("ensemble and reference have different shapes")
    per_walker = np.max(_wrapped_distance(ens.grid,
                                          ens.positions - reference), axis=0)
    return float(per_walker.mean())


def vanishing_noise_deviations(timeline: Collection[WaveState],
                               pot: Potentials,
                               systems: Sequence[ParticleSystem], seed: int,
                               initial_positions: np.ndarray) -> list[float]:
    """Per system, how far its ensemble strays from the deterministic paths:
    bit for bit, `max_deviation_from_deterministic` of

        simulate_ensemble(timeline, pot, system, len(initial_positions),
                          seed, initial_positions=initial_positions)

    against `bohmian_trajectories(timeline, pot, pot.system,
    initial_positions)`, with no history stored.

    The systems may differ from the potentials' system in eta and gamma
    only (`_check_run`).  The study is one walk (`_Walk`) of
    1 + len(systems) blocks over one pass of the timeline: block 0 is the
    potentials' system at eta = 0 and gamma = 3, the Bohmian reference, and
    block r the ensemble of systems[r - 1].  Each state's eta-free rows are
    built once for every block (`_flow_tables`).  Each step draws one
    standard normal fill, scaled by every block's step deviation (zero for
    block 0), so each block gets the noise of its own run.  Escapes are
    counted per block, and a SafeguardError is that of the first run, the
    reference first, whose run fails.  Each block's per-walker maximum
    distance to the reference is folded in as the walk goes.
    """
    runs = [with_eta(pot.system, 0.0, gamma_exponent=3.0), *systems]
    dt, first, states, _ = _check_run(timeline, pot, runs, initial_positions,
                                      len(initial_positions))
    grid = first.grid
    tables = _flow_tables(states, pot, runs, dt)
    x0 = np.array(initial_positions, dtype=float)
    blocks = len(runs)
    variances = np.array([run.step_variances(dt) for run in runs])
    steps = len(timeline) - 1
    with (_noise_stream(seed, variances, x0.shape, steps) as noises,
          np.errstate(over="ignore", invalid="ignore")):
        walk = _Walk(grid, tables, np.tile(x0, (blocks, 1)), noises)
        worst = np.zeros((len(systems), len(x0)))
        for k in range(steps):
            walk.step(k, dt)
            paths = walk.pos.reshape((blocks,) + x0.shape)
            dist = _wrapped_distance(grid, paths[1:] - paths[0])
            np.maximum(worst, dist, out=worst)
    walk.finish()
    return [float(w.mean()) for w in worst]


# ---------------------------------------------------------------------------
# centre-of-mass behaviour
# ---------------------------------------------------------------------------

def center_of_mass_report(masses: Sequence[float], eta: float, dt: float,
                          n_draws: int = 20000, *, seed: int) -> dict:
    """Fluctuation and quantum-potential scaling of the centre of mass.

    Draws independent per-particle fluctuations of the gamma = 3 process
    (hbar = 1) for a product state and checks the CM velocity fluctuation
    variance against eta * dt / M; then evaluates the quantum potential of
    a unit-width CM density at masses M and 4M, whose magnitude must scale
    as 1/M.
    """
    system = particles_on_line(masses, eta=eta)
    masses = system.mass_per_axis
    total = masses.sum()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    sig = np.sqrt(system.step_variances(dt))
    draws = rng.standard_normal((n_draws, masses.size)) * sig
    cm = (draws * masses).sum(axis=1) / total
    v_fluct = cm / dt
    sample_var = float(np.var(v_fluct, ddof=1))
    expected = eta * dt**(system.gamma_exponent - 2.0) / total
    se = expected * np.sqrt(2.0 / (n_draws - 1))

    grid = ConfigGrid((256,), (16.0,), (True,), origin=(-8.0,))
    x = grid.axis_coords(0)
    rho = np.exp(-0.5 * x ** 2)
    rho /= rho.sum() * grid.cell_volume
    mags = {}
    for scale in (1.0, 4.0):
        sys_m = single_particle(mass=float(total * scale))
        q = quantum_potential(grid, rho, sys_m)
        mags[scale] = float(np.max(np.abs(q)))
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
