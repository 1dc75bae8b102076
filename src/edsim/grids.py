"""Configuration-space grids, lattice fields, and discrete calculus.

The grid is a uniform rectangular lattice in configuration space (up to three
axes, so one particle in 1D/2D/3D or up to three particles on a line).  Axis
conventions:

* periodic axis: nodes at ``origin + k*h`` for ``k = 0..N-1`` with
  ``h = extent/N`` (the node at ``origin + extent`` is identified with the
  first one);
* non-periodic axis: nodes at ``origin + (k+1)*h`` with ``h = extent/(N+1)``,
  i.e. the N nodes are interior points of a box whose walls sit at ``origin``
  and ``origin + extent``.  Wave evolution treats the walls as hard
  (homogeneous Dirichlet), which makes the discrete sine modes exact
  eigenvectors of the second-difference Laplacian.

Node arrays meet a periodic seam or a hard wall by one rule, written once:
`_shift` reads a node's neighbour at any offset (rolled across the seam,
zero past a wall) and `_wall_ends` sets the one-sided first and last node
on a wall.  Gradients, the quantum potential, the Hamiltonian's hopping and
the Chapman-Kolmogorov scatter all go through them.  Both take a negative
axis as counted from the end, and `gradient` (like `quantum.phase_gradient`)
indexes the grid's axes that way, so the node arrays may be the trailing
axes of a stack: a block of states goes through one call, each of its rows
with the bits of a call of its own.

`ScalarField` and `VectorField` are the checked types where node values
enter or leave the package: their values are finite, C-contiguous
(row-major in axis order) and frozen.  The calculus works on plain arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

MAX_AXES = 3
MAX_POINTS_PER_AXIS = 512
# densities below this fraction of the peak count as nodes: logs, ratios and
# supports are floored or cut there
RHO_FLOOR_REL = 1e-12
# the named processes and their fluctuation exponents gamma; any other
# gamma is "fractional"
PROCESS_GAMMA = {"ES": 1.0, "OU": 3.0}


def mod_period(values: np.ndarray, period: float) -> np.ndarray:
    """``np.mod(values, period, out=values)`` by a masked shift of one period.

    This is the one wrap rule of the package.  For values in
    [-period, 2 period) np.mod adds or subtracts the period once (its fmod is
    exact there), so the masked shift gives the same bits at a fraction of
    the cost, and values already in [0, period) are left alone.  The one
    difference: -0.0 stays -0.0 where np.mod gives +0.0, which adding a grid
    origin erases.  Anything outside that range, or nan, falls back to
    np.mod.  Returns `values`, shifted in place.
    """
    low, high = values.min(initial=0.0), values.max(initial=0.0)
    if low >= 0 and high < period:
        return values
    if not (low >= -period and high < 2 * period):
        return np.mod(values, period, out=values)
    below = values < 0
    np.subtract(values, period, out=values, where=values >= period)
    np.add(values, period, out=values, where=below)
    return values


def nearest_image(dev: np.ndarray, period: float) -> np.ndarray:
    """The periodic image of each displacement nearest zero, within half a
    period of it."""
    return (dev + period / 2) % period - period / 2


def density_floor(values: np.ndarray, rel: float = RHO_FLOOR_REL):
    """The density below which `values` count as a node: `rel` times their
    peak.  The one place the floor is written."""
    return rel * values.max()


def _as_tuple(x, n: int, kind=float) -> tuple:
    t = tuple(kind(v) for v in x)
    if len(t) != n:
        raise ValueError(f"expected {n} per-axis entries, got {len(t)}")
    return t


@dataclass(frozen=True)
class ConfigGrid:
    """Uniform rectangular lattice over configuration space."""

    points: tuple[int, ...]
    extents: tuple[float, ...]
    periodic: tuple[bool, ...]
    origin: tuple[float, ...] = ()

    def __post_init__(self):
        points = tuple(int(p) for p in self.points)
        dim = len(points)
        if not 1 <= dim <= MAX_AXES:
            raise ValueError(f"grid must have 1..{MAX_AXES} axes, got {dim}")
        extents = _as_tuple(self.extents, dim)
        periodic = _as_tuple(self.periodic, dim, bool)
        origin = _as_tuple(self.origin, dim) if self.origin else (0.0,) * dim
        for n in points:
            if not 2 <= n <= MAX_POINTS_PER_AXIS:
                raise ValueError(
                    f"points per axis must be in [2, {MAX_POINTS_PER_AXIS}], got {n}")
        for L in extents:
            if L <= 0:
                raise ValueError(f"extent must be positive, got {L}")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "periodic", periodic)
        object.__setattr__(self, "origin", origin)

    @property
    def dim(self) -> int:
        return len(self.points)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @property
    def size(self) -> int:
        return int(np.prod(self.points))

    # the grid is frozen, so its constants are computed on first read and
    # kept; `==`, `hash` and `repr` see only the fields
    @functools.cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            L / n if per else L / (n + 1)
            for n, L, per in zip(self.points, self.extents, self.periodic))

    @functools.cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_coords(self, axis: int) -> np.ndarray:
        """Node coordinates along one axis."""
        n = self.points[axis]
        h = self.spacing[axis]
        if self.periodic[axis]:
            return self.origin[axis] + h * np.arange(n)
        return self.origin[axis] + h * (1.0 + np.arange(n))

    def coordinate_array(self, axis: int) -> np.ndarray:
        """Coordinate of every node along `axis`, broadcast to grid shape."""
        c = self.axis_coords(axis)
        shape = [1] * self.dim
        shape[axis] = self.points[axis]
        return np.broadcast_to(c.reshape(shape), self.shape).copy()

    @functools.cached_property
    def coordinates(self) -> tuple[np.ndarray, ...]:
        """`coordinate_array` of every axis, computed once and read-only."""
        out = tuple(self.coordinate_array(a) for a in range(self.dim))
        for c in out:
            c.setflags(write=False)
        return out

    @functools.cached_property
    def ring_phasors(self) -> tuple[np.ndarray | None, ...]:
        """Per axis, each node's place on its ring as exp(i angle), angle =
        2 pi (x - origin) / extent, broadcast to grid shape; None on a
        hard-wall axis.  Computed once and read-only."""
        out = []
        for a, x in enumerate(self.coordinates):
            if not self.periodic[a]:
                out.append(None)
                continue
            ang = 2 * np.pi * (x - self.origin[a]) / self.extents[a]
            z = np.exp(1j * ang)
            z.setflags(write=False)
            out.append(z)
        return tuple(out)

    def meshgrid(self) -> list[np.ndarray]:
        """The read-only `coordinates`, as a list."""
        return list(self.coordinates)

    def wrap(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Map positions back into the domain on periodic axes:
        ``lo + mod_period(x - lo, extent)``.  `out` is None for a copy, or
        `x` itself to wrap in place."""
        if out is None:
            out = np.array(x, dtype=float, copy=True)
        for a in range(self.dim):
            if self.periodic[a]:
                lo = self.origin[a]
                col = out[..., a]
                np.subtract(col, lo, out=col)
                mod_period(col, self.extents[a])
                np.add(col, lo, out=col)
        return out

    def describe(self) -> dict:
        return {
            "points": list(self.points),
            "extents": list(self.extents),
            "periodic": list(self.periodic),
            "origin": list(self.origin),
        }


def _check_values(values: np.ndarray, expect_shape) -> np.ndarray:
    values = np.ascontiguousarray(values)
    if values.shape != expect_shape:
        raise ValueError(f"field shape {values.shape} != expected {expect_shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field contains non-finite entries")
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class ScalarField:
    grid: ConfigGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", _check_values(v, self.grid.shape))


@dataclass(frozen=True)
class VectorField:
    """Per-axis component fields at the nodes."""

    grid: ConfigGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        expect = (self.grid.dim,) + self.grid.shape
        object.__setattr__(self, "values", _check_values(v, expect))


def _shift(values: np.ndarray, axis: int, offset: int, periodic: bool) -> np.ndarray:
    """values at index + offset along `axis` (negative: from the end):
    rolled across a periodic seam, zero past a hard wall, for any offset."""
    if periodic:
        return np.roll(values, -offset, axis=axis)
    n = values.shape[axis]
    k = max(n - abs(offset), 0)   # nodes whose neighbour is inside the walls
    lead = (slice(None),) * (axis % values.ndim)
    dst, src, past = slice(0, k), slice(n - k, n), slice(k, n)
    if offset < 0:
        dst, src, past = src, dst, slice(0, n - k)
    out = np.empty_like(values)
    out[lead + (dst,)] = values[lead + (src,)]
    out[lead + (past,)] = 0
    return out


def _wall_ends(out: np.ndarray, fwd: np.ndarray, axis: int) -> None:
    """One-sided ends on a hard wall: the first node of `axis` takes the
    first entry of the forward bond differences `fwd`, the last node the
    last entry; a negative `axis` counts from the end."""
    lead = (slice(None),) * (axis % out.ndim)
    out[lead + (0,)] = fwd[lead + (0,)]
    out[lead + (-1,)] = fwd[lead + (-1,)]


def gradient(grid: ConfigGrid, v: np.ndarray, axis: int) -> np.ndarray:
    """Second-order central difference of node values along one grid axis.

    The grid's axes are the trailing axes of `v`; leading axes stack fields.
    Periodic axes wrap.  On non-periodic axes the interior is central and the
    two boundary nodes fall back to one-sided differences.
    """
    h = grid.spacing[axis]
    per = grid.periodic[axis]
    ax = axis - grid.dim
    out = (_shift(v, ax, +1, per) - _shift(v, ax, -1, per)) / (2 * h)
    if not per:
        ends = np.take(v, [1, -1], ax) - np.take(v, [0, -2], ax)
        _wall_ends(out, ends / h, ax)
    return out


def integrate(f: ScalarField) -> float:
    """Riemann sum: sum of node values times the cell volume."""
    return float(f.values.sum() * f.grid.cell_volume)


def rectangle_loop(lo: tuple[int, int], hi: tuple[int, int]) -> list[tuple]:
    """Axis-aligned rectangular loop (counter-clockwise) in the index plane
    of a 2-D grid."""
    i0, j0 = lo
    i1, j1 = hi
    if i1 <= i0 or j1 <= j0:
        raise ValueError("rectangle must have positive index extent")
    return ([(i, j0) for i in range(i0, i1)]
            + [(i1, j) for j in range(j0, j1)]
            + [(i, j1) for i in range(i1, i0, -1)]
            + [(i0, j) for j in range(j1, j0 - 1, -1)])


@dataclass(frozen=True)
class ParticleSystem:
    """Particle content and the constants of the transition law.

    ``axis_map[A] = (n, a)`` sends grid axis ``A`` to spatial direction ``a``
    of particle ``n``; masses and coupling constants per grid axis follow it.
    ``beta = q / (hbar * c)`` per particle.  ``eta`` and ``gamma_exponent``
    are the one source of the fluctuation law (`step_variances`).
    """

    masses: tuple[float, ...]
    charges: tuple[float, ...]
    axis_map: tuple[tuple[int, int], ...]
    hbar: float = 1.0
    light_speed: float = 1.0
    eta: float = 1.0
    gamma_exponent: float = 3.0

    def __post_init__(self):
        masses = tuple(float(m) for m in self.masses)
        charges = tuple(float(q) for q in self.charges)
        if len(charges) != len(masses):
            raise ValueError("masses and charges must have equal length")
        if any(m <= 0 for m in masses):
            raise ValueError("masses must be positive")
        if self.hbar <= 0 or self.light_speed <= 0:
            raise ValueError("hbar and light_speed must be positive")
        if self.eta < 0:
            raise ValueError("eta must be non-negative")
        if self.gamma_exponent <= 0:
            raise ValueError("gamma_exponent must be positive")
        amap = tuple((int(n), int(a)) for n, a in self.axis_map)
        for n, a in amap:
            if not 0 <= n < len(masses):
                raise ValueError(f"axis_map particle index {n} out of range")
            if not 0 <= a < 3:
                raise ValueError(f"axis_map direction index {a} out of range")
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "charges", charges)
        object.__setattr__(self, "axis_map", amap)

    @property
    def n_particles(self) -> int:
        return len(self.masses)

    @property
    def beta(self) -> tuple[float, ...]:
        return tuple(q / (self.hbar * self.light_speed) for q in self.charges)

    @property
    def mass_per_axis(self) -> np.ndarray:
        return np.array([self.masses[n] for n, _ in self.axis_map])

    @property
    def beta_per_axis(self) -> np.ndarray:
        b = self.beta
        return np.array([b[n] for n, _ in self.axis_map])

    def step_variances(self, dt: float) -> np.ndarray:
        """Per-axis fluctuation variance of one step: eta dt^gamma / m."""
        return self._law(dt, self.gamma_exponent, self.mass_per_axis)

    def diffusion(self, dt: float) -> np.ndarray:
        """Per-axis diffusion coefficient Var / 2 dt = eta dt^(gamma-1) / 2m,
        not as that quotient: dt**0.0 is exactly 1, so at gamma = 1 it has
        the bits of eta / 2m, which the quotient misses (eta 1e-4, dt 0.01)."""
        return self._law(dt, self.gamma_exponent - 1.0,
                         2 * self.mass_per_axis)

    def _law(self, dt: float, power: float,
             per_mass: np.ndarray) -> np.ndarray:
        """eta dt^power / per_mass.  Refuses dt <= 0, where the law has no
        meaning, and a value past the largest float."""
        if not dt > 0:
            raise ValueError("dt must be positive")
        try:
            scale = self.eta * dt**power
        except OverflowError:  # a float power past the largest float
            scale = np.inf
        out = scale / per_mass
        if not np.all(np.isfinite(out)):
            raise ValueError(f"the fluctuation law overflows at eta = "
                             f"{self.eta:g}, gamma = {self.gamma_exponent:g}, "
                             f"dt = {dt:g}")
        return out

    @property
    def process_label(self) -> str:
        return process_label(self.gamma_exponent)


def process_label(gamma_exponent: float) -> str:
    """Name of the sampled process: "ES" for gamma = 1, "OU" for gamma = 3,
    "fractional" otherwise."""
    labels = {gamma: name for name, gamma in PROCESS_GAMMA.items()}
    return labels.get(gamma_exponent, "fractional")


def single_particle(dim: int = 1, mass: float = 1.0, charge: float = 0.0,
                    **kw) -> ParticleSystem:
    axis_map = tuple((0, a) for a in range(dim))
    return ParticleSystem((mass,), (charge,), axis_map, **kw)


def particles_on_line(masses: Iterable[float], charges: Iterable[float] | None = None,
                      **kw) -> ParticleSystem:
    masses = tuple(masses)
    if charges is None:
        charges = (0.0,) * len(masses)
    axis_map = tuple((n, 0) for n in range(len(masses)))
    return ParticleSystem(masses, tuple(charges), axis_map, **kw)
