"""Ready-made experiment setups shared by the command line and test suites.

Every preset freezes a grid, particle constants (eta = `ETA` and the
default gamma = 3; the command line changes both with
`stochastic.with_eta`), potentials and an initial wave state, plus default
step size and count.  A builder takes only what the command line
overrides (`points`, `dt`, `steps`), and `vortex_2d` also its `winding`.
Momenta on periodic axes are snapped to the ring quantization 2 pi n / L so
initial phases close across the seam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import ConfigGrid, ParticleSystem, single_particle
from .quantum import (Potentials, WaveState, build_potentials, free_potentials,
                      gaussian_packet, superpose)

# fluctuation strength of every preset's particle
ETA = 1e-3


@dataclass(frozen=True)
class Scenario:
    name: str
    grid: ConfigGrid
    system: ParticleSystem
    potentials: Potentials
    state: WaveState
    dt: float
    steps: int


def ring_momentum(length: float, n: int) -> float:
    """n-th quantized momentum on a ring of circumference `length`."""
    return 2.0 * np.pi * n / length


def _free(points=256, dt=0.01, steps=200):
    """Spreading Gaussian packet on a ring."""
    grid = ConfigGrid((points,), (30.0,), (True,), origin=(-15.0,))
    system = single_particle(eta=ETA)
    k = ring_momentum(30.0, 3)
    state = gaussian_packet(grid, 0.0, 1.0, momentum=k)
    return Scenario("free", grid, system, free_potentials(grid, system),
                    state, dt, steps)


def _harmonic(points=256, dt=0.01, steps=200):
    """Coherent oscillation in a quadratic well (omega = 1)."""
    grid = ConfigGrid((points,), (20.0,), (False,), origin=(-10.0,))
    system = single_particle(eta=ETA)
    x = grid.axis_coords(0)
    pot = build_potentials(grid, system,
                           scalar_v=0.5 * system.masses[0] * x**2)
    sigma = np.sqrt(system.hbar / (2.0 * system.masses[0]))
    state = gaussian_packet(grid, 1.0, sigma)
    return Scenario("harmonic", grid, system, pot, state, dt, steps)


def _double_well(points=256, dt=0.005, steps=400):
    """Packet started in the left well of a quartic double well."""
    grid = ConfigGrid((points,), (24.0,), (False,), origin=(-12.0,))
    system = single_particle(eta=ETA)
    x = grid.axis_coords(0)
    v = 1.5 * ((x / 2.0) ** 2 - 1.0) ** 2
    pot = build_potentials(grid, system, scalar_v=v)
    state = gaussian_packet(grid, -2.0, 0.7)
    return Scenario("double_well", grid, system, pot, state, dt, steps)


def _ring_constant_a(points=256, dt=0.01, steps=200):
    """Charged packet on a ring threaded by a constant vector potential."""
    grid = ConfigGrid((points,), (20.0,), (True,), origin=(-10.0,))
    system = single_particle(charge=1.0, eta=ETA)
    pot = build_potentials(grid, system, vector_a=(0.7,))
    k = ring_momentum(20.0, 2)
    state = gaussian_packet(grid, 0.0, 1.2, momentum=k)
    return Scenario("ring_constant_a", grid, system, pot, state, dt, steps)


def _interference(points=512, dt=0.005, steps=800):
    """Two packets colliding head on; fringes build up as they overlap."""
    grid = ConfigGrid((points,), (40.0,), (True,), origin=(-20.0,))
    system = single_particle(eta=ETA)
    k = ring_momentum(40.0, 10)
    left = gaussian_packet(grid, -6.0, 1.5, momentum=k)
    right = gaussian_packet(grid, 6.0, 1.5, momentum=-k)
    state = superpose(1.0, left, 1.0, right)
    return Scenario("interference", grid, system,
                    free_potentials(grid, system), state, dt, steps)


def _vortex_2d(points=96, dt=0.005, steps=100, winding=1):
    """Planar vortex of the given winding (core radius 1)."""
    half = 6.0
    grid = ConfigGrid((points, points), (2 * half, 2 * half), (False, False),
                      origin=(-half, -half))
    system = single_particle(dim=2, eta=ETA)
    xx, yy = grid.meshgrid()
    r = np.hypot(xx, yy)
    theta = np.arctan2(yy, xx)
    psi = (np.tanh(r) ** abs(winding) * np.exp(-0.5 * (r / 3.0) ** 2)
           * np.exp(1j * winding * theta))
    state = WaveState(grid, psi)
    return Scenario("vortex_2d", grid, system, free_potentials(grid, system),
                    state, dt, steps)


PRESETS = {
    "free": _free,
    "harmonic": _harmonic,
    "double_well": _double_well,
    "ring_constant_a": _ring_constant_a,
    "interference": _interference,
    "vortex_2d": _vortex_2d,
}


def build_preset(name: str, **overrides) -> Scenario:
    try:
        builder = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r}; available: {known}")
    return builder(**overrides)
