from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from edsim.grids import (
    ConfigGrid,
    ParticleSystem,
    ScalarField,
    _shift,
    gradient,
    integrate,
    particles_on_line,
    rectangle_loop,
    single_particle,
)


def test_spacing_conventions():
    g = ConfigGrid((8,), (2.0,), (True,))
    assert g.spacing == (0.25,)
    assert np.allclose(g.axis_coords(0), 0.25 * np.arange(8))

    g2 = ConfigGrid((7,), (2.0,), (False,))
    assert g2.spacing == (0.25,)
    # interior nodes of a box [0, 2]
    assert np.allclose(g2.axis_coords(0), 0.25 * (1 + np.arange(7)))


def _per_axis_spacing(points, extents, periodic):
    return tuple(L / n if per else L / (n + 1)
                 for n, L, per in zip(points, extents, periodic))


@pytest.mark.parametrize("points, periodic", [
    ((8,), (True,)),
    ((7, 5), (False, True)),
    ((3, 4, 6), (True, False, False)),
])
def test_grid_constants_are_computed_once(points, periodic):
    """`spacing` and `cell_volume` follow the per-axis rule, are kept after
    the first read, leave equality, hash, repr and describe() alone, and a
    replaced grid computes its own; `coordinates` and `ring_phasors` are
    kept too, read-only."""
    extents = (2.0, 3.0, 5.0)[:len(points)]
    g = ConfigGrid(points, extents, periodic)
    twin = ConfigGrid(points, extents, periodic)
    before = (hash(g), repr(g), g.describe())
    rule = _per_axis_spacing(points, extents, periodic)
    assert g.spacing == rule and g.spacing is g.spacing
    assert g.cell_volume == float(np.prod(rule))
    assert g.coordinates is g.coordinates
    assert g.ring_phasors is g.ring_phasors
    for a, (x, z) in enumerate(zip(g.coordinates, g.ring_phasors)):
        assert np.array_equal(x, g.coordinate_array(a))
        assert not x.flags.writeable
        if periodic[a]:
            assert not z.flags.writeable
            np.testing.assert_allclose(
                z, np.exp(2j * np.pi * x / extents[a]), rtol=0, atol=1e-15)
        else:
            assert z is None
    assert (hash(g), repr(g), g.describe()) == before
    assert g == twin and hash(g) == hash(twin)
    finer = tuple(2 * n for n in points)
    other = dataclasses.replace(g, points=finer)
    assert other.spacing == _per_axis_spacing(finer, extents, periodic)
    assert other.cell_volume == float(np.prod(other.spacing))
    assert other != g and g.spacing == rule


def test_grid_validation():
    with pytest.raises(ValueError):
        ConfigGrid((4, 4, 4, 4), (1, 1, 1, 1), (True,) * 4)
    with pytest.raises(ValueError):
        ConfigGrid((1024,), (1.0,), (True,))
    with pytest.raises(ValueError):
        ConfigGrid((8,), (-1.0,), (True,))


def test_field_values_frozen_and_finite():
    g = ConfigGrid((8,), (1.0,), (True,))
    f = ScalarField(g, np.ones(8))
    with pytest.raises(ValueError):
        f.values[0] = 2.0
    with pytest.raises(ValueError):
        ScalarField(g, np.array([np.nan] + [0.0] * 7))


def test_gradient_sine_periodic_second_order():
    # central difference of sin(kx) has exact value cos(kx) * sin(kh)/h,
    # so the error against cos(kx) is k^2 h^2 / 6 to leading order
    L = 2 * np.pi
    errs = []
    for n in (32, 64, 128):
        g = ConfigGrid((n,), (L,), (True,))
        x = g.axis_coords(0)
        df = gradient(g, np.sin(x), 0)
        errs.append(np.max(np.abs(df - np.cos(x))))
    errs = np.array(errs)
    ratio = errs[:-1] / errs[1:]
    assert np.all(ratio > 3.7)  # ~4 per halving
    h = L / 128
    assert errs[-1] < h**2 / 6 * 1.1


def test_gradient_linear_nonperiodic_exact():
    g = ConfigGrid((16,), (3.0,), (False,))
    x = g.axis_coords(0)
    df = gradient(g, x, 0)
    assert np.allclose(df, 1.0, atol=1e-13)


def test_summation_by_parts_periodic():
    rng = np.random.default_rng(7)
    g = ConfigGrid((64,), (2.0,), (True,))
    f = rng.normal(size=64)
    q = rng.normal(size=64)
    left = integrate(ScalarField(g, q * gradient(g, f, 0)))
    right = -integrate(ScalarField(g, f * gradient(g, q, 0)))
    assert abs(left - right) < 1e-13


def test_integrate_normalized_gaussian():
    g = ConfigGrid((256,), (20.0,), (True,), origin=(-10.0,))
    x = g.axis_coords(0)
    raw = np.exp(-0.5 * x**2)
    rho = raw / (raw.sum() * g.cell_volume)
    assert abs(integrate(ScalarField(g, rho)) - 1.0) < 1e-8


def test_particle_system_beta_identity():
    s = ParticleSystem((1.0, 2.0), (0.5, -1.5), ((0, 0), (1, 0)),
                       hbar=0.7, light_speed=3.0)
    for q, b in zip(s.charges, s.beta):
        assert b * s.hbar * s.light_speed == pytest.approx(q, rel=1e-15)
    assert np.allclose(s.mass_per_axis, [1.0, 2.0])


def test_particle_system_validation():
    with pytest.raises(ValueError):
        ParticleSystem((1.0,), (0.0,), ((0, 0),), eta=-1.0)
    with pytest.raises(ValueError):
        ParticleSystem((-1.0,), (0.0,), ((0, 0),))
    with pytest.raises(ValueError):
        ParticleSystem((1.0,), (0.0,), ((1, 0),))
    with pytest.raises(ValueError):
        ParticleSystem((1.0,), (0.0,), ((0, 0),), gamma_exponent=0.0)


def test_process_labels():
    assert single_particle(gamma_exponent=1.0).process_label == "ES"
    assert single_particle(gamma_exponent=3.0).process_label == "OU"
    assert single_particle(gamma_exponent=1.5).process_label == "fractional"


def test_particles_on_line_axis_map():
    s = particles_on_line((1.0, 3.0), (0.0, 1.0))
    assert s.axis_map == ((0, 0), (1, 0))
    assert s.masses == (1.0, 3.0)


def shift_reference(values, axis, offset, periodic):
    """values at index + offset: np.roll across a seam, an explicit
    zero-filled copy between walls."""
    if periodic:
        return np.roll(values, -offset, axis=axis)
    out = np.zeros_like(values)
    n = values.shape[axis]
    src, dst = np.moveaxis(values, axis, 0), np.moveaxis(out, axis, 0)
    for i in range(n):
        if 0 <= i + offset < n:
            dst[i] = src[i + offset]
    return out


@pytest.mark.parametrize("shape", [(7,), (4, 5), (3, 2, 4)])
@pytest.mark.parametrize("periodic", [True, False])
def test_shift_matches_roll_and_zero_filled_copy(shape, periodic):
    values = np.random.default_rng(3).normal(size=shape)
    for axis, n in enumerate(shape):
        for offset in range(-n - 2, n + 3):
            got = _shift(values, axis, offset, periodic)
            assert np.array_equal(
                got, shift_reference(values, axis, offset, periodic)), \
                (axis, offset)


def gradient_reference(grid, v, axis):
    """Central differences with one-sided wall ends, in per-slab slices."""
    h = grid.spacing[axis]
    if grid.periodic[axis]:
        return (np.roll(v, -1, axis=axis) - np.roll(v, 1, axis=axis)) / (2 * h)
    out = np.empty_like(v)
    sl = [slice(None)] * v.ndim

    def ax(s):
        t = list(sl)
        t[axis] = s
        return tuple(t)

    out[ax(slice(1, -1))] = (v[ax(slice(2, None))] - v[ax(slice(None, -2))]) / (2 * h)
    out[ax(slice(0, 1))] = (v[ax(slice(1, 2))] - v[ax(slice(0, 1))]) / h
    out[ax(slice(-1, None))] = (v[ax(slice(-1, None))] - v[ax(slice(-2, -1))]) / h
    return out


def test_gradient_is_bit_identical_to_slab_reference(boundary_grid):
    grid = boundary_grid
    f = np.random.default_rng(5).normal(size=grid.shape)
    for axis in range(grid.dim):
        got = gradient(grid, f, axis)
        assert got.tobytes() == gradient_reference(grid, f, axis).tobytes(), axis


_LINE = ConfigGrid((8,), (1.0,), (True,))

REFUSALS = {
    "per-axis-count": (lambda: ConfigGrid((8,), (1.0, 2.0), (True,)),
                       "expected 1 per-axis entries, got 2"),
    "field-shape": (lambda: ScalarField(_LINE, np.ones(7)),
                    r"field shape \(7,\) != expected \(8,\)"),
    "empty-rectangle": (lambda: rectangle_loop((2, 2), (2, 5)),
                        "positive index extent"),
    "charges-length": (lambda: ParticleSystem((1.0, 1.0), (0.0,),
                                              ((0, 0),)),
                       "equal length"),
    "hbar": (lambda: ParticleSystem((1.0,), (0.0,), ((0, 0),), hbar=0.0),
             "hbar and light_speed must be positive"),
    "light-speed": (lambda: ParticleSystem((1.0,), (0.0,), ((0, 0),),
                                           light_speed=-1.0),
                    "hbar and light_speed must be positive"),
    "axis-direction": (lambda: ParticleSystem((1.0,), (0.0,), ((0, 3),)),
                       "direction index 3 out of range"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_grid_inputs_are_refused(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError, match=message):
        call()
