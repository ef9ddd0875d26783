import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morcam.grids import GridError, RadialGrid, ScalarField, load_field, save_field


def test_grid_basic_geometry():
    grid = RadialGrid(3, 8.0, 0.25)
    assert grid.m == 64
    assert grid.shape == (64, 64, 64)
    assert grid.size == 64 ** 3
    # cell centers: no node at the origin, min |x| = h*sqrt(n)/2
    assert grid.radii.min() >= grid.h / 2
    assert np.isclose(grid.radii.min(), grid.h * math.sqrt(3) / 2)


@pytest.mark.parametrize("L, h", [(12.0, 0.5), (5.0, 0.125), (16.0, 0.5), (1.0, 0.25),
                                  (6.0, 0.3), (0.7, 0.1), (2.1, 0.3), (4.9, 0.7), (3.0, 0.1)])
def test_node_coordinates_are_exactly_antisymmetric(L, h):
    # (i + 1/2 - m/2) h rounds once, so every node's mirror image is a node
    # to the bit, which the half-box solve of a mirror-even problem needs;
    # -L + (i + 1/2) h rounds twice and is not mirror-exact for h = 0.1,
    # 0.3 or 0.7.  On a dyadic grid the two forms give the same bits
    grid = RadialGrid(3, L, h)
    c = grid.coords_1d
    assert np.array_equal(c[::-1], -c)
    old = -L + (np.arange(grid.m) + 0.5) * h
    assert np.abs(c - old).max() <= 4 * np.finfo(float).eps * L
    if h in (0.5, 0.25, 0.125):
        assert np.array_equal(c, old)


def test_grid_rejects_bad_spacing():
    with pytest.raises(GridError):
        RadialGrid(3, 8.0, 0.3)
    with pytest.raises(GridError):
        RadialGrid(0, 8.0, 0.25)
    with pytest.raises(GridError):
        RadialGrid(3, -1.0, 0.25)


def test_shell_partition_covers_all_nodes():
    grid = RadialGrid(3, 4.0, 0.5)
    w = np.ones(grid.shape)
    counts = grid.shell_sums(grid.bin_sums(lambda s, e: w[s:e])) / grid.cell_volume
    assert counts.sum() == grid.size
    brute = np.bincount(np.floor(grid.radii / grid.h).astype(int).ravel())
    assert np.array_equal(counts, brute)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([3, 4, 5]), half_m=st.integers(1, 5),
       h=st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0]))
def test_radial_index_bins_one_radius(n, half_m, h):
    # every bin b holds the nodes of the one q = 4|x|^2/h^2 = 8b + n, and
    # its radius is the nodes' radius to within 4 ulp (h is a power of two,
    # so the node coordinates themselves carry no rounding); the index of
    # a slab of rows is that slab's part of the grid's, for 1-, 3- and
    # m-row slabs
    grid = RadialGrid(n, half_m * h, h)
    s = 2 * np.indices(grid.shape) + 1 - grid.m
    q = np.sum(s ** 2, axis=0).ravel()
    m = grid.m
    for rows in (1, 3, m):
        b = np.concatenate([grid.slab_bins(i, min(i + rows, m)) for i in range(0, m, rows)])
        assert b.dtype == np.intp
        assert np.array_equal(q, 8 * b + n)
    assert b.max() < grid.n_bins
    node_r = np.sqrt(np.sum(grid.points ** 2, axis=-1)).ravel()
    assert np.all(np.abs(grid.bin_radii[b] - node_r) <= 4 * np.spacing(node_r))


@pytest.mark.parametrize("grid", [RadialGrid(3, 2.0, 0.25), RadialGrid(4, 1.5, 0.25)])
def test_surface_integral_matches_node_band(grid):
    # against the band R - h/2 <= |x| < R + h/2 masked on the node radii
    w = np.random.default_rng(5).random(grid.shape)
    r = np.sqrt(np.sum(grid.points ** 2, axis=-1))
    sums = grid.bin_sums(lambda s, e: w[s:e])
    for R in (0.3, 0.7, 1.0, 1.3):
        brute = w[(r >= R - grid.h / 2) & (r < R + grid.h / 2)].sum() * grid.cell_volume / grid.h
        assert abs(grid.surface_integral(sums, R) - brute) <= 1e-12 * brute


def test_integrate_constant():
    grid = RadialGrid(3, 2.0, 0.5)
    vals = np.ones(grid.shape)
    assert np.isclose(grid.integrate(vals), (2 * grid.L) ** 3)


def test_surface_integral_sphere_area():
    # integral of 1 over |x| = R should approach 4 pi R^2
    grid = RadialGrid(3, 4.0, 0.125)
    R = 2.0
    w = np.ones(grid.shape)
    approx = grid.surface_integral(grid.bin_sums(lambda s, e: w[s:e]), R)
    assert abs(approx - 4 * math.pi * R ** 2) / (4 * math.pi * R ** 2) < 0.01


def test_origin_interpolation_of_smooth_field():
    grid = RadialGrid(3, 2.0, 0.25)
    u = ScalarField.from_callable(grid, lambda X: np.exp(-np.sum(X ** 2, axis=-1)))
    # the 8 nearest neighbors average to e^{-3h^2/4} + O(h^4)
    val = grid.interpolate_origin(u.values)
    assert abs(val - 1.0) < 0.05
    assert abs(val - math.exp(-3 * grid.h ** 2 / 4)) < 1e-12


def test_scalar_field_shape_and_finite_checks():
    grid = RadialGrid(3, 2.0, 0.5)
    with pytest.raises(GridError):
        ScalarField(grid, np.ones((3, 3)))
    bad = np.ones(grid.shape)
    bad[0, 0, 0] = np.inf
    with pytest.raises(GridError):
        ScalarField(grid, bad)


def test_snapshot_round_trip_bit_exact(tmp_path):
    grid = RadialGrid(3, 2.0, 0.5)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    f = ScalarField(grid, vals)
    path = tmp_path / "snap.field"
    save_field(f, path)
    g = load_field(path)
    assert g.grid == grid
    assert np.array_equal(g.values, f.values)


def test_snapshot_rejects_other_files(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a snapshot")
    with pytest.raises(GridError):
        load_field(path)
