import math

import numpy as np
import pytest

from morcam.errors import ParameterError
from morcam.grids import RadialGrid
from morcam.multipliers import make_phi, make_varphi, sphere_area

rng = np.random.default_rng(7)


def random_cases(count):
    for _ in range(count):
        n = int(rng.choice([3, 4, 5, 7]))
        R = float(rng.uniform(0.3, 5.0))
        M = float(rng.uniform(0.0, 3.0))
        yield n, R, M


# --- phi ---------------------------------------------------------------------


def test_phi_continuity_at_scale():
    for n, R, M in random_cases(20):
        mult = make_phi(n, R, M)
        left = mult.dphi(R * (1 - 1e-13))
        right = mult.dphi(R * (1 + 1e-13))
        assert abs(left - right) < 1e-12
        assert abs(left - (M + (n - 1) / (2 * n))) < 1e-10


def test_phi_reference_values_3d():
    mult = make_phi(3, 1.0, 0.0)
    assert np.isclose(mult.dphi(1.0 - 1e-12), 1.0 / 3)
    assert np.isclose(mult.dphi(1.0 + 1e-12), 0.5 - 1.0 / 6)
    assert np.isclose(mult.d2phi(0.7), 1.0 / 3)
    assert np.isclose(mult.lap_phi(1.0), 1.0)


def test_phi_bounds_on_ladder():
    r = np.logspace(-3, 3, 10_000)
    for n, R, M in random_cases(20):
        mult = make_phi(n, R, M)
        dp, d2p, lap = mult.dphi(r), mult.d2phi(r), mult.lap_phi(r)
        assert dp.min() >= M - 1e-12
        assert dp.max() <= M + 0.5 + 1e-12
        assert d2p.min() >= -1e-15
        assert d2p.max() <= (n - 1) / (2 * n * R) + 1e-12
        assert np.all(lap >= -1e-15)
        assert np.all(lap <= (2 * M + 1) * (n - 1) / (2 * r) + 1e-12)


def test_phi_laplacian_consistency():
    r = np.logspace(-2, 2, 5000)
    for n, R, M in random_cases(10):
        mult = make_phi(n, R, M)
        # skip the kink at r = R where the one-sided pieces differ
        mask = np.abs(r - R) > 1e-6 * R
        lhs = mult.lap_phi(r[mask])
        rhs = mult.d2phi(r[mask]) + (n - 1) * mult.dphi(r[mask]) / r[mask]
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(lhs).max())


def test_phi_scaling_relation():
    r = rng.uniform(0.05, 10.0, 10)
    for n in (3, 4, 6):
        M = 0.8
        ref = make_phi(n, 1.0, M)
        for R in (0.5, 2.0, 7.0):
            scaled = make_phi(n, R, M)
            assert np.allclose(scaled.dphi(r), ref.dphi(r / R), atol=1e-12)


def test_phi_atoms():
    mult = make_phi(3, 2.0, 1.5)
    assert mult.origin_atom is not None
    assert np.isclose(mult.origin_atom.mass, -8 * math.pi * 1.5)
    assert np.isclose(mult.sphere_atom.density, -2 / (2 * 4.0))
    assert np.all(mult.bilap_smooth(np.linspace(0.1, 5, 50)) == 0.0)

    m5 = make_phi(5, 1.0, 1.0)
    assert m5.origin_atom is None
    assert np.isclose(m5.sphere_atom.density, -4 / 2)
    assert np.isclose(m5.bilap_smooth(0.5), -1.0 * 4 * 2 / 0.5 ** 3)
    assert np.isclose(m5.bilap_smooth(2.0), -1.5 * 4 * 2 / 8.0)


def test_phi_smooth_bilaplacian_against_differences():
    # second radial derivative check of Delta phi away from the kinks
    n, R, M = 5, 1.0, 1.0
    mult = make_phi(n, R, M)
    for r0 in (0.4, 2.3):
        h = 1e-4
        lap = lambda r: mult.lap_phi(np.asarray(r))
        d2 = (lap(r0 + h) - 2 * lap(r0) + lap(r0 - h)) / h ** 2
        d1 = (lap(r0 + h) - lap(r0 - h)) / (2 * h)
        approx = d2 + (n - 1) * d1 / r0
        assert abs(approx - mult.bilap_smooth(r0)) < 1e-5


def test_phi_parameter_errors():
    with pytest.raises(ParameterError):
        make_phi(3, -1.0, 0.0)
    with pytest.raises(ParameterError):
        make_phi(3, 1.0, -0.5)
    with pytest.raises(ParameterError):
        make_phi(2, 1.0, 0.0)


@pytest.mark.parametrize("R", [math.nan, math.inf, 0.0, -1.0])
def test_scale_must_be_finite_and_positive(R):
    # a NaN scale passed the former R <= 0 test and gave a nan density
    for make in (lambda: make_phi(3, R, 1.0), lambda: make_varphi(3, R, 1e-3)):
        with pytest.raises(ParameterError, match="scale R"):
            make()


def test_distributional_pairing_refines_second_order():
    # pairing of the stored bilaplacian with radial test functions vs
    # the integration-by-parts side int Delta phi * Delta psi
    def run(n, R, M, a, b, h):
        mult = make_phi(n, R, M)
        omega = sphere_area(n, 1.0)
        r = np.arange(h / 2, 30.0, h)
        psi = np.exp(-a * (r - b) ** 2)
        dpsi = -2 * a * (r - b) * psi
        d2psi = (-2 * a + 4 * a * a * (r - b) ** 2) * psi
        w = omega * r ** (n - 1) * h
        rhs = float(np.sum(mult.lap_phi(r) * (d2psi + (n - 1) * dpsi / r) * w))
        lhs = float(np.sum(mult.bilap_smooth(r) * psi * w))
        if mult.origin_atom is not None:
            lhs += mult.origin_atom.mass * math.exp(-a * b ** 2)
        lhs += mult.sphere_atom.pair_radial(math.exp(-a * (R - b) ** 2), n)
        return abs(lhs - rhs)

    for n in (3, 5):
        for _ in range(3):
            R = float(rng.uniform(1.0, 3.0))
            M = float(rng.uniform(0.0, 2.0))
            a = float(rng.uniform(0.5, 1.5))
            b = float(rng.uniform(0.0, 2.0))
            coarse = run(n, R, M, a, b, R / 200)
            fine = run(n, R, M, a, b, R / 400)
            assert coarse / max(fine, 1e-300) > 3.5


# --- varphi ------------------------------------------------------------------


def test_varphi_reference_values():
    w = make_varphi(3, 1.0, 0.1)
    assert np.isclose(w.value(0.5), 0.1)
    assert np.isclose(w.value(2.0), 0.05)
    assert np.isclose(w.sphere_atom.density, -0.1)
    assert w.lap_smooth(np.array([0.5, 2.0])).max() == 0.0

    w4 = make_varphi(4, 1.0, 0.1)
    assert np.isclose(w4.lap_smooth(2.0), -0.1 / 8)


def test_varphi_continuity():
    w = make_varphi(5, 2.0, 0.2)
    assert np.isclose(w.value(2.0 - 1e-12), w.value(2.0 + 1e-12))


def test_varphi_beta_range():
    with pytest.raises(ParameterError):
        make_varphi(3, 1.0, 0.4)
    with pytest.raises(ParameterError):
        make_varphi(3, 1.0, 0.0)
    with pytest.raises(ParameterError):
        make_varphi(3, -2.0, 0.1)
    make_varphi(4, 1.0, 0.37)  # (n-1)/2n = 0.375 for n = 4


# --- hessian split -----------------------------------------------------------


def split_form(split_of, mult, grid, g):
    """phi''|g_r|^2 + phi'/r |g_tau|^2 per node, as identity_residual
    forms the Hessian term."""
    g2, g_r = split_of(g, grid)
    g_r2 = np.abs(g_r) ** 2
    r = grid.radii
    return mult.d2phi(r) * g_r2 + mult.dphi(r) / r * np.maximum(g2 - g_r2, 0.0)


def test_hessian_split_radial_and_tangential(split_of):
    mult = make_phi(3, 1.0, 0.5)
    grid = RadialGrid(3, 2.0, 0.5)
    r = grid.radii
    xhat = grid.points / r[..., None]
    assert np.allclose(split_form(split_of, mult, grid, 3.0 * xhat), mult.d2phi(r) * 9.0)
    tan = np.cross([0.0, 0.0, 1.0], xhat)
    assert np.allclose(split_form(split_of, mult, grid, tan),
                       mult.dphi(r) / r * np.sum(tan ** 2, axis=-1))


def test_hessian_split_matches_dense_form(split_of):
    mult = make_phi(4, 1.3, 0.7)
    grid = RadialGrid(4, 1.5, 0.5)
    g = (rng.standard_normal(grid.shape + (4,))
         + 1j * rng.standard_normal(grid.shape + (4,)))
    r = grid.radii[..., None, None]
    xhat = grid.points / grid.radii[..., None]
    P = xhat[..., :, None] * xhat[..., None, :]
    H = mult.d2phi(r) * P + mult.dphi(r) / r * (np.eye(4) - P)
    dense = np.real(np.einsum("...i,...ij,...j->...", np.conj(g), H, g))
    err = np.abs(split_form(split_of, mult, grid, g) - dense)
    assert np.all(err < 1e-12 * np.maximum(1.0, np.abs(dense)))
