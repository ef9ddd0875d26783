import math

import numpy as np
import pytest

from morcam.errors import DomainError, ParameterError
from morcam.fields import (PotentialPair, example_field, jacobian_fd,
                           magnetic_matrix, make_potential_pair,
                           radial_derivative_parts, trapping_component)

rng = np.random.default_rng(42)


def random_points(count, lo=0.3, hi=4.0):
    pts = rng.standard_normal((count, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts * rng.uniform(lo, hi, size=(count, 1))


# --- magnetic matrix ---------------------------------------------------------


def test_linear_potential_constant_field():
    pp = PotentialPair(3, A=lambda x: np.stack(
        [-x[..., 1] / 2, x[..., 0] / 2, np.zeros(x.shape[:-1])], axis=-1))
    B = magnetic_matrix(pp, np.array([0.7, -1.3, 2.0]))
    expect = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.allclose(B, expect, atol=1e-9)


def test_pure_gauge_has_zero_field():
    omega = np.array([0.3, -1.1, 0.8])

    def A(x):
        return np.broadcast_to(omega, np.asarray(x).shape).copy()

    pp = PotentialPair(3, A=A)
    B = magnetic_matrix(pp, random_points(20))
    assert np.abs(B).max() < 1e-9


def test_gauge_invariance_of_field_matrix():
    def chi_grad(x):
        x = np.asarray(x, float)
        # grad of chi = sin(x1) + x2 * x3
        g = np.zeros_like(x)
        g[..., 0] = np.cos(x[..., 0])
        g[..., 1] = x[..., 2]
        g[..., 2] = x[..., 1]
        return g

    # neither pair has A_jac, so both go through central differences
    ex13 = example_field("ex13")
    base = PotentialPair(3, A=ex13.A, domain_check=ex13.domain_check)
    shifted = PotentialPair(3, A=lambda x: base.eval_A(x) + chi_grad(x),
                            domain_check=base.domain_check)
    pts = random_points(30)
    B0 = magnetic_matrix(base, pts)
    B1 = magnetic_matrix(shifted, pts)
    assert np.abs(B0 - B1).max() < 1e-6


def test_matrix_antisymmetric_by_construction():
    pp = example_field("ex13")
    B = magnetic_matrix(pp, random_points(50))
    assert np.abs(B + np.swapaxes(B, -1, -2)).max() == 0.0


@pytest.mark.parametrize("name", ["ex13", "ex14"])
def test_analytic_jacobian_matches_differences(name):
    pp = example_field(name)
    pts = random_points(50)
    if name == "ex14":
        # off the z-axis, where ex14 is singular
        pts = pts[pts[:, 0] ** 2 + pts[:, 1] ** 2 > 0.25]
    J_exact = pp.A_jac(pts)
    J_fd = jacobian_fd(pp.eval_A, pts)
    assert np.abs(J_exact - J_fd).max() < 1e-7


# --- trapping component ------------------------------------------------------


def test_trapping_zero_field():
    pp = PotentialPair(3)
    bt = trapping_component(pp, random_points(10))
    assert np.abs(bt).max() == 0.0


def test_trapping_cross_product_oracle():
    # A = (-y/2, x/2, 0): curl A = e3, B_tau at (1,0,0) is x_hat x e3 = (0,-1,0)
    pp = PotentialPair(3, A=lambda x: np.stack(
        [-x[..., 1] / 2, x[..., 0] / 2, np.zeros(x.shape[:-1])], axis=-1))
    bt = trapping_component(pp, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(bt, [0.0, -1.0, 0.0], atol=1e-9)


def _trapping_from_field_matrix(pp, x):
    """(x/|x|) B and max |B|, the scale of B_tau's cancellation noise."""
    B = magnetic_matrix(pp, x)
    xhat = x / np.linalg.norm(x, axis=-1, keepdims=True)
    return np.einsum("...i,...ij->...j", xhat, B), np.abs(B).max()


@pytest.mark.parametrize("pp", [
    example_field("ex13"),
    make_potential_pair(3, {"name": "ex14"}),
    # no analytic Jacobian: central differences
    PotentialPair(3, A=lambda x: np.stack(
        [-x[..., 1] * x[..., 2], x[..., 0] ** 2, np.sin(x[..., 1])], axis=-1)),
    PotentialPair(4, A=lambda x: np.stack(
        [x[..., 3] * x[..., 1], -x[..., 0], np.cos(x[..., 2]), x[..., 0] * x[..., 1]],
        axis=-1)),
], ids=["ex13", "ex14", "fd", "4d"])
def test_trapping_matches_the_field_matrix_formula(pp):
    # (x/|x|) B with B formed for all points at once, on more random points
    # than one block of trapping_component holds, as a flat list and as a grid
    pts = rng.standard_normal((10_000, pp.n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= rng.uniform(0.3, 4.0, size=(10_000, 1))
    for x in (pts, pts[:9261].reshape(21, 21, 21, pp.n)):
        got = trapping_component(pp, x)
        expect, scale = _trapping_from_field_matrix(pp, x)
        assert got.shape == x.shape
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-14 * scale)


def test_trapping_orthogonal_to_x():
    # ex13's B_tau from its analytic Jacobian, without its non_trapping
    # declaration
    ex13 = example_field("ex13")
    pp = PotentialPair(3, A=ex13.A, A_jac=ex13.A_jac)
    pts = random_points(200)
    bt = trapping_component(pp, pts)
    dots = np.einsum("ij,ij->i", bt, pts)
    assert np.abs(dots).max() < 1e-12


def test_trapping_rejects_origin():
    pp = PotentialPair(3, A=lambda x: np.asarray(x, float))
    with pytest.raises(DomainError):
        trapping_component(pp, np.zeros(3))


def test_declared_trapping_rejects_origin():
    # ex13's declared B_tau is read after the same point checks
    with pytest.raises(DomainError):
        trapping_component(example_field("ex13"), np.zeros(3))


# --- example fields ----------------------------------------------------------


def test_ex13_value_by_substitution():
    pp = example_field("ex13")
    A = pp.eval_A(np.array([1.0, 1.0, 1.0]))
    assert np.allclose(A, [-1.0 / 3, 1.0 / 3, 0.0])


def test_ex13_divergence_free():
    pp = example_field("ex13")
    pts = random_points(100)
    J = jacobian_fd(pp.eval_A, pts)
    div = np.trace(J, axis1=-2, axis2=-1)
    assert np.abs(div).max() < 1e-6


def test_ex13_singular_at_origin():
    pp = example_field("ex13")
    with pytest.raises(DomainError):
        pp.domain_check(np.zeros(3))


def test_ex14_value_by_substitution():
    pp = example_field("ex14")
    A = pp.eval_A(np.array([1.0, 0.0, 5.0]))
    assert np.allclose(A, [0.0, 1.0, 0.0])


def test_ex14_zero_field_off_axis():
    pp = example_field("ex14")
    pts = random_points(50)
    pts = pts[pts[:, 0] ** 2 + pts[:, 1] ** 2 > 0.1]
    B = magnetic_matrix(pp, pts)
    assert np.abs(B).max() < 1e-10


def test_ex14_axis_is_domain_error():
    pp = example_field("ex14")
    with pytest.raises(DomainError):
        pp.domain_check(np.array([0.0, 0.0, 2.0]))


@pytest.mark.parametrize("h, omega", [
    (lambda s: 1 + s, (0.0, 0.0, 1.0)),
    (None, (0.0, 0.0, 1.0)), (lambda s: s, None), (lambda s: s, (0.0, 0.0, 0.0)),
    (lambda s: s, (math.nan, 0.0, 1.0)), (lambda s: s, (0.0, 1.0)),
], ids=["nonzero_integral", "no_h", "no_omega", "zero_omega", "nan_omega", "short_omega"])
def test_ex14_family_refuses_bad_parameters(h, omega):
    # h = 1 + s integrates to 2 over [-1, 1]: its A would carry a Dirac
    # string on the -omega axis.  A zero or NaN omega normalized to NaN, so
    # that A read NaN everywhere and the axis check passed every point
    with pytest.raises(ParameterError):
        example_field("ex14_family", h=h, omega=omega)


@pytest.mark.parametrize("point", [[2.0, 4.0, -1.0], [-0.5, -1.0, 0.25], [0.0, 0.0, 0.0]],
                         ids=["omega_axis", "minus_omega_axis", "origin"])
def test_ex14_family_axis_is_domain_error(point):
    pp = example_field("ex14_family", h=lambda s: s, omega=(1.0, 2.0, -0.5))
    with pytest.raises(DomainError):
        pp.domain_check(np.array(point))


# --- radial derivative parts -------------------------------------------------


def test_radial_parts_quadratic():
    # no dV_r: central difference of V = |x|^2, d_r V = 2|x|
    pp = PotentialPair(3, V=lambda x: np.sum(np.asarray(x) ** 2, axis=-1))
    dvr = radial_derivative_parts(pp, np.array([0.0, 0.0, 2.0]))
    assert np.isclose(dvr, 4.0, atol=1e-6)


def test_radial_parts_coulomb_signs():
    rep = make_potential_pair(3, None, {"name": "coulomb", "c": 1.0})
    assert np.isclose(radial_derivative_parts(rep, np.array([1.0, 0.0, 0.0])), -1.0)

    att = make_potential_pair(3, None, {"name": "coulomb", "c": -1.0})
    assert np.isclose(radial_derivative_parts(att, np.array([0.0, 2.0, 0.0])), 0.25)


# --- builders ----------------------------------------------------------------


def test_make_potential_pair_rejects_unknown():
    with pytest.raises(ParameterError):
        make_potential_pair(3, {"name": "nope"}, None)
    with pytest.raises(ParameterError):
        make_potential_pair(3, None, {"name": "nope"})
    with pytest.raises(ParameterError):
        make_potential_pair(4, {"name": "ex13"}, None)
    # an unknown parameter, a missing name, or a spec that is neither a
    # name nor a mapping
    for A_spec, V_spec in (({"name": "ex13", "strength": 5}, None),
                           ({"name": "zero", "c": 3}, None),
                           (None, {"name": "coulomb", "width": 1.0}),
                           ({"c": 1}, None), (None, {"c": 1}),
                           (3, None), (None, ["coulomb"])):
        with pytest.raises(ParameterError):
            make_potential_pair(3, A_spec, V_spec)


def test_dimension_floor():
    with pytest.raises(ParameterError):
        PotentialPair(2)
