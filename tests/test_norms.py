import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morcam.errors import MorcamError, ParameterError
from morcam.fields import PotentialPair, example_field, make_potential_pair
from morcam.grids import RadialGrid, ScalarField
from morcam.norms import (_mc_sup_sq, _sphere_sup, duality_gap, dyadic_dual,
                          hardy_ratio, mixed_radial_norm, morrey_campanato,
                          theorem_lhs, theorem_rhs, weighted_sup_norm)
from morcam.resolvent import Discretization

rng = np.random.default_rng(11)


def ball_indicator(grid, radius=1.0):
    return ScalarField(grid, (grid.radii <= radius).astype(complex))


def random_bump(grid, spread=2.0):
    c = rng.uniform(-spread, spread, grid.n)
    w = rng.uniform(0.5, 1.5)
    vals = np.exp(-np.sum((grid.points - c) ** 2, axis=-1) / w ** 2)
    return ScalarField(grid, vals.astype(complex))


# --- Morrey-Campanato --------------------------------------------------------


def test_mc_zero_field():
    grid = RadialGrid(3, 2.0, 0.5)
    value, _ = morrey_campanato(ScalarField.zeros(grid))
    assert value == 0.0


def test_mc_unit_ball_indicator():
    # closed form: (1/R)(4 pi/3) min(R,1)^3 maximized at R = 1 -> 4 pi/3
    grid = RadialGrid(3, 4.0, 0.0625)
    value, rstar = morrey_campanato(ball_indicator(grid))
    assert abs(value ** 2 - 4 * math.pi / 3) / (4 * math.pi / 3) < 0.01
    assert abs(rstar - 1.0) < 2 * grid.h


def test_mc_inverse_radius_flat_profile():
    # u = 1/|x|: (1/R) int_{<=R} r^-2 = 4 pi for every R <= L
    grid = RadialGrid(3, 4.0, 0.0625)
    u = ScalarField(grid, (1.0 / grid.radii).astype(complex))
    order = np.argsort(grid.radii, axis=None, kind="stable")
    r = grid.radii.ravel()[order]
    csum = np.cumsum(u.abs2().ravel()[order]) * grid.cell_volume
    profile = csum / r
    inner = (r > 1.0) & (r < grid.L)
    assert np.abs(profile[inner] - 4 * math.pi).max() / (4 * math.pi) < 0.07


def test_mc_homogeneity():
    grid = RadialGrid(3, 2.0, 0.25)
    u = random_bump(grid, spread=0.8)
    v1, _ = morrey_campanato(u)
    v2, _ = morrey_campanato(ScalarField(grid, 3.0 * u.values))
    assert np.isclose(v2, 3.0 * v1)


# --- radial reductions against node-level oracles -----------------------------

ORACLE_GRIDS = [RadialGrid(3, 2.0, 0.25), RadialGrid(3, 1.5, 0.125), RadialGrid(4, 1.5, 0.25)]


def node_radii(grid):
    return np.sqrt(np.sum(grid.points ** 2, axis=-1)).ravel()


@pytest.mark.parametrize("grid", ORACLE_GRIDS)
def test_mc_sup_matches_node_scan(grid):
    # sup over node radii R of (1/R) sum_{|x| <= R} w h^n, every R scanned
    w = np.random.default_rng(1).random(grid.shape)
    r = node_radii(grid)
    R = np.unique(r)
    ratios = (r[None, :] <= R[:, None] * (1 + 1e-12)) @ w.ravel() * grid.cell_volume / R
    k = int(np.argmax(ratios))
    sup, rstar = _mc_sup_sq(grid, grid.bin_sums(w))
    assert abs(sup - ratios[k]) <= 1e-12 * ratios[k]
    assert abs(rstar - R[k]) <= 1e-12 * R[k]


@pytest.mark.parametrize("grid", ORACLE_GRIDS)
def test_sphere_sup_matches_node_shells(grid):
    u = ScalarField(grid, np.sqrt(np.random.default_rng(2).random(grid.shape)))
    shells = np.bincount(np.floor(node_radii(grid) / grid.h).astype(int),
                         weights=u.abs2().ravel()) * grid.cell_volume / grid.h
    radii = (np.arange(shells.size) + 0.5) * grid.h
    vals = (shells / radii ** 2)[2:]
    value, rstar = _sphere_sup(grid, grid.bin_sums(u.abs2()))
    assert abs(value - vals.max()) <= 1e-12 * vals.max()
    assert rstar == radii[int(np.argmax(vals)) + 2]


@pytest.mark.parametrize("grid", ORACLE_GRIDS)
def test_dyadic_dual_matches_node_shells(grid):
    f = ScalarField(grid, np.sqrt(np.random.default_rng(3).random(grid.shape)))
    w = f.abs2().ravel() * grid.cell_volume
    j = np.floor(np.log2(node_radii(grid))).astype(int)
    lo = math.ceil(math.log2(grid.h / 2))
    hi = math.floor(math.log2(grid.L))
    terms = [math.sqrt(2.0 ** (i + 1) * w[j == i].sum()) for i in range(lo, hi + 1)]
    dropped = w[(j < lo) | (j > hi)].sum()
    last = [t for t in terms if t > 0][-1]
    value, tail = dyadic_dual(f)
    assert abs(value - sum(terms)) <= 1e-12 * sum(terms)
    expect_tail = last + math.sqrt(2.0 ** (hi + 2) * dropped)
    assert abs(tail - expect_tail) <= 1e-12 * expect_tail


# --- dyadic dual -------------------------------------------------------------


def test_dyadic_zero():
    grid = RadialGrid(3, 2.0, 0.5)
    value, tail = dyadic_dual(ScalarField.zeros(grid))
    assert value == 0.0


def test_dyadic_first_shell_indicator():
    # f = indicator of 1 <= |x| < 2: N = sqrt(2 * (4 pi/3)(8 - 1))
    grid = RadialGrid(3, 4.0, 0.0625)
    vals = ((grid.radii >= 1.0) & (grid.radii < 2.0)).astype(complex)
    value, _ = dyadic_dual(ScalarField(grid, vals))
    expect = math.sqrt(56 * math.pi / 3)
    assert abs(value - expect) / expect < 0.01


def test_dyadic_single_shell_exact_sum():
    grid = RadialGrid(3, 4.0, 0.125)
    vals = ((grid.radii >= 1.0) & (grid.radii < 2.0)).astype(complex)
    f = ScalarField(grid, vals)
    value, _ = dyadic_dual(f)
    mass = f.grid.integrate(f.abs2())
    assert np.isclose(value, math.sqrt(2 * mass))


def test_dyadic_gaussian_truncation_stable():
    # the last shell is j_max = floor(log2 L): 2 on the L = 4 box, 3 on L = 8
    def gauss(X):
        return np.exp(-np.sum(X ** 2, axis=-1))

    narrow, _ = dyadic_dual(ScalarField.from_callable(RadialGrid(3, 4.0, 0.25), gauss))
    wide, _ = dyadic_dual(ScalarField.from_callable(RadialGrid(3, 8.0, 0.25), gauss))
    assert abs(narrow - wide) < 1e-6


def test_dyadic_homogeneity_and_monotonicity():
    grid = RadialGrid(3, 4.0, 0.25)
    f = random_bump(grid, spread=1.0)
    v1, _ = dyadic_dual(f)
    v2, _ = dyadic_dual(ScalarField(grid, 2.5 * f.values))
    assert np.isclose(v2, 2.5 * v1)
    bigger = ScalarField(grid, np.abs(f.values) + 0.1)
    v3, _ = dyadic_dual(bigger)
    assert v3 >= v1


# --- duality -----------------------------------------------------------------


def test_duality_trivial():
    grid = RadialGrid(3, 2.0, 0.5)
    z = ScalarField.zeros(grid)
    assert duality_gap(z, z) == (0.0, 0.0)


def test_duality_ball_pair():
    grid = RadialGrid(3, 4.0, 0.125)
    f = ball_indicator(grid)
    lhs, rhs = duality_gap(f, f)
    assert abs(lhs - 4 * math.pi / 3) / (4 * math.pi / 3) < 0.02
    # the ball spans several dyadic shells, so the dual-norm side carries
    # genuine slack over the raw pairing
    assert rhs > 1.2 * lhs


@settings(max_examples=40, deadline=None)
@given(grid=st.sampled_from([RadialGrid(3, 4.0, 0.25), RadialGrid(3, 2.0, 0.125),
                             RadialGrid(4, 2.0, 0.5)]),
       decay=st.floats(0.0, 4.0), seed=st.integers(0, 2 ** 16))
def test_duality_random_pairs(grid, decay, seed):
    # on these grids every node lies in a dyadic shell N(f) counts, so no
    # mass is dropped and the pairing bound holds exactly
    r = np.random.default_rng(seed)

    def field():
        vals = r.standard_normal(grid.shape) + 1j * r.standard_normal(grid.shape)
        return ScalarField(grid, vals * (1 + grid.radii) ** -r.uniform(0, decay))

    def bump():
        c, w = r.uniform(-2.0, 2.0, grid.n), r.uniform(0.5, 1.5)
        return ScalarField(grid, np.exp(-np.sum((grid.points - c) ** 2, axis=-1) / w ** 2))

    for f, g in ((field(), field()), (bump(), bump())):
        lhs, rhs = duality_gap(f, g)
        assert lhs <= rhs * (1 + 1e-10)


def test_duality_grid_mismatch():
    f = ScalarField.zeros(RadialGrid(3, 2.0, 0.5))
    g = ScalarField.zeros(RadialGrid(3, 2.0, 0.25))
    with pytest.raises(MorcamError):
        duality_gap(f, g)


# --- mixed radial norms ------------------------------------------------------


def test_mixed_norm_zero():
    assert mixed_radial_norm(lambda X: np.zeros(np.asarray(X).shape[:-1]), 2, 1.5, n=3) == 0.0


def test_mixed_norm_shell_inverse_square():
    # w = |x|^-2 on 1 <= |x| <= 2, exponent 3/2, p = 2 -> sqrt(ln 2)
    def w(X):
        r = np.sqrt(np.sum(np.asarray(X, float) ** 2, axis=-1))
        return np.where((r >= 1) & (r <= 2), 1.0 / r ** 2, 0.0)

    value = mixed_radial_norm(w, 2, 1.5, n=3)
    assert abs(value - math.sqrt(math.log(2))) < 1e-2


def test_mixed_norm_critical_decay_diverges():
    # (d_r V)_+ = 1/r^2 for V = -1/|x|; exponent 2, p=1 integrand is constant
    def w(X):
        r = np.sqrt(np.sum(np.asarray(X, float) ** 2, axis=-1))
        return 1.0 / r ** 2

    assert mixed_radial_norm(w, 1, 2.0, n=3) == math.inf


def test_mixed_norm_rejects_bad_p():
    with pytest.raises(ParameterError):
        mixed_radial_norm(lambda X: np.zeros(np.asarray(X).shape[:-1]), 3, 1.0, n=3)


def test_weighted_sup_norm_finite_and_divergent():
    def w_decay(X):
        r = np.sqrt(np.sum(np.asarray(X, float) ** 2, axis=-1))
        return 2.0 / r ** 3

    assert np.isclose(weighted_sup_norm(w_decay, 3.0, 4), 2.0)

    def w_grow(X):
        r = np.sqrt(np.sum(np.asarray(X, float) ** 2, axis=-1))
        return 1.0 / r ** 2

    assert weighted_sup_norm(w_grow, 3.0, 4) == math.inf


# --- sphere supremum ---------------------------------------------------------


def test_sphere_sup_constant():
    grid = RadialGrid(3, 4.0, 0.125)
    u = ScalarField(grid, np.ones(grid.shape, complex))
    value, _ = _sphere_sup(grid, grid.bin_sums(u.abs2()))
    # (1/R^2) * 4 pi R^2 = 4 pi for every R (shell staircase inflates a bit
    # near the origin where shells are poorly resolved)
    assert abs(value - 4 * math.pi) / (4 * math.pi) < 0.35


def test_sphere_sup_gaussian_maximizer():
    grid = RadialGrid(3, 4.0, 0.125)
    u = ScalarField.from_callable(grid, lambda X: np.exp(-np.sum(X ** 2, axis=-1)))
    _, rstar = _sphere_sup(grid, grid.bin_sums(u.abs2()))
    # dense oracle: maximize 4 pi e^{-2r^2} over r, i.e. r -> 0
    assert rstar < 4 * grid.h


# --- Hardy -------------------------------------------------------------------


def test_hardy_gaussian_free():
    grid = RadialGrid(3, 6.0, 0.125)
    u = ScalarField.from_callable(grid, lambda X: np.exp(-np.sum(X ** 2, axis=-1)))
    assert hardy_ratio(u, Discretization(grid, PotentialPair(3))) <= 4.0


def test_hardy_magnetic():
    grid = RadialGrid(3, 6.0, 0.25)
    disc = Discretization(grid, example_field("ex13"))
    for _ in range(5):
        u = random_bump(grid, spread=1.5)
        assert hardy_ratio(u, disc) <= 4.0 * (1 + 5 * grid.h)


def test_hardy_zero_is_undefined():
    grid = RadialGrid(3, 2.0, 0.5)
    with pytest.raises(MorcamError):
        hardy_ratio(ScalarField.zeros(grid), Discretization(grid, PotentialPair(3)))


# --- estimate sides ----------------------------------------------------------


def test_theorem_lhs_zero_field():
    grid = RadialGrid(3, 2.0, 0.25)
    rep = theorem_lhs(ScalarField.zeros(grid), Discretization(grid, PotentialPair(3)),
                      0.0, 1.0, 0.1)
    for key, value in rep.values.items():
        if key != "delta":
            assert value == 0.0
    assert rep.total == 0.0


def test_theorem_lhs_free_case_vanishing_terms():
    grid = RadialGrid(3, 4.0, 0.25)
    u = random_bump(grid, spread=1.0)
    rep = theorem_lhs(u, Discretization(grid, PotentialPair(3)), 0.0, 1.0, 0.1)
    assert rep.values["drV_minus"] == 0.0
    assert rep.values["V_minus"] == 0.0
    assert rep.values["lambda_term"] == 0.0
    assert rep.values["grad_mc_sq"] > 0
    assert rep.values["sphere_sup"] > 0


def test_theorem_lhs_matches_direct_quadrature():
    # entry-by-entry recomputation with plain numpy on the same samples
    grid = RadialGrid(3, 4.0, 0.25)
    pp = make_potential_pair(3, None, {"name": "gaussian", "amplitude": -1.0})
    u = ScalarField.from_callable(grid, lambda X: np.exp(-np.sum(X ** 2, axis=-1)))
    lam, M, delta = 0.7, 1.3, 0.05
    rep = theorem_lhs(u, Discretization(grid, pp), lam, M, delta)

    r = grid.radii
    u2 = u.abs2()
    hv = grid.cell_volume
    V = pp.eval_V(grid.points)
    dvr = pp.dV_r(grid.points)
    drv_minus = np.maximum(-dvr, 0.0)
    v_minus = np.maximum(-V, 0.0)
    assert np.isclose(rep.values["drV_minus"],
                      (M / 2) * np.sum(drv_minus * u2) * hv, rtol=1e-10)
    assert np.isclose(rep.values["V_minus"],
                      np.sum(v_minus * u2 / np.sqrt(1 + r ** 2)) * hv, rtol=1e-10)
    assert np.isclose(rep.values["lambda_term"],
                      lam * np.sum(u2 / np.sqrt(1 + r ** 2)) * hv, rtol=1e-10)
    total = (rep.values["grad_mc_sq"] + rep.values["origin_sq"]
             + rep.values["drV_minus"]
             + delta * (rep.values["V_minus"] + rep.values["lambda_term"]
                        + rep.values["tangential"] + rep.values["sphere_sup"]))
    assert np.isclose(rep.total, total, rtol=1e-12)


def test_theorem_lhs_reads_the_capped_potential():
    # coulomb c = -10 exceeds the cap 1/h^2 = 4 inside r = 2.5: the left
    # side is evaluated on the V the operator solves with
    grid = RadialGrid(3, 4.0, 0.5)
    pp = make_potential_pair(3, None, {"name": "coulomb", "c": -10.0})
    with pytest.warns(UserWarning, match="capped"):
        disc = Discretization(grid, pp)
    u = ScalarField(grid, np.exp(-np.sum(grid.points ** 2, axis=-1)))
    rep = theorem_lhs(u, disc, 1.0, 1.0, 0.1)
    capped = np.maximum(-np.clip(pp.eval_V(grid.points), -4.0, 4.0), 0.0)
    expect = grid.integrate(capped * u.abs2() / np.sqrt(1 + grid.radii ** 2))
    assert rep.values["V_minus"] == pytest.approx(expect, rel=1e-12)
    assert rep.values["V_minus"] == pytest.approx(6.18, abs=5e-3)
    assert np.all(disc.radial_derivative()[disc.capped] == 0.0)


@pytest.mark.parametrize("A, V", [(None, None),
                                  ("ex13", {"name": "exp_screened", "amplitude": -0.3})])
def test_theorem_lhs_peak_memory(A, V, traced_memory):
    # transient allocations of one call, in grid-sized float arrays, after
    # the grid's and the discretization's caches are warm; 13.5 when the
    # left side sorted every node radius and kept the (n, *shape) gradient
    grid = RadialGrid(3, 4.0, 0.25)
    disc = Discretization(grid, make_potential_pair(3, A, V))
    r = np.random.default_rng(4)
    u = ScalarField(grid, r.standard_normal(grid.shape) + 1j * r.standard_normal(grid.shape))
    theorem_lhs(u, disc, 1.0, 0.5, 0.1)
    _, peak = traced_memory(lambda: theorem_lhs(u, disc, 1.0, 0.5, 0.1))
    assert peak < 10 * grid.size * 8


def test_theorem_lhs_rejects_negative_lambda():
    grid = RadialGrid(3, 2.0, 0.5)
    for lam in (-1.0, math.nan):
        with pytest.raises(ParameterError, match="lambda"):
            theorem_lhs(ScalarField.zeros(grid), Discretization(grid, PotentialPair(3)),
                        lam, 1.0, 0.1)


def test_theorem_rhs_shell_indicator():
    grid = RadialGrid(3, 4.0, 0.0625)
    vals = ((grid.radii >= 1.0) & (grid.radii < 2.0)).astype(complex)
    f = ScalarField(grid, vals)
    rep = theorem_rhs(dyadic_dual(f), 1.0, 1.0)
    assert abs(rep.total - 56 * math.pi) / (56 * math.pi) < 0.02


def test_theorem_rhs_lambda_zero_convention():
    grid = RadialGrid(3, 4.0, 0.25)
    f = random_bump(grid, spread=1.0)
    rep = theorem_rhs(dyadic_dual(f), 0.0, 1.0)
    assert rep.total == rep.values["N_f_sq"]


def test_theorem_rhs_rejects_zero_eps():
    # and a lambda the operator refuses, in place of the lambda = 0 convention
    dual = dyadic_dual(ScalarField.zeros(RadialGrid(3, 2.0, 0.5)))
    for lam, eps, name in ((1.0, 0.0, "eps"), (1.0, math.nan, "eps"),
                           (math.nan, 1.0, "lambda"), (-2.0, 1.0, "lambda")):
        with pytest.raises(ParameterError, match=name):
            theorem_rhs(dual, lam, eps)
