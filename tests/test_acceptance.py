"""Acceptance gate: one test per advertised guarantee, each printing a
single pass/fail line with the measured quantity at its stated tolerance.
"""

import math

import numpy as np
import pytest

from morcam.admissibility import (admissibility_report, check_condition_3d,
                                  compute_constants)
from morcam.fields import (PotentialPair, example_field, magnetic_matrix,
                           make_potential_pair, trapping_component)
from morcam.grids import RadialGrid, ScalarField
from morcam.multipliers import make_phi, sphere_area
from morcam.norms import duality_gap, dyadic_dual, hardy_ratio, theorem_lhs
from morcam.resolvent import Discretization, build_problem, make_datum, solve
from morcam.verify import epsilon_sweep, estimate_report, manufactured_identity
from oracles import dense_grid_minimum

rng = np.random.default_rng(2024)


def _report(capsys, num, label, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[criterion {num:02d}] {label}: {verdict} ({detail})")
    assert ok, f"criterion {num:02d} failed: {detail}"


def _random_points(count, lo=0.3, hi=4.0, seed=None):
    r = np.random.default_rng(seed)
    pts = r.standard_normal((count, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts * r.uniform(lo, hi, size=(count, 1))


def test_01_trapping_component(capsys):
    pts = _random_points(1000, seed=1)
    # B_tau derived from ex13's analytic Jacobian, without its non_trapping
    # declaration
    ex13 = example_field("ex13")
    exact = PotentialPair(3, A=ex13.A, A_jac=ex13.A_jac, domain_check=ex13.domain_check)
    m_exact = np.linalg.norm(trapping_component(exact, pts), axis=1).max()
    fd = PotentialPair(3, A=exact.eval_A, domain_check=exact.domain_check)
    m_fd = np.linalg.norm(trapping_component(fd, pts), axis=1).max()
    ok = m_exact <= 1e-10 and m_fd <= 1e-6
    _report(capsys, 1, "vortex field is non-trapping", ok,
            f"max|B_tau| analytic {m_exact:.2e} <= 1e-10, "
            f"finite-difference {m_fd:.2e} <= 1e-6")


def test_02_field_family_potential(capsys):
    # the family's closed-form A, its declaration set aside so that its
    # field matrix and B_tau come from central differences, against the
    # field b = h(yhat . omega) y/|y|^3 it claims, as [b x] (the matrix
    # whose product with v is b x v), at seeded points off the omega axis
    def h(s):
        return s / (1 + s ** 2)

    worst_curl = worst_flip = worst_tau = 0.0
    for omega in ((0.0, 0.0, 1.0), (1.0, 2.0, -0.5)):
        fam = example_field("ex14_family", h=h, omega=omega)
        undeclared = PotentialPair(3, A=fam.A, domain_check=fam.domain_check)
        w = np.asarray(omega) / np.linalg.norm(omega)
        pts = _random_points(1000, seed=2)
        yhat = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        pts = pts[np.linalg.norm(np.cross(w, yhat), axis=1) >= 0.1]
        yhat = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        b = h(yhat @ w)[:, None] * yhat / np.sum(pts ** 2, axis=1, keepdims=True)
        b_cross = np.cross(b[:, None, :], np.eye(3)).swapaxes(1, 2)
        scale = np.abs(b_cross).max()
        B = magnetic_matrix(undeclared, pts)
        worst_curl = max(worst_curl, np.abs(B - b_cross).max() / scale)
        worst_flip = max(worst_flip, np.abs(-B - b_cross).max() / scale)
        worst_tau = max(worst_tau, np.abs(trapping_component(undeclared, pts)).max() / scale)
    pts = _random_points(1000, seed=3)
    ex13_A = example_field("ex13").eval_A(pts)
    member = example_field("ex14_family", h=lambda s: 2 * s, omega=(0.0, 0.0, 1.0))
    ex13_gap = np.abs(member.eval_A(pts) - ex13_A).max() / np.abs(ex13_A).max()
    ok = worst_curl <= 1e-6 and worst_tau <= 1e-6 and ex13_gap <= 1e-12 and worst_flip > 1.0
    _report(capsys, 2, "the field family's closed-form A has curl B and B_tau = 0", ok,
            f"field-matrix error {worst_curl:.1e} <= 1e-6 (-A reads {worst_flip:.2f} > 1), "
            f"max|B_tau| {worst_tau:.1e} <= 1e-6, relative to max|b| for two axes; "
            f"h = 2s against ex13's A {ex13_gap:.1e} <= 1e-12")


def test_03_multiplier_calculus(capsys):
    r_ladder = np.logspace(-3, 3, 10_000)
    worst_cont = worst_lap = 0.0
    bounds_ok = True
    for _ in range(20):
        n = int(rng.choice([3, 4, 5, 7]))
        R = float(rng.uniform(0.3, 4.0))
        M = float(rng.uniform(0.0, 3.0))
        mult = make_phi(n, R, M)
        worst_cont = max(worst_cont,
                         abs(mult.dphi(R * (1 - 1e-13)) - mult.dphi(R * (1 + 1e-13))))
        dp = mult.dphi(r_ladder)
        d2p = mult.d2phi(r_ladder)
        lap = mult.lap_phi(r_ladder)
        bounds_ok &= bool(dp.min() >= M - 1e-12
                          and dp.max() <= M + 0.5 + 1e-12
                          and d2p.max() <= (n - 1) / (2 * n * R) + 1e-12
                          and d2p.min() >= -1e-15
                          and np.all(lap >= -1e-15)
                          and np.all(lap <= (2 * M + 1) * (n - 1) / (2 * r_ladder) + 1e-12))
        mask = np.abs(r_ladder - R) > 1e-6 * R
        diff = np.abs(lap[mask] - (d2p[mask] + (n - 1) * dp[mask] / r_ladder[mask]))
        worst_lap = max(worst_lap, float(diff.max() / max(1.0, np.abs(lap).max())))

    def pairing_gap(n, R, M, a, b, h):
        mult = make_phi(n, R, M)
        omega = sphere_area(n, 1.0)
        r = np.arange(h / 2, 40.0, h)
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

    worst_factor = math.inf
    for _ in range(10):
        n = int(rng.choice([3, 5]))
        R = float(rng.uniform(1.0, 3.0))
        M = float(rng.uniform(0.0, 2.0))
        a = float(rng.uniform(0.5, 1.5))
        b = float(rng.uniform(0.0, 2.0))
        coarse = pairing_gap(n, R, M, a, b, R / 200)
        fine = pairing_gap(n, R, M, a, b, R / 400)
        worst_factor = min(worst_factor, coarse / max(fine, 1e-300))

    ok = worst_cont <= 1e-12 and bounds_ok and worst_lap <= 1e-12 \
        and worst_factor >= 3.5
    _report(capsys, 3, "multiplier calculus (continuity, bounds, pairing)", ok,
            f"continuity jump {worst_cont:.1e} <= 1e-12, bounds hold on the "
            f"r-ladder: {bounds_ok}, laplacian consistency {worst_lap:.1e} "
            f"<= 1e-12, pairing refinement factor {worst_factor:.2f} >= 3.5")


def test_04_admissibility_thresholds(capsys):
    # limiting regimes: C1 = 0 flips at C2 = 1; C2 = 0 flips at C1^2 = 1/2
    eps = 1e-9
    limits_ok = (check_condition_3d(0.0, 1 - eps).admissible
                 and not check_condition_3d(0.0, 1 + eps).admissible
                 and check_condition_3d(math.sqrt(0.5) * (1 - eps), 0.0).admissible
                 and not check_condition_3d(math.sqrt(0.5) * (1 + eps), 0.0).admissible)
    worst = 0.0
    for _ in range(1000):
        C1 = float(rng.uniform(0.0, 1.5))
        C2 = float(rng.uniform(0.0, 1.5))
        fast = check_condition_3d(C1, C2).value
        oracle, _ = dense_grid_minimum(C1, C2)
        worst = max(worst, abs(fast - oracle) / max(1.0, oracle))
    ok = limits_ok and worst <= 1e-9
    _report(capsys, 4, "smallness-condition optimum and limiting regimes", ok,
            f"boundary flips at 1e-9: {limits_ok}, closed form vs dense "
            f"scan worst gap {worst:.1e} <= 1e-9 on 1000 pairs")


def _random_smooth_field(grid, r):
    vals = np.zeros(grid.shape, complex)
    for _ in range(3):
        c = r.uniform(-2, 2, 3)
        w = r.uniform(0.5, 1.5)
        amp = r.standard_normal() + 1j * r.standard_normal()
        d2 = np.sum((grid.points - c) ** 2, axis=-1)
        vals += amp * np.exp(-d2 / w ** 2)
    return ScalarField(grid, vals)


def test_05_norm_duality(capsys):
    grid = RadialGrid(3, 8.0, 0.5)
    r = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        f = _random_smooth_field(grid, r)
        g = _random_smooth_field(grid, r)
        lhs, rhs = duality_gap(f, g)
        worst = max(worst, lhs / rhs)
    ok = worst <= 1 + 1e-10
    _report(capsys, 5, "pairing bounded by the dual norm product", ok,
            f"worst |int f conj(g)| / (|||g||| N(f)) = {worst:.6f} "
            f"<= 1 + 1e-10 on 100 pairs")


def test_06_hardy_inequality(capsys):
    grid = RadialGrid(3, 8.0, 0.25)
    r = np.random.default_rng(66)
    discs = [Discretization(grid, PotentialPair(3)),
             Discretization(grid, example_field("ex13"))]
    worst = 0.0
    for _ in range(50):
        c = r.uniform(-2, 2, 3)
        a = r.uniform(0.5, 2.0)
        th = r.uniform(0, 1)
        d2 = np.sum((grid.points - c) ** 2, axis=-1)
        u = ScalarField(grid, np.exp(-a * d2) * np.exp(1j * th * grid.points[..., 0]))
        for disc in discs:
            worst = max(worst, hardy_ratio(u, disc))
    bound = 4 * (1 + 5 * grid.h)
    ok = worst <= bound
    _report(capsys, 6, "weighted mass controlled by covariant-gradient energy",
            ok, f"worst ratio {worst:.3f} <= {bound:.2f} over 50 bumps x "
                f"two potentials")


PAIRS_2x2 = [
    (None, None),
    ({"name": "ex13"}, None),
    (None, {"name": "gaussian", "amplitude": 0.5}),
    ({"name": "ex13"}, {"name": "gaussian", "amplitude": 0.5}),
]


def test_07_solver_contract(capsys):
    grid = RadialGrid(3, 8.0, 0.5)
    worst_res = 0.0
    worst_abs = 0.0
    for A, V in PAIRS_2x2:
        pp = make_potential_pair(3, A, V)
        prob = build_problem(pp, 1.0, 0.5, {"name": "gaussian", "width": 0.8}, grid)
        u = solve(prob, tol=1e-10)
        worst_res = max(worst_res, u.residual)
        lhs = 0.5 * grid.integrate(u.abs2())
        rhs = grid.integrate(np.abs(prob.f.values * u.values))
        worst_abs = max(worst_abs, lhs / rhs)
    ok = worst_res <= 1e-9 and worst_abs <= 1 + 1e-8
    _report(capsys, 7, "solver residual and absorption inequality", ok,
            f"worst apply-residual {worst_res:.1e} <= 1e-9, worst "
            f"|eps| int|u|^2 / int|fu| = {worst_abs:.4f} <= 1 + 1e-8")


def test_08_gauge_covariance(capsys):
    def chi(X):
        return 0.7 * np.sin(0.8 * X[..., 0]) + 0.4 * X[..., 1] * np.exp(
            -0.1 * np.sum(X ** 2, axis=-1))

    def grad_chi(X):
        X = np.asarray(X, float)
        e = np.exp(-0.1 * np.sum(X ** 2, axis=-1))
        g = np.zeros_like(X)
        g[..., 0] = 0.56 * np.cos(0.8 * X[..., 0]) \
            - 0.08 * X[..., 1] * X[..., 0] * e
        g[..., 1] = 0.4 * e - 0.08 * X[..., 1] ** 2 * e
        g[..., 2] = -0.08 * X[..., 1] * X[..., 2] * e
        return g

    base = example_field("ex13")
    shifted = PotentialPair(3, A=lambda X: base.eval_A(X) + grad_chi(X),
                            domain_check=base.domain_check)
    tol = 1e-12
    errs = {}
    for h in (0.25, 0.125):
        grid = RadialGrid(3, 4.0, h)
        f = make_datum(grid, {"name": "gaussian", "width": 0.6})
        ph = np.exp(1j * chi(grid.points))
        u0 = solve(build_problem(base, 0.5, 0.5, f, grid), tol=tol)
        f1 = ScalarField(grid, ph * f.values)
        u1 = solve(build_problem(shifted, 0.5, 0.5, f1, grid), tol=tol)
        errs[h] = float(np.abs(u1.values - ph * u0.values).max())
    # the constant in the bound C h^2 + 10 tol is free; fit it over both
    # levels, then the substantive check is the second-order reduction
    C = max(err / h ** 2 for h, err in errs.items())
    factor = errs[0.25] / errs[0.125]
    ok = factor >= 3.5 and all(
        err <= C * h ** 2 + 10 * tol for h, err in errs.items())
    _report(capsys, 8, "solutions transform covariantly under gauge shifts",
            ok, f"max-norm gap {errs[0.25]:.2e} -> {errs[0.125]:.2e} "
                f"(C = {C:.2e}), reduction factor {factor:.2f} >= 3.5")


def test_09_identity_verification(capsys):
    def bump(X):
        c = np.array([1.8, 0.6, 0.4])
        d2 = np.sum((X - c) ** 2, axis=-1)
        return np.exp(-0.75 * d2) * np.exp(0.3j * X[..., 0])

    worst_coarse = 0.0
    worst_factor = math.inf
    for A, V in PAIRS_2x2:
        pp = make_potential_pair(3, A, V)
        reps = {}
        for h in (0.25, 0.125):
            grid = RadialGrid(3, 8.0, h)
            reps[h] = manufactured_identity(pp, grid, bump, lam=0.0, eps=1.0)
        worst_coarse = max(worst_coarse, reps[0.25].residual_rel)
        worst_factor = min(worst_factor,
                           reps[0.25].residual_rel / reps[0.125].residual_rel)
    ok = worst_coarse <= 0.05 and worst_factor >= 1.7
    _report(capsys, 9, "multiplier identity on manufactured solutions", ok,
            f"worst relative residual {worst_coarse:.4f} <= 0.05 at h = 0.25, "
            f"worst h -> h/2 reduction {worst_factor:.2f} >= 1.7 over the "
            f"four potential combinations")


def test_10_epsilon_uniformity(capsys):
    grid = RadialGrid(3, 16.0, 0.5)
    datum = {"name": "wave", "width": 2.0, "k": 3.5}
    eps_list = [1.0, 0.1, 0.01, 1e-3]
    configs = {
        "free": PotentialPair(3),
        "magnetic": make_potential_pair(3, {"name": "ex13"},
                                        {"name": "exp_screened", "amplitude": 0.3}),
    }
    details = []
    ok = True
    for label, pp in configs.items():
        rep = epsilon_sweep(pp, 1.0, datum, eps_list, grid, tol=1e-9)
        spread = rep.max_ratio / rep.min_ratio
        ok &= (not rep.blow_up) and spread <= 10 and not rep.errors
        details.append(f"{label}: spread {spread:.2f}, blow_up {rep.blow_up}")
    _report(capsys, 10, "estimate ratio uniform across the eps ladder", ok,
            "; ".join(details) + "; bounds: spread <= 10, no blow-up")


def test_11_lhs_positivity(capsys):
    grid = RadialGrid(3, 8.0, 0.5)
    configs = [
        make_potential_pair(3, None, None),
        make_potential_pair(3, {"name": "ex13"}, None),
        make_potential_pair(3, {"name": "ex13"},
                            {"name": "exp_screened", "amplitude": 0.3}),
    ]
    worst = 0.0
    for pp in configs:
        adm = admissibility_report(pp)
        assert adm.admissible
        prob = build_problem(pp, 1.0, 0.5, {"name": "gaussian", "width": 0.8}, grid)
        u = solve(prob, tol=1e-10)
        lhs, _, _ = estimate_report(u, dyadic_dual(prob.f), prob.disc, 1.0, 0.5,
                                    adm=adm)
        terms = {k: v for k, v in lhs.values.items() if k != "delta"}
        scale = sum(abs(v) for v in terms.values())
        worst = min(worst, min(terms.values()) / scale)
    ok = worst >= -1e-10
    _report(capsys, 11, "every estimate left-hand-side term is nonnegative",
            ok, f"most negative normalized term {worst:.1e} >= -1e-10 over "
                f"three admissible configurations")


def test_12_inadmissibility_detection(capsys):
    pp = make_potential_pair(3, None, {"name": "coulomb", "c": -1.0})
    C1, C2, C3 = compute_constants(pp)
    rep = check_condition_3d(C1, C2, C3)
    ok = math.isinf(C2) and not rep.admissible
    _report(capsys, 12, "attractive Coulomb potential is rejected", ok,
            f"C2 = {C2}, admissible = {rep.admissible}")
