import json
import math

import numpy as np
import pytest

from morcam import norms
from morcam.admissibility import (admissibility_report, check_condition_3d,
                                  check_condition_nd, compute_constants)
from morcam.errors import ParameterError
from morcam.fields import PotentialPair, make_potential_pair
from oracles import condition_value_3d, dense_grid_minimum, swirl

rng = np.random.default_rng(11)

#: the constants of the tests so marked are computed on a lighter quadrature
light = pytest.mark.usefixtures("light_quadrature")


# --- constants from concrete potentials --------------------------------------


@light
def test_constants_nontrapping_vortex():
    pp = make_potential_pair(3, {"name": "ex13"}, None)
    C1, C2, C3 = compute_constants(pp)
    assert C1 < 1e-8
    assert C2 == 0.0 and C3 == 0.0
    rep = check_condition_3d(C1, C2, C3)
    assert rep.admissible and rep.value < 1e-8


def rotation_4d(x):
    """The 4-D analogue of ex13, Jx/|x|^2 with J the symplectic rotation:
    B_tau = 0 away from the origin."""
    J = np.array([[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0]])
    return (x @ J.T) / np.sum(x ** 2, axis=-1)[..., None]


@light
@pytest.mark.parametrize("n, A", [(3, make_potential_pair(3, {"name": "ex13"}).A),
                                  (4, rotation_4d)], ids=["ex13", "rotation_4d"])
def test_non_trapping_field_without_jacobian_gets_C1_zero(n, A):
    # the central-difference Jacobian's step scales with |x| at every
    # radius and its B_tau noise (1.1e-8 |B| for ex13) falls below the
    # 1e-6 |B| cutoff a difference Jacobian gets (the analytic 1e-9 cutoff
    # would read ex13's noise as C1 = inf)
    C1, C2, C3 = compute_constants(PotentialPair(n, A=A))
    assert (C1, C2, C3) == (0.0, 0.0, 0.0)
    assert admissibility_report(PotentialPair(n, A=A)).admissible


@light
def test_trapping_field_without_jacobian_keeps_its_C1():
    # the swirl's B_tau is of the size of B: the difference Jacobian's
    # cutoff leaves a finite nonzero C1 (2.0 at the default quadrature)
    C1, _, _ = compute_constants(PotentialPair(3, A=swirl))
    assert C1 == pytest.approx(2.0, rel=1e-3)
    assert not admissibility_report(PotentialPair(3, A=swirl)).admissible


@pytest.mark.parametrize("n", [3, 4])
def test_declared_non_trapping_pair_samples_nothing_for_C1(n):
    # C1 of a pair that declares B_tau = 0 is 0 without a sample of A or
    # of its Jacobian, as for a pair without A
    calls = []

    def spy(name):
        return lambda x: calls.append(name)

    pp = PotentialPair(n, A=spy("A"), A_jac=spy("A_jac"), non_trapping=True)
    assert compute_constants(pp) == (0.0, 0.0, 0.0)
    assert calls == []
    assert admissibility_report(pp).C1 == 0.0


@light
def test_constants_attractive_coulomb_diverge():
    pp = make_potential_pair(3, None, {"name": "coulomb", "c": -1.0})
    C1, C2, C3 = compute_constants(pp)
    assert C1 == 0.0
    assert math.isinf(C2)
    rep = check_condition_3d(C1, C2, C3)
    assert not rep.admissible
    assert any("infinite" in note for note in rep.notes)


@light
def test_constants_inverse_square_4d():
    pp = make_potential_pair(4, None, {"name": "inverse_square", "c": -1.0})
    C1, C2, C3 = compute_constants(pp)
    assert C1 == 0.0
    # d_r(-1/r^2) = 2/r^3, so the cubed-weight sup is exactly 2
    assert abs(C2 - 2.0) < 1e-10
    rep = check_condition_nd(C1, C2, 4, C3)
    assert rep.threshold == 3.0
    assert abs(rep.value - 4.0) < 1e-9
    assert not rep.admissible


@light
@pytest.mark.parametrize("n, C2_ref", [(3, 0.581344), (4, 1.118703), (5, 1.118703)])
def test_drv_vanishing_beyond_a_radius_gives_finite_C2(n, C2_ref):
    # V = 0.4 exp(-(|x| - 2)^2): (d_r V)_+ is exactly 0 beyond r = 2 while
    # its dyadic blocks still grow toward it.  C2_ref is the 1-D integral of
    # r^2 (d_r V)_+ over [0, 2] (n = 3) or the max of r^3 (d_r V)_+ (n >= 4)
    def V(X):
        r = np.sqrt(np.sum(X ** 2, axis=-1))
        return 0.4 * np.exp(-(r - 2) ** 2)

    def dV_r(X):
        r = np.sqrt(np.sum(X ** 2, axis=-1))
        return -0.8 * (r - 2) * np.exp(-(r - 2) ** 2)

    pp = PotentialPair(n, V=V, dV_r=dV_r)
    _C1, C2, _C3 = compute_constants(pp)
    assert C2 == pytest.approx(C2_ref, rel=1e-3)
    assert admissibility_report(pp).admissible


@light
def test_screened_potential_admissible():
    pp = make_potential_pair(3, None, {"name": "exp_screened", "amplitude": 0.3})
    rep = admissibility_report(pp)
    assert rep.admissible
    assert rep.value < 1.0


@light
def test_constants_do_not_depend_on_the_quadrature_block(monkeypatch):
    # no point's value and no radius's max depends on how many points a
    # block holds; 7 radii a block leave a ragged last block, on the
    # sphere sample (ex14's Jacobian, the swirl's differences) and on the
    # ray of a radial V
    pairs = [make_potential_pair(3, {"name": "ex14"}, {"name": "exp_screened", "amplitude": 0.3}),
             PotentialPair(3, A=swirl)]
    default = [compute_constants(pp) for pp in pairs]
    monkeypatch.setattr(norms, "QUAD_BLOCK", 7 * norms.QUAD_DIRS)
    assert [compute_constants(pp) for pp in pairs] == default


#: C1 of each magnetic built-in: ex13 declares its B_tau zero, and ex14's
#: Jacobian reads the rounding noise of its zero field as divergent
#: (ROADMAP item 9).  Both are 3D potentials only
VERDICT_A = {"none": (None, 0.0), "zero": ({"name": "zero"}, 0.0),
             "ex13": ({"name": "ex13"}, 0.0), "ex14": ({"name": "ex14"}, math.inf)}
#: (C2, C3) of each electric built-in at its defaults, in 3D and for
#: n = 4 and 5, as the 240-direction sample read them before a radial V
#: was sampled on one ray.  In 3D, coulomb's r^2 (d_r V)_+ = 1 and
#: inverse_square's r^2 V_+/<x> ~ 1/r make their integrals diverge, and
#: gaussian(-1)'s C2 sits just under the threshold 1.  For n >= 4 the
#: weighted sups do not depend on n: coulomb's r^3 (d_r V)_+ = r grows,
#: and inverse_square's r^3 V_+/<x> = r/<r> reaches 0.99988 at the
#: quadrature's largest radius
VERDICT_V = {
    "none": (None, (0.0, 0.0), (0.0, 0.0)),
    "coulomb": ({"name": "coulomb"}, (math.inf, 0.0), (math.inf, 0.0)),
    "inverse_square": ({"name": "inverse_square"}, (0.0, math.inf),
                       (0.0, 0.999877922237829)),
    "gaussian(-1)": ({"name": "gaussian", "amplitude": -1.0},
                     (0.9999999991306543, 0.0), (1.0826822164778698, 0.0)),
    "gaussian(+1)": ({"name": "gaussian", "amplitude": 1.0},
                     (0.0, 0.3017250806094692), (0.0, 0.26699509754377265)),
    "exp_screened": ({"name": "exp_screened"},
                     (0.0, 0.3785503761988506), (0.0, 0.23236275598943154)),
}


@pytest.mark.parametrize("a, v, n", [
    pytest.param(a, v, n, id=f"{a}-{v}" if n == 3 else f"{a}-{v}-n{n}")
    for n in (3, 4, 5) for a in VERDICT_A for v in VERDICT_V])
def test_builtin_verdict_table(a, v, n):
    # on the default quadrature: C1 bit for bit, every 0 or inf exactly,
    # a finite C2 or C3 to the few ulps the one ray moves it; ex13 and
    # ex14 refuse n != 3
    (A, C1), (V, *electric) = VERDICT_A[a], VERDICT_V[v]
    if n != 3 and a in ("ex13", "ex14"):
        with pytest.raises(ParameterError, match="3D potential"):
            make_potential_pair(n, A, V)
        return
    rep = admissibility_report(make_potential_pair(n, A, V))
    assert rep.C1 == C1
    for got, want in zip((rep.C2, rep.C3), electric[n != 3]):
        if want in (0.0, math.inf):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)
    inadmissible = {"coulomb", "inverse_square"} if n == 3 else {"coulomb"}
    assert rep.admissible == (a != "ex14" and v not in inadmissible)


# --- 3D condition, closed form vs oracle -------------------------------------


def test_condition_reference_value():
    rep = check_condition_3d(0.5, 0.1)
    assert abs(rep.value - (0.5 * math.sqrt(0.45) + 0.35)) < 1e-14
    assert abs(rep.value - 0.6854101966249685) < 1e-12


def test_closed_form_matches_dense_scan():
    for _ in range(200):
        C1 = float(rng.uniform(0.0, 1.5))
        C2 = float(rng.uniform(0.0, 1.5))
        rep = check_condition_3d(C1, C2)
        val, M = dense_grid_minimum(C1, C2)
        assert abs(rep.value - val) < 1e-9 * max(1.0, val)
        if C1 > 1e-3:
            assert abs(rep.optimal_M - M) < 1e-3 * max(1.0, M)


def test_optimum_is_stationary():
    for C1, C2 in [(0.3, 0.2), (1.0, 0.0), (0.05, 0.9)]:
        rep = check_condition_3d(C1, C2)
        M = rep.optimal_M
        d = 1e-6 * M
        deriv = (condition_value_3d(M + d, C1, C2)
                 - condition_value_3d(M - d, C1, C2)) / (2 * d)
        assert abs(deriv) < 1e-6
        assert condition_value_3d(M, C1, C2) <= condition_value_3d(2 * M, C1, C2)
        assert condition_value_3d(M, C1, C2) <= condition_value_3d(M / 2, C1, C2)


def test_condition_monotone_in_constants():
    base = check_condition_3d(0.4, 0.2).value
    assert check_condition_3d(0.5, 0.2).value > base
    assert check_condition_3d(0.4, 0.3).value > base


def test_boundary_detection():
    # find C2 with C1 = 0.3 putting the value exactly at threshold 1
    C1 = 0.3
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if check_condition_3d(C1, mid).value < 1.0:
            lo = mid
        else:
            hi = mid
    at = 0.5 * (lo + hi)
    assert abs(check_condition_3d(C1, at).value - 1.0) < 1e-9
    assert check_condition_3d(C1, at - 1e-6).admissible
    assert not check_condition_3d(C1, at + 1e-6).admissible


def test_zero_c1_limit():
    rep = check_condition_3d(0.0, 0.7)
    assert rep.value == 0.7
    assert rep.optimal_M == 0.0
    assert rep.admissible
    assert not check_condition_3d(0.0, 1.2).admissible


# --- higher dimensions -------------------------------------------------------


def test_nd_examples():
    good = check_condition_nd(1.0, 0.5, 4)
    assert good.value == 2.0 and good.threshold == 3.0 and good.admissible
    bad = check_condition_nd(2.0, 0.0, 4)
    assert bad.value == 4.0 and not bad.admissible
    five = check_condition_nd(1.0, 2.0, 5)
    assert five.threshold == 8.0 and five.admissible


def test_nd_rejects_low_dimension():
    with pytest.raises(ParameterError):
        check_condition_nd(0.1, 0.1, 3)


# --- C3 and input validation -------------------------------------------------


def test_infinite_c3_blocks_admissibility():
    rep = check_condition_3d(0.1, 0.1, C3=math.inf)
    assert not rep.admissible
    assert check_condition_3d(0.1, 0.1, C3=50.0).admissible


def test_negative_constants_rejected():
    with pytest.raises(ParameterError):
        check_condition_3d(-0.1, 0.0)
    with pytest.raises(ParameterError):
        check_condition_nd(0.1, -0.1, 4)


def test_report_json_round_trips():
    rep = check_condition_3d(0.5, 0.1)
    doc = json.loads(json.dumps(rep.to_json()))
    for key in ("n", "C1", "C2", "C3", "value", "threshold", "margin",
                "optimal_M", "admissible", "notes"):
        assert key in doc
    assert doc["margin"] == pytest.approx(doc["threshold"] - doc["value"])
