import math

import numpy as np
import pytest

import oracles
from morcam import resolvent, verify
from morcam.admissibility import admissibility_report
from morcam.errors import ParameterError
from morcam.fields import PotentialPair, example_field, make_potential_pair
from morcam.grids import RadialGrid, ScalarField
from morcam.multipliers import make_phi, make_varphi
from morcam.norms import duality_gap, dyadic_dual, hardy_ratio, theorem_lhs, theorem_rhs
from morcam.resolvent import (DiscreteOperator, Discretization, ResolventProblem, build_problem,
                              covariant_gradient, make_datum, radial_sweep, solve)
from morcam.verify import (IdentityReport, SweepReport, epsilon_sweep,
                           estimate_report, identity_residual, identity_scan,
                           manufactured_identity)
from oracles import swirl, zero_V_reference


def bump(X):
    c = np.array([1.8, 0.6, 0.4])
    d2 = np.sum((X - c) ** 2, axis=-1)
    return np.exp(-0.75 * d2) * np.exp(0.3j * X[..., 0])


# --- identity ----------------------------------------------------------------


def test_identity_trivial_on_zero_solution():
    grid = RadialGrid(3, 4.0, 0.5)
    z = ScalarField.zeros(grid)
    mult = make_phi(3, 1.0, 1.0)
    weight = make_varphi(3, 1.0, 1e-3)
    [rep] = identity_residual(z, z, Discretization(grid, PotentialPair(3)), 1.0, 1.0,
                              [(mult, weight)])
    assert rep.lhs_total == 0.0 and rep.rhs_total == 0.0
    assert rep.residual_abs == 0.0


@pytest.mark.parametrize("call", [
    pytest.param(lambda a, b, disc: make_datum(a.grid, b), id="make_datum"),
    pytest.param(lambda a, b, disc: solve(ResolventProblem(disc, 1.0, 1.0, b)), id="solve"),
    pytest.param(lambda a, b, disc: covariant_gradient(b, disc, 0), id="covariant_gradient"),
    pytest.param(lambda a, b, disc: radial_sweep(b, disc, lambda sl: [sl.u2]),
                 id="radial_sweep"),
    pytest.param(lambda a, b, disc: identity_residual(
        a, b, disc, 1.0, 1.0, [(make_phi(3, 1.0, 1.0), make_varphi(3, 1.0, 1e-3))]),
        id="identity_residual"),
    pytest.param(lambda a, b, disc: duality_gap(a, b), id="duality_gap"),
])
def test_grid_mismatch_is_a_parameter_error(call):
    # every entry point that takes two arguments on grids refuses two
    # different grids with the one ParameterError
    a = ScalarField.zeros(RadialGrid(3, 2.0, 0.5))
    b = ScalarField.zeros(RadialGrid(3, 2.0, 0.25))
    with pytest.raises(ParameterError, match="different grids"):
        call(a, b, Discretization(a.grid, PotentialPair(3)))


def test_manufactured_identity_refines_under_h():
    pp = PotentialPair(3)
    reps = {}
    for h in (0.5, 0.25):
        grid = RadialGrid(3, 8.0, h)
        reps[h] = manufactured_identity(pp, grid, bump, lam=0.0, eps=1.0)
    assert reps[0.5].residual_rel < 0.25
    assert reps[0.25].residual_rel < reps[0.5].residual_rel


def test_manufactured_identity_magnetic_and_electric():
    pp = make_potential_pair(3, {"name": "ex13"},
                             {"name": "gaussian", "amplitude": 0.5})
    grid = RadialGrid(3, 8.0, 0.25)
    rep = manufactured_identity(pp, grid, bump, lam=0.0, eps=1.0)
    assert rep.residual_rel < 0.05
    assert isinstance(rep, IdentityReport)
    assert set(rep.lhs_terms) == {"hessian", "weight_gradient", "bilaplacian",
                                  "potential", "trapping", "energy_weight"}
    assert set(rep.rhs_terms) == {"datum_gradient", "datum_weight", "absorption"}


def test_trapping_term_negligible_for_nontrapping_vortex():
    # ex13 has B_tau = 0, so the trapping term is at most rounding noise
    pp = example_field("ex13")
    grid = RadialGrid(3, 8.0, 0.25)
    u = ScalarField.from_callable(grid, bump)
    disc = Discretization(grid, pp)
    f = ScalarField(grid, -DiscreteOperator(disc, 0.0, 1.0).apply(u.values))
    scales = [(make_phi(3, 2.0, 1.0), make_varphi(3, 2.0, 1e-3))]
    [with_b] = identity_residual(u, f, disc, 0.0, 1.0, scales)
    scale = sum(abs(v) for v in with_b.lhs_terms.values())
    assert abs(with_b.lhs_terms["trapping"]) < 1e-8 * scale


def test_identity_samples_no_trapping_component_where_it_is_declared_zero(
        monkeypatch, trapping_samples):
    # ex13 declares B_tau = 0: the slab sweep samples no B_tau and the
    # trapping term is 0.0 exactly.  ex14 does not declare it, so its B_tau
    # is sampled once per slab (3-row slabs of the m = 8 grid)
    grid = RadialGrid(3, 2.0, 0.5)
    u = ScalarField.from_callable(grid, bump)
    scales = [(make_phi(3, 1.0, 1.0), make_varphi(3, 1.0, 1e-3))]
    monkeypatch.setattr(resolvent, "SLAB_BYTES", 3 * resolvent._WORK_NODE_BYTES * grid.m ** 2)
    for name, slabs in (("ex13", 0), ("ex14", 3)):
        disc = Discretization(grid, make_potential_pair(3, {"name": name}, None))
        f = ScalarField(grid, -DiscreteOperator(disc, 1.0, 1.0).apply(u.values))
        trapping_samples.clear()
        [rep] = identity_residual(u, f, disc, 1.0, 1.0, scales)
        assert len(trapping_samples) == slabs, name
        assert sum(shape[0] for shape in trapping_samples) == (grid.m if slabs else 0)
        assert all(shape[1:] == grid.shape[1:] for shape in trapping_samples)
        if not slabs:
            assert rep.lhs_terms["trapping"] == 0.0


def test_identity_scan_picks_worst_scale():
    pp = PotentialPair(3)
    grid = RadialGrid(3, 8.0, 0.5)
    u = ScalarField.from_callable(grid, bump)
    disc = Discretization(grid, pp)
    f = ScalarField(grid, -DiscreteOperator(disc, 0.0, 1.0).apply(u.values))
    worst = identity_scan(u, f, disc, 0.0, 1.0)
    # the scan's scales R = L/8, L/4 and L/2, one at a time
    singles = [identity_residual(u, f, disc, 0.0, 1.0,
                                 [(make_phi(3, R, 1.0), make_varphi(3, R, 1e-3))]
                                 )[0].residual_rel
               for R in (1.0, 2.0, 4.0)]
    assert worst.residual_rel == pytest.approx(max(singles))


def test_identity_scales_share_one_sampling():
    # one call over three scales gives exactly the reports of three
    # single-scale calls
    pp = make_potential_pair(3, {"name": "ex13"},
                             {"name": "gaussian", "amplitude": 0.5})
    grid = RadialGrid(3, 4.0, 0.25)
    u = ScalarField.from_callable(grid, bump)
    disc = Discretization(grid, pp)
    f = ScalarField(grid, -DiscreteOperator(disc, 0.0, 1.0).apply(u.values))
    scales = [(make_phi(3, R, 1.0), make_varphi(3, R, 1e-3))
              for R in (0.5, 1.0, 2.0)]
    together = identity_residual(u, f, disc, 0.0, 1.0, scales)
    apart = [identity_residual(u, f, disc, 0.0, 1.0, [s])[0] for s in scales]
    assert len(together) == 3
    for a, b in zip(together, apart):
        assert a.lhs_terms == b.lhs_terms and a.rhs_terms == b.rhs_terms
        assert a.R == b.R


def test_identity_json_layout():
    grid = RadialGrid(3, 4.0, 0.5)
    u = ScalarField.from_callable(grid, bump)
    [rep] = identity_residual(u, u, Discretization(grid, PotentialPair(3)), 1.0, 1.0,
                              [(make_phi(3, 1.0, 1.0), make_varphi(3, 1.0, 1e-3))])
    doc = rep.to_json()
    assert doc["lhs_total"] == pytest.approx(sum(doc["lhs_terms"].values()))
    assert doc["residual_abs"] == pytest.approx(
        abs(doc["lhs_total"] - doc["rhs_total"]))
    assert doc["h"] == 0.5 and doc["R"] == 1.0


# --- estimate report ---------------------------------------------------------


def test_estimate_report_trivial():
    grid = RadialGrid(3, 4.0, 0.5)
    z = ScalarField.zeros(grid)
    lhs, rhs, ratio = estimate_report(z, dyadic_dual(z),
                                      Discretization(grid, PotentialPair(3)), 1.0, 0.5,
                                      adm=admissibility_report(PotentialPair(3)))
    assert lhs.total == 0.0 and rhs.total == 0.0 and ratio == 0.0


def test_estimate_report_inadmissible_notes():
    grid = RadialGrid(3, 4.0, 0.5)
    pp = make_potential_pair(3, None, {"name": "coulomb", "c": -1.0})
    u = ScalarField.from_callable(grid, bump)
    lhs, rhs, ratio = estimate_report(u, dyadic_dual(u), Discretization(grid, pp),
                                      1.0, 0.5, adm=admissibility_report(pp))
    assert math.isfinite(ratio)


# --- sweep report ------------------------------------------------------------


def test_sweep_report_ordering_and_csv():
    rep = SweepReport()
    rep.add(0.01, 1.0, 2.0, 0.5)
    rep.add(1.0, 1.0, 2.0, 0.5)
    rep.add(0.1, 1.0, 2.0, 0.6)
    assert [e["eps"] for e in rep.entries] == [1.0, 0.1, 0.01]
    assert rep.max_ratio == 0.6 and rep.min_ratio == 0.5
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "eps,lhs,rhs,ratio"
    assert len(csv.splitlines()) == 4


def test_sweep_blow_up_rule():
    flat = SweepReport()
    flat.add(1.0, 1, 1, 1.0)
    flat.add(0.01, 1, 1, 3.0)  # x3 over two decades: under 2^2
    assert not flat.blow_up

    growing = SweepReport()
    growing.add(1.0, 1, 1, 1.0)
    growing.add(0.01, 1, 1, 5.0)  # x5 over two decades: over 2^2
    assert growing.blow_up

    single = SweepReport()
    single.add(0.5, 1, 1, 7.0)
    assert not single.blow_up

    # a first ratio of 0 has no growth factor: only a last ratio that is
    # not finite is a blow-up
    from_zero = SweepReport()
    from_zero.add(1.0, 0, 1, 0.0)
    from_zero.add(0.01, 1, 0, math.inf)
    assert from_zero.blow_up

    from_zero = SweepReport()
    from_zero.add(1.0, 0, 1, 0.0)
    from_zero.add(0.01, 1, 2, 0.5)
    assert not from_zero.blow_up


def test_epsilon_sweep_runs_and_warns_below_floor():
    grid = RadialGrid(3, 4.0, 0.5)
    pp = PotentialPair(3)
    with pytest.warns(UserWarning, match="floor"):
        rep = epsilon_sweep(pp, 1.0, {"name": "gaussian", "width": 0.6},
                            [1.0, 1e-4], grid, tol=1e-8)
    assert len(rep.entries) == 2
    assert rep.entries[0]["eps"] == 1.0
    assert all(math.isfinite(e["ratio"]) for e in rep.entries)


def test_epsilon_sweep_rejects_nonpositive_eps():
    grid = RadialGrid(3, 4.0, 0.5)
    # a repeated eps solved twice and kept one error message for both
    for eps_list in ([1.0, -0.1], [0.0], [1.0, math.nan], [math.inf], [1.0, 1.0]):
        with pytest.raises(ParameterError):
            epsilon_sweep(PotentialPair(3), 1.0, "point", eps_list, grid)


def test_epsilon_sweep_samples_link_phases_once(link_phase_calls):
    grid = RadialGrid(3, 4.0, 0.5)
    pp = make_potential_pair(3, {"name": "ex13"}, None)
    rep = epsilon_sweep(pp, 1.0, {"name": "gaussian", "width": 0.6},
                        [1.0, 0.5, 0.25], grid, tol=1e-8)
    assert len(rep.entries) == 3
    assert len(link_phase_calls) == 1


def test_epsilon_sweep_checks_the_datum_support_once(monkeypatch, operator_dtypes):
    # the boundary check reads the whole datum; it belongs to the datum and
    # the grid, so a sweep makes it once, not once per eps, and still warns.
    # Each eps builds one operator of each precision, the complex128 one in
    # its solve and the complex64 twin at its first cycle
    scans = []
    reaches = resolvent._reaches_boundary

    def counted(f):
        scans.append(f)
        return reaches(f)

    monkeypatch.setattr(resolvent, "_reaches_boundary", counted)
    grid = RadialGrid(3, 4.0, 0.5)
    with pytest.warns(UserWarning, match="boundary") as record:
        rep = epsilon_sweep(example_field("ex13"), 1.0, {"name": "gaussian", "width": 3.0},
                            [1.0, 0.5, 0.25], grid, tol=1e-8)
    assert len(rep.entries) == 3 and not rep.errors
    assert len(scans) == 1
    assert sum("boundary" in str(w.message) for w in record) == 1
    assert operator_dtypes.count(np.complex128) == operator_dtypes.count(np.complex64) == 3
    assert len(operator_dtypes) == 6


def test_epsilon_sweep_samples_radial_derivative_once(radial_derivative_samples):
    # the admissibility quadrature samples d_r V off the grid through its
    # own binding, which the fixture does not count; the grid's slabs of
    # axis 0 are sampled once, for all three eps, after the 2^n central
    # nodes that Discretization tries for a pair undefined there
    grid = RadialGrid(3, 4.0, 0.5)
    pp = make_potential_pair(3, None, {"name": "gaussian", "amplitude": -1.0})
    rep = epsilon_sweep(pp, 1.0, {"name": "gaussian", "width": 0.6},
                        [1.0, 0.5, 0.25], grid, tol=1e-8)
    assert len(rep.entries) == 3
    central, *slabs = radial_derivative_samples
    assert central == (2,) * grid.n
    assert sum(shape[0] for shape in slabs) == grid.m
    assert all(shape[1:] == grid.shape[1:] for shape in slabs)


def test_epsilon_sweep_computes_dual_norm_once(monkeypatch):
    # N(f) depends on f alone; the per-eps right-hand sides reuse it
    calls = []

    def counted(f, *args):
        calls.append(f)
        return dyadic_dual(f, *args)

    monkeypatch.setattr(verify, "dyadic_dual", counted)
    grid = RadialGrid(3, 4.0, 0.5)
    spec = {"name": "gaussian", "width": 0.6}
    rep = epsilon_sweep(PotentialPair(3), 1.0, spec, [1.0, 0.5, 0.25], grid,
                        tol=1e-8)
    assert len(calls) == 1
    f = make_datum(grid, spec)
    assert [e["rhs"] for e in rep.entries] == [
        theorem_rhs(dyadic_dual(f), 1.0, eps).total for eps in (1.0, 0.5, 0.25)]


@pytest.mark.filterwarnings("ignore::UserWarning")  # eps below the floor
def test_free_sweep_peak_memory(traced_memory, monkeypatch):
    # a free sweep of a separable datum holds one grid-sized array at a
    # time, each eps's solution, besides slab scratch: the datum keeps its
    # 1-D factors, and the solve, the estimate and N(f) read it a row at a
    # time.  With slabs of 1/16 of a grid array, 6.6 slabs measured beyond
    # the solution, and 22.2 (one more grid array) when make_datum kept
    # the datum's values
    grid = RadialGrid(3, 8.0, 0.5)
    monkeypatch.setattr(resolvent, "SLAB_BYTES", grid.size)
    made = []
    _, peak = traced_memory(lambda: made.append(epsilon_sweep(
        PotentialPair(3), 1.0, {"name": "wave", "width": 2.0, "k": 3.5},
        [1.0, 0.1, 0.01], grid, tol=1e-9)))
    [rep] = made
    assert len(rep.entries) == 3 and not rep.errors
    assert peak <= grid.size * 16 + 8 * resolvent.SLAB_BYTES


def test_readers_take_a_zero_potential_as_a_grid_sized_zero():
    # a V that samples to zero is kept 0-d; theorem_lhs, identity_residual
    # and radial_derivative read it as they read a grid-sized zero array
    grid = RadialGrid(3, 4.0, 0.25)
    pp = make_potential_pair(3, {"name": "ex13"}, {"name": "gaussian", "amplitude": 0.0})
    disc, ref = Discretization(grid, pp), zero_V_reference(grid, pp)
    assert disc.V.ndim == 0
    u = ScalarField.from_callable(grid, bump)
    f = ScalarField(grid, -DiscreteOperator(disc, 1.0, 0.5).apply(u.values))
    assert np.array_equal(disc.radial_derivative(), ref.radial_derivative())
    a, b = theorem_lhs(u, disc, 1.0, 1.0, 0.5), theorem_lhs(u, ref, 1.0, 1.0, 0.5)
    assert (a.values, a.total) == (b.values, b.total)
    scales = [(make_phi(3, 1.0, 1.0), make_varphi(3, 1.0, 1e-3))]
    [a] = identity_residual(u, f, disc, 1.0, 0.5, scales)
    [b] = identity_residual(u, f, ref, 1.0, 0.5, scales)
    assert (a.lhs_terms, a.rhs_terms) == (b.lhs_terms, b.rhs_terms)


# --- the slab sweep against the whole-array references -------------------------


def _well(x):
    return -0.8 * np.exp(-np.sum(x ** 2, axis=-1))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("A", [None, swirl], ids=["no-phases", "phases-trapping"])
@pytest.mark.parametrize("V", [None, _well], ids=["V-0d", "V-grid"])
def test_slab_sweep_matches_the_whole_array_references(monkeypatch, n, A, V):
    # theorem_lhs, identity_residual and hardy_ratio against whole-grid
    # evaluations (tests/oracles.py), per reported entry, with the whole
    # m = 8 grid in one slab, 3-row slabs (m not a multiple of 3) and
    # 1-row slabs; with A the identity samples B_tau per slab (trapping)
    grid = RadialGrid(n, 2.0, 0.5)
    r = np.random.default_rng(n)
    u, f = (ScalarField(grid, r.standard_normal(grid.shape) + 1j * r.standard_normal(grid.shape))
            for _ in range(2))
    disc = Discretization(grid, PotentialPair(n, A=A, V=V))
    assert (disc.V.ndim == 0) == (V is None)
    scales = [(make_phi(n, R, 1.0), make_varphi(n, R, 1e-3)) for R in (0.5, 1.0)]
    lhs = oracles.theorem_lhs(u, disc, 1.0, 0.7, 0.1)
    ident = oracles.identity_residual(u, f, disc, 1.0, 0.5, scales)
    g2, _ = oracles.gradient_split(u, disc)
    hardy = float(oracles.whole_bin_sums(grid, u.abs2()) @ grid.bin_radii ** -2) \
        / float(grid.integrate(g2))

    def close(got, expect):
        assert got.keys() == expect.keys()
        for k in expect:
            assert abs(got[k] - expect[k]) <= 1e-14 * abs(expect[k]), k

    m = grid.m
    for rows in (m, 3, 1):
        monkeypatch.setattr(resolvent, "SLAB_BYTES", rows * 16 * m ** (n - 1))
        got = theorem_lhs(u, disc, 1.0, 0.7, 0.1)
        close(got.values, lhs.values)
        close({"total": got.total}, {"total": lhs.total})
        for a, b in zip(identity_residual(u, f, disc, 1.0, 0.5, scales), ident):
            close(a.lhs_terms, b.lhs_terms)
            close(a.rhs_terms, b.rhs_terms)
        close({"hardy": hardy_ratio(u, disc)}, {"hardy": hardy})


def test_post_solve_densities_allocate_less_than_one_grid_array(traced_memory):
    # on a 32^3 solution, theorem_lhs (which samples d_r V on this first
    # call) and identity_residual each allocate less than one grid-sized
    # complex128 array beyond their inputs: 0.84 and 0.81 measured (7.0
    # and 7.5 when they formed every density on the whole grid)
    grid = RadialGrid(3, 8.0, 0.5)
    pp = make_potential_pair(3, {"name": "ex13"}, {"name": "exp_screened", "amplitude": 0.3})
    prob = build_problem(pp, 1.0, 1.0, {"name": "gaussian", "width": 1.0}, grid)
    u = solve(prob, tol=1e-10)
    scales = [(make_phi(3, R, 1.0), make_varphi(3, R, 1e-3)) for R in (1.0, 2.0, 4.0)]
    for call in (lambda: theorem_lhs(u, prob.disc, 1.0, 0.5, 0.1),
                 lambda: identity_residual(u, prob.f, prob.disc, 1.0, 1.0, scales)):
        _, peak = traced_memory(call)
        assert peak < grid.size * 16
    # and the grid keeps nothing grid-sized for its radial bins
    grid.bin_sums(u.abs2)
    assert all(np.size(v) < grid.size for v in vars(grid).values())


def test_readers_take_a_zero_radial_derivative_as_a_grid_sized_zero():
    # d_r V that samples to zero is kept 0-d; theorem_lhs and
    # identity_residual read it as they read a grid-sized zero array
    grid = RadialGrid(3, 4.0, 0.25)
    pp = make_potential_pair(3, {"name": "ex13"}, {"name": "gaussian", "amplitude": 0.0})
    disc, ref = Discretization(grid, pp), zero_V_reference(grid, pp)
    assert disc.radial_derivative().ndim == 0
    ref._drv = np.zeros(grid.shape)
    u = ScalarField.from_callable(grid, bump)
    f = ScalarField(grid, -DiscreteOperator(disc, 1.0, 0.5).apply(u.values))
    a, b = theorem_lhs(u, disc, 1.0, 1.0, 0.5), theorem_lhs(u, ref, 1.0, 1.0, 0.5)
    assert (a.values, a.total) == (b.values, b.total)
    scales = [(make_phi(3, 1.0, 1.0), make_varphi(3, 1.0, 1e-3))]
    [a] = identity_residual(u, f, disc, 1.0, 0.5, scales)
    [b] = identity_residual(u, f, ref, 1.0, 0.5, scales)
    assert (a.lhs_terms, a.rhs_terms) == (b.lhs_terms, b.rhs_terms)
