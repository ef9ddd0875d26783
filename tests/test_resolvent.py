import cmath
import copy
import functools
import importlib.util
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morcam import resolvent
from morcam.errors import ParameterError, SolverError
from morcam.fields import (PotentialPair, example_field, make_potential_pair,
                           radial_derivative_parts, trapping_component)
from morcam.grids import RadialGrid, ScalarField, point_array
from morcam.resolvent import (DiscreteOperator, Discretization, ResolventProblem,
                              build_problem, covariant_gradient, epsilon_floor,
                              link_phases, make_datum, solve)
from oracles import (hop_gradient, sweep_split, swirl, unit_phase_reference,
                     whole_array_apply, whole_array_preconditioner,
                     whole_grid_samples, zero_V_reference)

rng = np.random.default_rng(5)


def small_grid(h=0.5, L=4.0):
    return RadialGrid(3, L, h)


def full_gradient(u, disc):
    """The covariant gradient as one (*grid.shape, n) array."""
    return np.stack([covariant_gradient(u, disc, k) for k in range(u.grid.n)], axis=-1)


def random_field(grid, seed=0):
    r = np.random.default_rng(seed)
    vals = r.standard_normal(grid.shape) + 1j * r.standard_normal(grid.shape)
    return ScalarField(grid, vals)


# --- discrete operator -------------------------------------------------------


def test_free_operator_is_seven_point_laplacian():
    grid = small_grid()
    op = DiscreteOperator(Discretization(grid, PotentialPair(3)), lam=0.3, eps=0.7)
    u = random_field(grid).values
    out = op.apply(u)

    pad = np.pad(u, 1)
    lap = np.zeros_like(u)
    for k in range(3):
        lap += np.roll(pad, 1, axis=k)[1:-1, 1:-1, 1:-1]
        lap += np.roll(pad, -1, axis=k)[1:-1, 1:-1, 1:-1]
    lap = (lap - 6 * u) / grid.h ** 2
    expect = -lap + (-0.3 - 0.7j) * u
    assert np.abs(out - expect).max() < 1e-12 * np.abs(expect).max()


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("A", [None, "ex13"])
@pytest.mark.parametrize("V", [None, {"name": "gaussian", "amplitude": 0.0}],
                         ids=["free", "samples_to_zero"])
def test_zero_potential_is_kept_zero_dimensional(V, A, dtype):
    grid = small_grid()
    pp = make_potential_pair(3, A, V)
    disc = Discretization(grid, pp)
    assert disc.V.ndim == 0 and disc.V == 0
    op = DiscreteOperator(disc, 0.7, 0.3, dtype)
    ref = DiscreteOperator(zero_V_reference(grid, pp), 0.7, 0.3, dtype)
    # the diagonal formed from the 0-d V is the grid-sized one's, cast
    expect = np.full(grid.shape, (2 * 3 / grid.h ** 2 - 0.7) - 0.3j).astype(dtype)
    for o in (op, ref):
        assert np.array_equal(slab_diagonal(o), expect)
    v = random_field(grid).values.astype(dtype)
    for got, expect in ((op.apply(v), ref.apply(v)),
                        (op.preconditioner()(v), ref.preconditioner()(v))):
        assert got.dtype == dtype
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("phases", [False, True], ids=["no_A", "A"])
@pytest.mark.parametrize("grid_V", [False, True], ids=["V_0d", "V_grid"])
def test_slab_apply_equals_the_whole_array_sweep(n, dtype, phases, grid_V,
                                                 monkeypatch):
    # the slab sweep adds every term in the whole-array order, so its
    # result is the same to the bit whatever the slab: the whole grid in
    # one slab (m = 8 below one slab of SLAB_BYTES), slabs of 3 rows
    # (m not a multiple) and of 1 row (a halo row on each side)
    grid = RadialGrid(n, 2.0, 0.5)
    rp = random_pair(n, 11)
    disc = Discretization(grid, PotentialPair(n, A=rp.A if phases else None,
                                              V=rp.V if grid_V else None))
    assert all(p is None for p in disc.phases) != phases and (disc.V.ndim > 0) == grid_V
    op = DiscreteOperator(disc, 0.7, -0.3, dtype)
    u = random_field(grid, 12).values.astype(dtype)
    expect = whole_array_apply(op, u)
    row = u.nbytes // grid.m
    assert resolvent.SLAB_BYTES // row > grid.m
    for rows in (None, 3, 1):
        if rows is not None:
            monkeypatch.setattr(resolvent, "SLAB_BYTES", rows * row)
        got = op.apply(u.ravel())
        assert got.dtype == dtype and got.shape == grid.shape
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("n", [3, 4])
def test_twin_apply_equals_the_twin_of_phases_cast_whole(n, monkeypatch):
    # the complex64 twin keeps no phases: each slab casts the rows s-1:e it
    # reads (a halo row along axis 0) from the discretization's complex128
    # phases into one buffer.  A cast rounds each value on its own, so
    # apply has the bits of the twin of a discretization whose phases were
    # cast to complex64 whole, read as they are, at every slab size: the
    # whole grid (m = 8 below one slab), 3 rows and 1 row
    grid = RadialGrid(n, 2.0, 0.5)
    disc = Discretization(grid, random_pair(n, 21))
    cast = copy.copy(disc)
    cast.phases = [p.astype(np.complex64) for p in disc.phases]
    twin, ref = (DiscreteOperator(d, 0.7, -0.3, np.complex64) for d in (disc, cast))
    u = random_field(grid, 22).values.astype(np.complex64)
    expect = ref.apply(u).view(np.uint32)
    row = u.nbytes // grid.m
    assert resolvent.SLAB_BYTES // row > grid.m
    for rows in (None, 3, 1):
        if rows is not None:
            monkeypatch.setattr(resolvent, "SLAB_BYTES", rows * row)
        for op in (twin, ref):
            assert np.array_equal(op.apply(u).view(np.uint32), expect)


def slab_diagonal(op):
    """The complex diagonal op.apply forms slab by slab, read as op.apply
    of a field of ones with its hops left out (times 1 + 0j, which changes
    no value)."""
    ones = np.ones(op.grid.shape, op.dtype)
    add_hop = resolvent._add_hop
    resolvent._add_hop = lambda *args: None
    try:
        return op.apply(ones)
    finally:
        resolvent._add_hop = add_hop


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_unit_phase_axes_equal_an_all_ones_array(n, dtype, monkeypatch):
    # an axis whose phases are all 1 is kept as None and its hops carry no
    # product; multiplying by exactly 1 changes no value (an exact zero's
    # sign aside), so apply, the covariant gradient and radial_sweep equal
    # the references fed an all-ones array, at every slab size.  A is 0 on
    # axes 0 and n-1, which take the two code paths of a hop
    grid = RadialGrid(n, 2.0, 0.5)
    rp = random_pair(n, 13)
    keep = np.ones(n)
    keep[[0, -1]] = 0.0
    disc = Discretization(grid, PotentialPair(n, A=lambda X: rp.A(X) * keep, V=rp.V))
    assert [p is None for p in disc.phases] == [True] + [False] * (n - 2) + [True]
    ref = unit_phase_reference(disc)
    u = random_field(grid, 14)
    op = DiscreteOperator(disc, 0.7, -0.3, dtype)
    expect = whole_array_apply(DiscreteOperator(ref, 0.7, -0.3, dtype), u.values)
    grads = [hop_gradient(u, ref, k) for k in range(n)]

    def densities(sl):
        yield sl.g2
        yield sl.g_r.real
        yield np.imag(sl.u * sl.bg)

    row = grid.size // grid.m * np.dtype(dtype).itemsize
    assert resolvent.SLAB_BYTES // row > grid.m
    for rows in (None, 3, 1):
        if rows is not None:
            monkeypatch.setattr(resolvent, "SLAB_BYTES", rows * row)
        assert np.array_equal(op.apply(u.values), expect)
        for k in range(n):
            assert np.array_equal(covariant_gradient(u, disc, k), grads[k])
            # a range inside the box, and the box's first and last rows
            for s, e in ((1, 3), (0, 1), (grid.m - 2, grid.m)):
                assert np.array_equal(covariant_gradient(u, disc, k, rows=(s, e)),
                                      grads[k][s:e])
        for got, want in zip(sweep_split(u, disc, trapping=True),
                             sweep_split(u, ref, trapping=True)):
            assert np.array_equal(got, want)
        assert np.array_equal(resolvent.radial_sweep(u, disc, densities, True),
                              resolvent.radial_sweep(u, ref, densities, True))


def test_operator_keeps_no_unit_phase_axis_and_no_diagonal(traced_memory):
    # ex13's z phases are all 1, so its discretization holds two complex128
    # phase arrays, not three, and V, and no mask of capped nodes.  An
    # operator forms its diagonal per slab from the grid-sized V and reads
    # its phases from the discretization's, so neither the complex128 one
    # nor the complex64 twin, which casts the phases slab by slab, holds
    # anything grid-sized (the twin's casts of the two phase arrays were 8
    # bytes a node, a kept real diagonal 8 and 4 more)
    grid = RadialGrid(3, 8.0, 0.5)
    pp = make_potential_pair(3, {"name": "ex13"}, {"name": "exp_screened", "amplitude": 0.3})
    made = []
    held, _ = traced_memory(lambda: made.append(Discretization(grid, pp)))
    [disc] = made
    phase_bytes = grid.size * 16
    assert [p is None for p in disc.phases] == [False, False, True]
    # V is one float64 array more; a third phase array, or a bool mask of
    # the capped nodes, would pass the bound
    assert 2 * phase_bytes <= held - disc.V.nbytes < 2 * phase_bytes + grid.size
    for dtype in (np.complex128, np.complex64):
        held, _ = traced_memory(lambda: made.append(DiscreteOperator(disc, 1.0, 0.3, dtype)))
        op = made[-1]
        assert held < grid.size
        assert not any(isinstance(a, np.ndarray) and a.size == grid.size
                       for a in vars(op).values())


def test_operator_parameter_checks():
    disc = Discretization(small_grid(), PotentialPair(3))
    for lam, eps in ((1.0, 0.0), (-0.1, 1.0), (np.nan, 1.0), (np.inf, 1.0),
                     (1.0, np.nan), (1.0, np.inf), (1.0, -np.inf)):
        with pytest.raises(ParameterError):
            DiscreteOperator(disc, lam=lam, eps=eps)


def test_twin_holds_lambda_and_eps_up_to_the_float32_range():
    # lambda and |eps| up to float32's largest value are held by the
    # complex64 twin's diagonal and tables: an Arnoldi step apply(minv(v))
    # of a unit vector is finite and, the diagonal dominating, v to 1e-4
    # (the table's entries, near 1/lambda, are subnormal float32 values
    # of about 21 bits); the next float above is refused
    top = float(np.finfo(np.float32).max)
    grid = RadialGrid(3, 2.0, 0.5)
    disc = Discretization(grid, example_field("ex13"))
    v = random_field(grid, 3).values.ravel().astype(np.complex64)
    v /= np.linalg.norm(v)
    for lam, eps in ((top, 1.0), (1.0, top), (1.0, -top), (top, top)):
        op = DiscreteOperator(disc, lam, eps, np.complex64)
        w = op.apply(op.preconditioner()(v)).ravel()
        assert np.linalg.norm(w - v) <= 1e-4
    beyond = float(np.nextafter(top, math.inf))
    for lam, eps in ((beyond, 1.0), (1.0, beyond), (1.0, -beyond)):
        with pytest.raises(ParameterError, match="float32"):
            DiscreteOperator(disc, lam, eps, np.complex64)


def test_singular_potential_capped_with_warning():
    grid = small_grid()
    pp = make_potential_pair(3, None, {"name": "coulomb", "c": -10.0})
    with pytest.warns(UserWarning, match="capped"):
        disc = Discretization(grid, pp)
    assert np.abs(disc.V).max() <= 1.0 / grid.h ** 2 + 1e-12


def test_discretization_samples_V_once(monkeypatch):
    # with an analytic dV_r, d_r V needs no V samples of its own: the
    # slabs of axis 0 that V is sampled on cover the grid once
    points = []
    eval_V = PotentialPair.eval_V

    def counted(pp, x):
        points.append(np.asarray(x).shape[:-1])
        return eval_V(pp, x)

    monkeypatch.setattr(PotentialPair, "eval_V", counted)
    grid = small_grid()
    disc = Discretization(grid, make_potential_pair(
        3, None, {"name": "exp_screened", "amplitude": 0.3}))
    disc.radial_derivative()
    assert sum(p[0] for p in points) == grid.m
    assert all(p[1:] == grid.shape[1:] for p in points)


@pytest.mark.parametrize("V", [None, {"name": "gaussian", "amplitude": 0.0}],
                         ids=["free", "samples_to_zero"])
def test_zero_V_allocates_no_grid_array(traced_memory, V):
    # V is allocated at the first slab where it is not zero, so
    # a V that samples to zero everywhere takes the sampling's working set
    # of about one slab (0.66 and 0.90 slabs measured, 0.04 and 0.06
    # complex128 grid arrays); a float64 V and a bool mask filled only to
    # be found zero took 0.56 grid arrays
    grid = RadialGrid(3, 8.0, 0.25)
    made = []
    pp = make_potential_pair(3, None, V)
    _, peak = traced_memory(lambda: made.append(Discretization(grid, pp)))
    [disc] = made
    assert disc.V.ndim == 0 and disc.V == 0
    assert peak < resolvent.SLAB_BYTES


def test_link_phases_unit_modulus():
    # ex13's A_z is 0, so its z-links keep no array: the whole-grid
    # sampling gives exactly 1 there; an A that is 0 on every axis keeps
    # None on every axis, as a free pair
    grid = small_grid()
    assert link_phases(grid, PotentialPair(3)) == [None] * 3
    assert link_phases(grid, PotentialPair(3, A=np.zeros_like)) == [None] * 3
    pp = example_field("ex13")
    phases = link_phases(grid, pp)
    assert len(phases) == 3 and phases[2] is None
    whole, _, _ = whole_grid_samples(grid, pp)
    assert np.all(whole[2] == 1)
    for ph in phases[:2]:
        assert np.allclose(np.abs(ph), 1.0)
        assert not np.all(ph == 1)


def random_pair(n, seed, gauge=None):
    """A smooth random (A, V) on R^n; gauge (Q, b) adds grad chi = Qx + b
    to A, the gradient of chi(x) = x.Qx/2 + b.x."""
    r = np.random.default_rng(seed)
    M, c = r.standard_normal((n, n)), r.standard_normal(n)
    a, w = r.uniform(-3.0, 3.0), r.uniform(0.5, 2.0)

    def A(X):
        out = X @ M.T + c * np.sin(X)
        if gauge is not None:
            out = out + X @ gauge[0] + gauge[1]
        return out

    return PotentialPair(n, A=A, V=lambda X: a * np.exp(-np.sum(X ** 2, axis=-1) / w ** 2))


operator_cases = dict(n=st.sampled_from([3, 4]), lam=st.floats(0.0, 20.0),
                      eps=st.floats(0.01, 10.0), sign=st.sampled_from([1.0, -1.0]),
                      seed=st.integers(0, 2 ** 16))


@settings(max_examples=25, deadline=None)
@given(**operator_cases)
def test_operator_hermitian_apart_from_shift(n, lam, eps, sign, seed):
    # <(H - la - i eps)u, v> = <u, (H - la + i eps)v>: the imaginary shift
    # is the only non-Hermitian part
    grid = RadialGrid(n, 1.0, 0.25)
    disc = Discretization(grid, random_pair(n, seed))
    op_p = DiscreteOperator(disc, lam, sign * eps)
    op_m = DiscreteOperator(disc, lam, -sign * eps)
    u, v = random_field(grid, seed + 1).values, random_field(grid, seed + 2).values
    lhs = np.vdot(v, op_p.apply(u))
    rhs = np.vdot(op_m.apply(v), u)
    scale = np.linalg.norm(op_p.apply(u)) * np.linalg.norm(v)
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(**operator_cases)
def test_operator_absorption_identity(n, lam, eps, sign, seed):
    # Im <(H - la - i eps)u, u> = -eps ||u||^2 for Hermitian H
    grid = RadialGrid(n, 1.0, 0.25)
    op = DiscreteOperator(Discretization(grid, random_pair(n, seed)), lam, sign * eps)
    u = random_field(grid, seed + 1).values
    form = np.vdot(u, op.apply(u))
    norm2 = np.vdot(u, u).real
    scale = np.linalg.norm(op.apply(u)) * math.sqrt(norm2)
    assert abs(form.imag + sign * eps * norm2) <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(**operator_cases)
def test_apply_gauge_covariance(n, lam, eps, sign, seed):
    # A -> A + grad chi pairs with u -> e^{i chi} u; for quadratic chi the
    # midpoint link sampling integrates grad chi exactly, so the discrete
    # operator commutes with the gauge factor up to roundoff
    r = np.random.default_rng(seed + 3)
    Q = r.standard_normal((n, n))
    Q = Q + Q.T
    b = r.standard_normal(n)
    grid = RadialGrid(n, 1.0, 0.25)
    X = grid.points
    ph = np.exp(1j * (0.5 * np.einsum("...i,ij,...j->...", X, Q, X) + X @ b))
    op0 = DiscreteOperator(Discretization(grid, random_pair(n, seed)), lam, sign * eps)
    op1 = DiscreteOperator(Discretization(grid, random_pair(n, seed, (Q, b))),
                           lam, sign * eps)
    u = random_field(grid, seed + 1).values
    expect = ph * op0.apply(u)
    err = np.abs(op1.apply(ph * u) - expect).max()
    assert err <= 1e-12 * np.abs(expect).max()


# --- data --------------------------------------------------------------------


def test_datum_values():
    grid = small_grid()
    g = make_datum(grid, {"name": "gaussian", "width": 2.0, "amplitude": 3.0})
    d2 = np.sum(grid.points ** 2, axis=-1)
    assert np.allclose(g.values, 3.0 * np.exp(-d2 / 4.0))

    w = make_datum(grid, {"name": "wave", "width": 2.0, "k": 3.5})
    assert np.allclose(w.values,
                       np.exp(-d2 / 4.0) * np.exp(3.5j * grid.points[..., 0]))

    p = make_datum(grid, "point")
    assert np.isclose(np.abs(p.values).max(),
                      np.exp(-3 * grid.h ** 2 / (4 * (2 * grid.h) ** 2)))

    s = make_datum(grid, {"name": "shell", "radius": 1.0, "width": 0.25})
    k = np.unravel_index(np.argmax(np.abs(s.values)), grid.shape)
    assert abs(grid.radii[k] - 1.0) < 2 * grid.h


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name", ["gaussian", "point", "wave"])
def test_separable_datum_matches_the_node_formula(name, n):
    # the outer product of 1-D factors against the formula on the node array
    grid = RadialGrid(n, 2.0, 0.5)
    center = np.array([0.4, -0.3, 0.7, 0.2][:n])
    spec = {"name": name, "amplitude": -1.7, "center": center.tolist()}
    width = 2 * grid.h
    if name != "point":
        spec["width"] = width = 1.3
    if name == "wave":
        spec["k"] = 2.5
    X = grid.points
    expect = -1.7 * np.exp(-np.sum((X - center) ** 2, axis=-1) / width ** 2)
    if name == "wave":
        expect = expect * np.exp(2.5j * X[..., 0])
    got = make_datum(grid, spec).values
    assert got.dtype == np.complex128
    np.testing.assert_allclose(got, expect, rtol=1e-14, atol=0)


def test_free_discretization_and_datum_hold_only_the_datum(traced_memory):
    # no node array, no zero V and no grid-sized datum stay held: a free
    # pair's discretization and a wave datum keep the datum's 1-D factors
    # (33 bytes per node beyond a grid-sized datum when the grid cached its
    # points and V was grid-sized, and 16 more when the datum kept its
    # values besides its factors)
    grid = RadialGrid(3, 8.0, 0.5)
    made = []
    held, _ = traced_memory(lambda: made.extend(
        (Discretization(grid, PotentialPair(3)), make_datum(grid, "wave"))))
    disc, f = made
    assert disc.V.ndim == 0 and f.factors is not None
    assert held < grid.size


@pytest.mark.parametrize("name", ["gaussian", "point", "wave"])
def test_separable_datum_holds_less_than_a_byte_a_node(traced_memory, name):
    grid = RadialGrid(3, 8.0, 0.5)
    held, _ = traced_memory(lambda: make_datum(grid, name))
    assert held < grid.size


@pytest.mark.parametrize("name", ["gaussian", "point", "wave"])
def test_datum_rows_are_the_bits_of_the_whole_outer_product(name):
    # rows(s, e) takes the products of make_datum's outer product in its
    # order, so rows read by slabs of the whole grid, of 3 rows (m = 16 is
    # not a multiple) and of 1 row give the same bits
    grid = RadialGrid(3, 4.0, 0.5)
    spec = {"name": name, "amplitude": -1.7, "center": [0.4, -0.3, 0.7]}
    if name == "wave":
        spec["k"] = 2.5
    f = make_datum(grid, spec)
    whole = functools.reduce(np.multiply.outer, f.factors)
    assert whole.dtype == np.complex128
    for rows in (grid.m, 3, 1):
        got = np.concatenate([f.rows(s, min(s + rows, grid.m))
                              for s in range(0, grid.m, rows)])
        assert np.array_equal(got, whole)
    assert np.array_equal(f.values, whole)


@pytest.mark.parametrize("A, V, what", [
    (None, lambda x: np.where(x[..., 0] > 1.0, np.nan, 0.5), "electric potential V"),
    (None, lambda x: np.full(x.shape[:-1], np.inf), "electric potential V"),
    (lambda x: np.where(x[..., :1] > 1.0, np.nan, x), None, "magnetic potential A"),
])
def test_nonfinite_samples_are_refused(operator_calls, A, V, what):
    # a custom callable that samples NaN or inf anywhere is refused by
    # the sampling, before any operator is built or applied
    with pytest.raises(ParameterError, match=what):
        build_problem(PotentialPair(3, A=A, V=V), 1.0, 0.5, "gaussian", small_grid())
    assert operator_calls == {"apply": 0, "precond": 0}


def test_nonfinite_residual_ends_the_solve(operator_calls):
    # a NaN that reaches the operator (here written into V after the
    # sampling checked it) ends the solve at its first true residual:
    # one application, not MAXITER Arnoldi steps on NaN
    grid = small_grid()
    disc = Discretization(grid, make_potential_pair(3, None, "gaussian"))
    disc.V = np.full(grid.shape, np.nan)
    prob = ResolventProblem(disc, 1.0, 0.5, make_datum(grid, "gaussian"))
    with pytest.raises(SolverError) as err:
        solve(prob)
    assert math.isnan(err.value.achieved_residual)
    assert operator_calls == {"apply": 1, "precond": 1}


@pytest.mark.parametrize("pp", [
    make_potential_pair(3, {"name": "ex13"}, {"name": "exp_screened", "amplitude": 0.3}),
    PotentialPair(3, A=swirl, V=lambda x: -30.0 * np.exp(-np.sum(x ** 2, axis=-1))),
], ids=["ex13-exp_screened", "custom-A-without-jacobian"])
def test_slab_sampling_equals_whole_grid_sampling(monkeypatch, traced_memory, pp):
    # link phases, V (capped: the custom V reaches -30 < -1/h^2 = -16) and
    # d_r V sampled slab by slab from the 1-D coordinates are the
    # whole-grid samples to the bit, from as many eval_A and eval_V points
    # besides those of d_r V and B_tau on the 2^n central nodes, which
    # Discretization tries for a pair undefined there
    grid = RadialGrid(3, 3.0, 0.25)
    points = {"A": 0, "V": 0}
    for key in points:
        original = getattr(PotentialPair, f"eval_{key}")

        def counted(pp, x, key=key, original=original):
            points[key] += x.size // x.shape[-1]
            return original(pp, x)

        monkeypatch.setattr(PotentialPair, f"eval_{key}", counted)
    made = []

    def sample():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            made.append(Discretization(grid, pp))
        made.append(made[0].radial_derivative())

    held, peak = traced_memory(sample)
    disc, drv = made
    # the slabs' points and the callables' temporaries are a fraction of
    # one grid array (whole-grid sampling peaked at twice what it held)
    assert peak - held < grid.size * 16 / 2
    sampled, points = points, {"A": 0, "V": 0}
    near = point_array([grid.coords_1d[grid.central]] * grid.n)
    radial_derivative_parts(pp, near)
    trapping_component(pp, near)
    phases, V, ref_drv = whole_grid_samples(grid, pp)
    assert sampled == points
    # an axis kept as None is one whose whole-grid phases are all 1
    assert len(disc.phases) == len(phases) == 3
    for p, q in zip(disc.phases, phases):
        assert np.all(q == 1) if p is None else np.array_equal(p, q)
    assert np.array_equal(disc.V, V)
    assert np.array_equal(drv, ref_drv)


def test_sampling_fills_the_constant_slabs_ahead_of_the_first_other_one():
    # A, V and d_r V vanish on the rows of axis 0 with x < 0, so each
    # array is allocated at a later slab (one row a slab here) and the
    # rows ahead of it hold the constant: the whole-grid samples, phase 1
    # and zeros there
    grid = RadialGrid(3, 3.0, 0.25)

    def half(X):
        return np.where(X[..., 0] > 0, np.exp(-np.sum(X ** 2, axis=-1)), 0.0)

    pp = PotentialPair(3, A=lambda X: half(X)[..., None] * np.ones(3), V=half, dV_r=half)
    disc = Discretization(grid, pp)
    phases, V, drv = whole_grid_samples(grid, pp)
    assert np.all(phases[0][0] == 1) and not V[0].any()
    for p, q in zip(disc.phases, phases):
        assert np.array_equal(p, q)
    assert np.array_equal(disc.V, V)
    assert np.array_equal(disc.radial_derivative(), drv)


def test_pair_without_V_keeps_a_zero_dimensional_radial_derivative(
        radial_derivative_samples):
    # like V, d_r V of a pair without V is a 0-d zero, sampled nowhere
    grid = small_grid()
    for A in (None, "ex13"):
        disc = Discretization(grid, make_potential_pair(3, A, None))
        drv = disc.radial_derivative()
        assert drv.ndim == 0 and drv == 0 and not drv.flags.writeable
        assert disc.radial_derivative() is drv
    assert radial_derivative_samples == []


def test_radial_derivative_that_samples_to_zero_is_kept_zero_dimensional(
        radial_derivative_samples):
    # a gaussian V of amplitude 0 comes with its analytic d_r V: both are
    # sampled at every node, both sample to zero, and both are kept 0-d;
    # d_r V is also tried on the 2^n central nodes, two rows of axis 0,
    # when the pair is sampled
    grid = small_grid()
    for A in (None, "ex13"):
        pp = make_potential_pair(3, A, {"name": "gaussian", "amplitude": 0.0})
        assert pp.dV_r is not None
        disc = Discretization(grid, pp)
        drv = disc.radial_derivative()
        assert disc.V.ndim == 0
        assert drv.ndim == 0 and drv == 0 and not drv.flags.writeable
        assert disc.radial_derivative() is drv
    assert sum(shape[0] for shape in radial_derivative_samples) == 2 * (grid.m + 2)


def test_problem_takes_the_datum_maximum_slab_by_slab(traced_memory):
    # the boundary check reads the datum's maximum one slab at a time, so
    # making a datum of a field allocates a fraction of one grid-sized
    # array (np.abs of the whole datum was half a complex128 one)
    grid = RadialGrid(3, 8.0, 0.25)
    f = make_datum(grid, "gaussian")
    _, peak = traced_memory(lambda: make_datum(grid, f))
    assert peak < 0.25 * grid.size * 16


def test_datum_rejects_bad_specs():
    grid = small_grid()
    with pytest.raises(ParameterError):
        make_datum(grid, "vortex")
    with pytest.raises(ParameterError):
        make_datum(grid, {"name": "gaussian", "wavelength": 2.0})
    with pytest.raises(ParameterError):
        make_datum(grid, {"width": 1.0})


def test_problem_warns_on_boundary_supported_datum():
    grid = small_grid()
    with pytest.warns(UserWarning, match="boundary"):
        build_problem(PotentialPair(3), 1.0, 1.0,
                      {"name": "gaussian", "width": 6.0}, grid)
    # the warning names the line that makes the datum
    with pytest.warns(UserWarning, match="boundary") as record:
        make_datum(grid, {"name": "gaussian", "width": 6.0})
    assert record[0].filename == __file__


@pytest.mark.parametrize("n", [3, 4])
def test_boundary_warning_reads_the_two_outer_layers(n):
    # the nodes with |x_k| > L - 2h are index layers 0, 1, m-2 and m-1
    grid = RadialGrid(n, 2.0, 0.5)
    m = grid.m
    for layer, warns in ((1, True), (m - 2, True), (2, False), (m - 3, False)):
        for k in range(n):
            idx = [m // 2] * n
            vals = np.zeros(grid.shape, complex)
            vals[tuple(idx)] = 1.0
            idx[k] = layer
            vals[tuple(idx)] = 1.0
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                make_datum(grid, ScalarField(grid, vals))
            assert any("boundary" in str(w.message) for w in caught) == warns


def test_problem_parameter_checks(operator_calls):
    # a problem is a plain record: solve refuses its eps = 0 and lambda < 0
    # before any operator application
    grid = small_grid()
    with pytest.raises(ParameterError, match="eps"):
        solve(build_problem(PotentialPair(3), 1.0, 0.0, "point", grid))
    with pytest.raises(ParameterError, match="lambda"):
        solve(build_problem(PotentialPair(3), -1.0, 1.0, "point", grid))
    assert operator_calls == {"apply": 0, "precond": 0}
    with pytest.raises(ParameterError):
        build_problem(PotentialPair(4), 1.0, 1.0, "point", grid)


def test_epsilon_floor_value():
    # the floor is the eps at which the damping number Im sqrt(lambda + i eps) L
    # is 1
    for L, lam in ((8.0, 0.0), (8.0, 1.0), (12.0, 1.0), (6.0, 3.5)):
        floor = epsilon_floor(L, lam)
        assert cmath.sqrt(lam + 1j * floor).imag * L == pytest.approx(1.0, rel=1e-12)
    # it separates the free box solutions at lambda = 1 that are within 4.9 %
    # of the whole-space one from those 14 % or more off (ROADMAP item 1)
    for L, eps in ((6.0, 1.0), (12.0, 1.0), (24.0, 1.0), (24.0, 0.1)):
        assert eps > epsilon_floor(L, 1.0)
    for L, eps in ((6.0, 0.1), (6.0, 0.01), (12.0, 0.1), (12.0, 0.01), (24.0, 0.01)):
        assert eps < epsilon_floor(L, 1.0)


# --- solve -------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4])
def test_single_precision_operator_keeps_its_dtype(n):
    # the complex64 twin applies the same operator and preconditioner to
    # float32 precision and never upcasts what it is given
    grid = RadialGrid(n, 1.0, 0.25)
    disc = Discretization(grid, random_pair(n, 7))
    op = DiscreteOperator(disc, 1.0, 0.3)
    low = DiscreteOperator(disc, 1.0, 0.3, np.complex64)
    u = random_field(grid, 8).values
    u32 = u.astype(np.complex64)
    for f, f32 in ((op.apply, low.apply),
                   (op.preconditioner(), low.preconditioner())):
        got = f32(u32)
        assert got.dtype == np.complex64
        expect = f(u32.astype(complex))
        err = np.linalg.norm(got.ravel() - expect.ravel())
        assert err <= 20 * np.finfo(np.float32).eps * np.linalg.norm(expect)


def test_zero_datum_gives_zero_solution():
    grid = small_grid()
    f = ScalarField.zeros(grid)
    prob = build_problem(PotentialPair(3), 1.0, 1.0, f, grid)
    u = solve(prob)
    assert np.abs(u.values).max() == 0.0
    assert (u.residual, u.iterations, u.cycles) == (0.0, 0, 0)


def test_free_solve_matches_exact_spectral_inverse():
    grid = small_grid(h=0.25)
    prob = build_problem(PotentialPair(3), 1.0, 0.5, "point", grid)
    u = solve(prob, tol=1e-12)
    op = DiscreteOperator(prob.disc, prob.lam, prob.eps)
    exact = op.preconditioner()((-prob.f.values).ravel()).reshape(grid.shape)
    scale = np.abs(exact).max()
    assert np.abs(u.values - exact).max() < 1e-9 * scale


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([3, 4]), m=st.sampled_from([4, 8, 12, 16]),
       lam=st.floats(0.0, 20.0), eps=st.floats(0.1, 10.0),
       sign=st.sampled_from([1.0, -1.0]), seed=st.integers(0, 2 ** 16))
def test_preconditioner_inverts_free_operator(n, m, lam, eps, sign, seed):
    # m + 1 = 5, 13 and 17 are prime, the lengths a plain FFT handles worst
    grid = RadialGrid(n, m / 4, 0.5)
    op = DiscreteOperator(Discretization(grid, PotentialPair(n)), lam, sign * eps)
    v = random_field(grid, seed).values.ravel()
    back = op.apply(op.preconditioner()(v)).ravel()
    assert np.linalg.norm(back - v) <= 1e-12 * np.linalg.norm(v)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name", ["gaussian", "point", "wave"])
def test_preconditioner_takes_the_spectrum_of_a_separable_field(name, n):
    # S (f_0 x ... x f_n-1) = S f_0 x ... x S f_n-1: the field's 1-D
    # factors give the same M^-1 f as the dense forward transform
    grid = RadialGrid(n, 2.0, 0.5)
    spec = {"name": name, "amplitude": -1.7, "center": [0.4, -0.3, 0.7, 0.2][:n]}
    if name != "point":
        spec["width"] = 1.3
    f = make_datum(grid, spec)
    assert len(f.factors) == n
    disc = Discretization(grid, PotentialPair(n))
    minv = DiscreteOperator(disc, 1.0, 0.3).preconditioner()
    expect = minv(f.values.ravel())
    got = minv(f)
    assert got.dtype == np.complex128 and got.shape == expect.shape
    np.testing.assert_allclose(got, expect, rtol=0,
                               atol=1e-14 * np.abs(expect).max())


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("free", [True, False], ids=["free", "A_V"])
def test_in_place_preconditioner_equals_the_stacked_transform(n, dtype, free,
                                                              monkeypatch):
    # the slab and column-block sweeps take the matrix products and the
    # table's real arithmetic of the whole-array transform of two stacked
    # real buffers in the same order on the same values, so the result is
    # the same to the bit: for dense data and a field with factors (a
    # free operator's start takes its spectrum from them), with the whole
    # grid in one slab (m = 8), slabs and column blocks of 3 rows' nodes
    # (m not a multiple: the last slab and block are partial) and of 1 row
    grid = RadialGrid(n, 2.0, 0.5)
    disc = Discretization(grid, PotentialPair(n) if free else random_pair(n, 15))
    f = make_datum(grid, {"name": "wave", "width": 1.3,
                          "center": [0.4, -0.3, 0.7, 0.2][:n]})
    v = random_field(grid, 16).values.astype(dtype)
    row = grid.size // grid.m * np.dtype(dtype).itemsize
    assert resolvent.SLAB_BYTES // row > grid.m
    for rows in (None, 3, 1):
        if rows is not None:
            monkeypatch.setattr(resolvent, "SLAB_BYTES", rows * row)
        op = DiscreteOperator(disc, 0.7, -0.3, dtype)
        minv, ref = op.preconditioner(), whole_array_preconditioner(op)
        for arg in (v, f):
            got = minv(arg)
            assert got.dtype == dtype and got.shape == (grid.size,)
            assert np.array_equal(got, ref(arg))


def test_shell_datum_keeps_no_factors():
    # the shell is not separable: it keeps its values, and its rows are
    # views of them
    grid = small_grid()
    f = make_datum(grid, "shell")
    assert f.factors is None
    assert np.shares_memory(f.rows(3, 5), f.values)
    assert np.array_equal(f.rows(3, 5), f.values[3:5])
    disc = Discretization(grid, PotentialPair(3))
    minv = DiscreteOperator(disc, 1.0, 0.3).preconditioner()
    assert np.array_equal(minv(f), minv(f.values.ravel()))


def test_preconditioner_tables_hold_two_float_arrays(traced_memory):
    # Re and Im of 1/(d - i eps) are formed as d/(d^2 + eps^2) and
    # eps/(d^2 + eps^2) block by block: the complex64 twin keeps them as
    # two float32 arrays (one float64 array's bytes), and the complex128
    # start keeps no table at all, only the sine matrix (it held two
    # float64 arrays)
    grid = RadialGrid(3, 8.0, 0.5)
    disc = Discretization(grid, PotentialPair(3))
    nbytes = grid.size * 8
    for dtype, peak_at_most, held_at_most in ((np.complex128, 0.25, 0.25),
                                              (np.complex64, 2.1, 1.1)):
        op = DiscreteOperator(disc, 1.0, 0.3, dtype)
        held, peak = traced_memory(op.preconditioner)
        assert peak < peak_at_most * nbytes
        assert held < held_at_most * nbytes


def test_free_solve_of_a_separable_datum_starts_from_its_factors(monkeypatch):
    # the start is the one preconditioner call, made with the field itself
    # (one positional argument, as a wrapper of the callable sees it)
    calls = {"apply": 0, "precond": []}
    apply, preconditioner = DiscreteOperator.apply, DiscreteOperator.preconditioner

    def counted_apply(op, *args):
        calls["apply"] += 1
        return apply(op, *args)

    def recorded_preconditioner(op):
        minv = preconditioner(op)

        def recorded(*args, **kwargs):
            calls["precond"].append((args, kwargs))
            return minv(*args, **kwargs)

        return recorded

    monkeypatch.setattr(DiscreteOperator, "apply", counted_apply)
    monkeypatch.setattr(DiscreteOperator, "preconditioner", recorded_preconditioner)
    grid = small_grid(h=0.25)
    prob = build_problem(PotentialPair(3), 1.0, 0.5,
                         {"name": "wave", "width": 0.5,
                          "center": [0.3, 0.0, -0.2]}, grid)
    u = solve(prob, tol=1e-12)
    assert u.residual <= 1e-12
    assert calls["apply"] == 1
    [(args, kwargs)] = calls["precond"]
    assert len(args) == 1 and args[0] is prob.f and not kwargs


def test_non_free_solve_ignores_the_factors():
    # a magnetic solve starts from the dense datum, so dropping the factors
    # changes no bit of its steps or of u
    prob = magnetic_point_problem(0.25)
    assert prob.f.factors is not None
    u = solve(prob, tol=1e-10)
    prob.f = ScalarField(prob.grid, prob.f.values)
    plain = solve(prob, tol=1e-10)
    assert (u.iterations, u.cycles) == (plain.iterations, plain.cycles)
    assert np.array_equal(u.values, plain.values)


@pytest.mark.parametrize("n, L", [(3, 4.0), (4, 2.0)])
@pytest.mark.parametrize("lam, eps", [(1.0, 1.0), (0.0, 0.01), (3.0, -0.1)])
def test_free_solve_costs_one_preconditioner_and_one_apply(operator_calls,
                                                           operator_dtypes, n, L,
                                                           lam, eps):
    # the preconditioner is the free operator's exact inverse, so the start
    # minv(f) passes the first residual check before any Arnoldi step, and
    # the complex64 operator of the cycles is never built
    grid = RadialGrid(n, L, 0.25)
    prob = build_problem(PotentialPair(n), lam, eps,
                         {"name": "point", "width": 0.25}, grid)
    u = solve(prob, tol=1e-12)
    assert u.residual <= 1e-12
    assert operator_calls == {"apply": 1, "precond": 1}
    assert (u.iterations, u.cycles) == (0, 0)
    assert operator_dtypes == [np.complex128]


#: the datum centres of each box a solve takes, and its (half, turn) (see
#: resolvent._box): ex13 with a radial V is even in z and under the half
#: turn about the z-axis, and so is a point datum centred at the origin;
#: one at z = 0.5 is not even in z, one at x = 0.3 not under the half turn
BOXES = {"whole": ([0.3, 0.0, 0.5], (False, False)), "half": ([0.3, 0.0, 0.0], (True, False)),
         "turn": ([0.0, 0.0, 0.5], (False, True)), "both": (0.0, (True, True))}


def magnetic_point_problem(eps, grid=None, box="both"):
    pp = make_potential_pair(3, {"name": "ex13"}, {"name": "gaussian", "amplitude": 0.5})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the point datum reaches the boundary
        return build_problem(pp, 1.0, eps, {"name": "point", "center": BOXES[box][0]},
                             grid or small_grid())


# measured operator applications per eps on each box
MAGNETIC_APPLICATIONS = {"whole": {1.0: 23, 0.25: 33, 0.05: 37},
                         "half": {1.0: 22, 0.25: 31, 0.05: 34},
                         "turn": {1.0: 18, 0.25: 21, 0.05: 23},
                         "both": {1.0: 18, 0.25: 20, 0.05: 21}}


@pytest.mark.parametrize("eps", [1.0, 0.25, 0.05])
def test_magnetic_solve_application_count(operator_calls, eps):
    # pinned at the measured count: a change to the start, the cycle cut or
    # the cycles' precision must not cost iterations unnoticed, on either
    # box.  Each Arnoldi step applies the operator and the preconditioner
    # once, each cycle adds one of each (its true residual, its
    # correction), and the start minv(f) and the final residual check add
    # one more
    for box, counts in MAGNETIC_APPLICATIONS.items():
        prob = magnetic_point_problem(eps, box=box)
        assert resolvent._box(prob) == BOXES[box][1]
        operator_calls.update(apply=0, precond=0)
        u = solve(prob, tol=1e-10)
        assert u.residual <= 1e-10
        count = counts[eps]
        assert operator_calls == {"apply": count, "precond": count}
        assert 1 + u.iterations + u.cycles == count
        assert u.cycles >= 1


def test_solve_refines_below_single_precision(operator_dtypes):
    # tol = 1e-13 is far below float32's 1.2e-7: only the complex128 true
    # residual of later cycles gets there, each complex64 cycle gaining at
    # most a factor 1 / CYCLE_REDUCTION
    prob = magnetic_point_problem(0.25)
    u = solve(prob, tol=1e-13)
    assert operator_dtypes == [np.complex128, np.complex64]
    b = -prob.f.values
    op = DiscreteOperator(prob.disc, prob.lam, prob.eps)
    res = np.linalg.norm(op.apply(u.values) - b) / np.linalg.norm(b)
    assert res <= 1e-13
    assert u.residual == pytest.approx(res)
    assert u.cycles >= 3


def test_solve_does_not_depend_on_the_scale_of_f():
    # each cycle solves for r / ||r||, so a datum far outside float32's
    # range (1.2e-38 to 3.4e38) takes the same steps to the same u / scale;
    # a power of two scales f without rounding, so every cycle then sees
    # the same r / ||r|| and u / scale is bitwise the unscaled solution
    base = solve(magnetic_point_problem(0.25), tol=1e-10)
    for scale, exact in ((1e-40, False), (1e40, False),
                         (2.0 ** -140, True), (2.0 ** 140, True)):
        prob = magnetic_point_problem(0.25)
        prob.f = ScalarField(prob.grid, scale * prob.f.values)
        u = solve(prob, tol=1e-10)
        assert (u.iterations, u.cycles) == (base.iterations, base.cycles)
        err = np.abs(u.values / scale - base.values).max()
        assert err <= 1e-8 * np.abs(base.values).max()
        if exact:
            assert err == 0


def test_solve_peak_memory(traced_memory):
    # transient allocations of a solve, in grid-sized complex128 arrays.
    # On the whole box (the datum off the plane z = 0) 55.4 measured, of
    # which the 101 complex64 basis vectors are 50.5; a complex128 basis
    # alone would be 101, and one more grid-sized complex128 temporary
    # would pass the bound, as would the twin's complex64 casts of ex13's
    # two phase arrays (56.2 when the twin kept them; it now casts the rows
    # of each slab into one slab buffer, which at 32^3 covers the grid).
    # The datum's values are formed inside the solve, for its start only,
    # and dropped, and the cycle heads read its rows one at a time into a
    # row buffer.  On the half box (a datum on the plane z = 0, off the
    # z-axis) 29.9 measured: the basis of half-box vectors is 25.3, the
    # iterate a buffer of the whole grid (1), and the half copies of the
    # phases and V are made inside the solve; a basis of whole-grid
    # vectors (55.4 measured when this solve took the whole box) or one
    # more grid-sized temporary would pass the bound.  On the half-turn
    # box (a datum on the z-axis off that plane) 28.9 measured, of the
    # same parts; on the box of both (the centred datum) 15.8 measured,
    # its basis 12.6: a basis of vectors of either half box, or one more
    # grid-sized temporary, would pass its bound
    grid = RadialGrid(3, 8.0, 0.5)
    for centre, bound in (([0.3, 0.0, 0.5], 56), ([0.3, 0.0, 0.0], 30.5),
                          ([0.0, 0.0, 0.5], 29.5), (0.0, 16.4)):
        prob = build_problem(example_field("ex13"), 1.0, 0.1,
                             {"name": "gaussian", "width": 1.0, "center": centre}, grid)
        made = []
        _, peak = traced_memory(lambda: made.append(solve(prob, tol=1e-10)))
        [u] = made
        assert u.iterations >= 20
        assert peak < bound * grid.size * 16


def test_free_solve_peak_memory(traced_memory, monkeypatch):
    # a free solve of a separable datum holds only the solution: the datum
    # keeps its 1-D factors, the start transforms in its own output and
    # every sweep reads the datum a row at a time.  Beyond the solution it
    # allocates slab scratch: 5.7 slabs measured (the two planar buffers
    # of two slabs each, the table of a column block, the spectrum's outer
    # product of n - 1 factors, the sine matrices and a row buffer).
    # With slabs of 1/16 of a grid array, a grid-sized datum (21.3 slabs
    # beyond the solution when make_datum kept the datum's values), two
    # stacked real buffers in the preconditioner and a grid-sized residual
    # at the head each fail the bound
    grid = RadialGrid(3, 8.0, 0.5)
    monkeypatch.setattr(resolvent, "SLAB_BYTES", grid.size)
    disc = Discretization(grid, PotentialPair(3))
    made = []

    def solve_wave():
        made.append(make_datum(grid, {"name": "wave", "width": 2.0, "k": 3.5}))
        made.append(solve(ResolventProblem(disc, 1.0, 0.1, made[0]), tol=1e-9))

    _, peak = traced_memory(solve_wave)
    f, u = made
    assert u.iterations == 0 and f.factors is not None
    assert peak <= grid.size * 16 + 8 * resolvent.SLAB_BYTES


def test_solve_does_not_depend_on_the_slab_size(operator_calls, monkeypatch):
    # apply, the preconditioners and the head's residual norm (summed from
    # the squares of the rows of axis 0) give the same values at every
    # slab size, so a solve takes the same steps to the same u, on every
    # box (the half box's rows hold half as many nodes, the half-turn
    # box's half as many rows)
    slab_bytes = resolvent.SLAB_BYTES
    for box in BOXES:
        monkeypatch.setattr(resolvent, "SLAB_BYTES", slab_bytes)
        operator_calls.update(apply=0, precond=0)
        base = solve(magnetic_point_problem(0.25, box=box), tol=1e-10)
        counts = dict(operator_calls)
        grid = base.grid
        for rows in (3, 1):
            monkeypatch.setattr(resolvent, "SLAB_BYTES", rows * grid.size // grid.m * 8)
            operator_calls.update(apply=0, precond=0)
            u = solve(magnetic_point_problem(0.25, box=box), tol=1e-10)
            assert operator_calls == counts
            assert (u.iterations, u.cycles, u.residual) == (
                base.iterations, base.cycles, base.residual)
            assert np.array_equal(u.values, base.values)


# --- the boxes of a problem even in the last axis or under the half turn --------


def even_pair(n, seed):
    """A smooth random (A, V) on R^n even in the last coordinate to the
    bit, with A's last component zero."""
    r = np.random.default_rng(seed)
    c, a = r.standard_normal(n), r.uniform(-3.0, 3.0)

    def A(X):
        out = np.sin(X + c) * np.exp(-X[..., -1:] ** 2)
        out[..., -1] = 0.0
        return out

    return PotentialPair(n, A=A, V=lambda X: a * np.exp(-np.sum(X ** 2, axis=-1)))


def turn_pair(n, seed):
    """A smooth random (A, V) on R^n, n >= 3, even to the bit in the last
    coordinate and under the half turn (x_0, x_1) -> (-x_0, -x_1): A_0 and
    A_1 odd under the turn, A's other components and V even, A's last
    component zero.  Each term is a product of x_0, x_1 and squares, which
    a dyadic grid's nodes and midpoints turn exactly."""
    r = np.random.default_rng(seed)
    a, c = r.uniform(-2.0, 2.0, (2, 2)), r.uniform(-2.0, 2.0, n)

    def A(X):
        x, y, z2 = X[..., 0], X[..., 1], X[..., -1] ** 2
        g = np.exp(-np.sum(X ** 2, axis=-1))
        out = np.zeros_like(X)
        out[..., 0] = (a[0, 0] * x + a[0, 1] * y) * (1 + z2) * g
        out[..., 1] = (a[1, 0] * x + a[1, 1] * y) * g
        for k in range(2, n - 1):
            out[..., k] = (c[k] + x * y + z2) * g
        return out

    return PotentialPair(n, A=A, V=lambda X: (c[0] + c[1] * X[..., 0] * X[..., 1])
                         * np.exp(-np.sum(X ** 2, axis=-1)))


def even_values(grid, seed, turn=False):
    """Random values equal to their mirror image along the last axis, or
    with turn to their image under the half turn, v[::-1, ::-1]."""
    v = random_field(grid, seed).values
    return v + (v[::-1, ::-1] if turn else v[..., ::-1])


def box_of(a, half=False, turn=False):
    """The part of the grid-sized array a on a box of DiscreteOperator,
    contiguous: axis 0's upper half with turn, the last axis's with half."""
    mid = a.shape[0] // 2
    return np.ascontiguousarray(a[mid if turn else 0:, ..., mid if half else 0:])


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_half_box_apply_is_the_upper_half_of_the_whole_box_apply(n, dtype):
    # below its first layer the half box's stencil reads the mirror node,
    # which on an even field holds the value the whole box's stencil reads
    # there, and adds it in the same order: its rows are the upper half of
    # the whole box's to the bit
    grid = RadialGrid(n, 2.0, 0.5)
    disc = Discretization(grid, even_pair(n, 20))
    assert disc.even() and not disc.even(turn=True)
    u = even_values(grid, 21).astype(dtype)
    whole = DiscreteOperator(disc, 0.7, -0.3, dtype).apply(u)
    half = DiscreteOperator(disc, 0.7, -0.3, dtype, half=True)
    got = half.apply(np.ascontiguousarray(u[..., grid.m // 2:]))
    assert got.dtype == dtype and got.shape == half.shape
    assert np.array_equal(got, whole[..., grid.m // 2:])


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_half_turn_box_apply_is_the_upper_rows_of_the_box_apply(n, dtype):
    # below its first row the half-turn box's stencil reads the twisted
    # mirror, conj(U_0) at row m/2 - 1 times the first row's node m-1-j,
    # which on a field even under the half turn holds the value the box
    # without the turn reads there, and adds it in the same order: its
    # rows are the upper half of that box's to the bit, the half box's
    # included
    grid = RadialGrid(n, 2.0, 0.5)
    disc = Discretization(grid, turn_pair(n, 24))
    assert disc.even() and disc.even(turn=True)
    v = even_values(grid, 25, turn=True)
    for half in (False, True):
        u = (v + v[..., ::-1] if half else v).astype(dtype)
        ref = DiscreteOperator(disc, 0.7, -0.3, dtype, half=half).apply(box_of(u, half))
        op = DiscreteOperator(disc, 0.7, -0.3, dtype, half=half, turn=True)
        got = op.apply(box_of(u, half, turn=True))
        assert got.dtype == dtype and got.shape == op.shape
        assert np.array_equal(got, ref[grid.m // 2:])


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("dtype, rtol", [(np.complex128, 1e-13), (np.complex64, 1e-5)])
def test_half_box_preconditioner_is_the_whole_box_inverse_of_the_even_field(n, dtype,
                                                                            rtol):
    # the z-even sine modes X = sqrt(2) S[m/2:, ::2] span the even fields'
    # halves, so the half box's inverse is the whole box's on them; it also
    # inverts the half box's free operator, and takes the spectrum of an
    # even separable field from its factors
    grid = RadialGrid(n, 2.0, 0.5)
    mid = grid.m // 2
    disc = Discretization(grid, PotentialPair(n))
    v = even_values(grid, 22)
    whole = DiscreteOperator(disc, 0.7, -0.3, dtype)
    half = DiscreteOperator(disc, 0.7, -0.3, dtype, half=True)
    expect = whole.preconditioner()(v.astype(dtype)).reshape(grid.shape)[..., mid:]
    got = half.preconditioner()(np.ascontiguousarray(v[..., mid:], dtype))
    assert got.dtype == dtype and got.size == half.size
    np.testing.assert_allclose(got.reshape(half.shape), expect, rtol=0,
                               atol=rtol * np.abs(expect).max())
    back = half.apply(got)
    np.testing.assert_allclose(back, v[..., mid:], rtol=0, atol=10 * rtol * np.abs(v).max())
    f = make_datum(grid, {"name": "wave", "width": 0.7,
                          "center": [0.3, -0.2, 0.1][:n - 1] + [0.0]})
    assert f.factors is not None
    minv = half.preconditioner()
    expect = minv(np.ascontiguousarray(f.values[..., mid:]))
    np.testing.assert_allclose(minv(f), expect, rtol=0, atol=rtol * np.abs(expect).max())


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("dtype, rtol", [(np.complex128, 1e-13), (np.complex64, 1e-5)])
def test_half_turn_box_preconditioner_is_the_box_inverse_of_the_even_field(n, dtype, rtol):
    # the modes even under the half turn, those whose parities along axes
    # 0 and 1 agree, span the even fields' upper rows, so the half-turn
    # box's inverse, its basis along axis 0 split by the parity of axis 1's
    # mode, is the inverse of the box without the turn on them (the half
    # box's too); it also inverts the half-turn box's free operator, and
    # takes the spectrum of an even separable field from its factors
    grid = RadialGrid(n, 2.0, 0.5)
    mid = grid.m // 2
    disc = Discretization(grid, PotentialPair(n))
    v = even_values(grid, 26, turn=True)
    for half in (False, True):
        u = v + v[..., ::-1] if half else v
        ref = DiscreteOperator(disc, 0.7, -0.3, dtype, half=half)
        expect = ref.preconditioner()(box_of(u, half).astype(dtype)).reshape(ref.shape)[mid:]
        op = DiscreteOperator(disc, 0.7, -0.3, dtype, half=half, turn=True)
        got = op.preconditioner()(box_of(u, half, turn=True).astype(dtype))
        assert got.dtype == dtype and got.size == op.size
        np.testing.assert_allclose(got.reshape(op.shape), expect, rtol=0,
                                   atol=rtol * np.abs(expect).max())
        back = op.apply(got)
        np.testing.assert_allclose(back, box_of(u, half, turn=True), rtol=0,
                                   atol=10 * rtol * np.abs(u).max())
        centre = [0.0, 0.0, 0.3, -0.2][:n] if not half else 0.0
        f = make_datum(grid, {"name": "gaussian", "width": 0.7, "amplitude": -1.3,
                              "center": centre})
        assert f.factors is not None
        minv = op.preconditioner()
        expect = minv(box_of(f.values, half, turn=True))
        np.testing.assert_allclose(minv(f), expect, rtol=0, atol=rtol * np.abs(expect).max())


def test_unfold_mirrors_each_line_in_place():
    # a box's values, the head of a buffer of the grid's size, become the
    # whole grid's in the same buffer: on the half box each line along the
    # last axis its mirror image followed by itself, on the half-turn box
    # each row i < m/2 the row m-1-i reversed along axis 1
    for n, m, half, turn in ((2, 6, True, False), (3, 4, True, False), (3, 10, True, False),
                             (3, 4, False, True), (3, 6, True, True), (4, 4, True, True),
                             (4, 6, False, True)):
        grid = RadialGrid(n, m / 4, 0.5)
        whole = even_values(grid, 23)
        if turn:
            whole = whole + whole[::-1, ::-1] if half else even_values(grid, 23, turn=True)
        part = box_of(whole, half, turn)
        buf = np.empty(grid.size, complex)
        x = buf[:part.size].reshape(part.shape)
        x[...] = part
        got = resolvent._unfold(x, grid, half, turn)
        assert np.shares_memory(got, buf)
        assert np.array_equal(got.reshape(grid.shape), whole)


def whole_box(monkeypatch):
    """Turn the half box and the half-turn box off: every solve takes the
    whole box."""
    monkeypatch.setattr(resolvent, "_box", lambda prob: (False, False))


@settings(max_examples=20, deadline=None)
@given(A=st.sampled_from([None, "ex13", "ex14"]),
       V=st.sampled_from([None, {"name": "exp_screened", "amplitude": 0.3},
                          {"name": "gaussian", "amplitude": 0.5}]),
       datum=st.sampled_from(["gaussian", "point", "wave", "shell"]),
       z=st.sampled_from([0.0, 0.5]),
       lam=st.floats(0.0, 4.0), eps=st.floats(0.05, 2.0), sign=st.sampled_from([1.0, -1.0]))
def test_half_box_solve_is_the_whole_box_solve(A, V, datum, z, lam, eps, sign):
    # the pairs are even in z and under the half turn about the z-axis; a
    # datum centred on the z-axis is even under the half turn too (the
    # wave, e^(ikx) g, is not), and even in z at z = 0 (the radial shell
    # at every z).  The problem solves on the box of its symmetries; the
    # unfolded u keeps them to the bit, meets the whole box's residual
    # bound and matches the whole box's solve to the forward bound of the
    # benchmark's reference check, twice tol times the condition number
    # (4n/h^2 + lambda)/eps
    grid, tol = RadialGrid(3, 3.0, 0.5), 1e-10
    spec = datum if datum == "shell" else {"name": datum, "center": [0.0, 0.0, z]}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # data reaching the boundary
        prob = build_problem(make_potential_pair(3, A and {"name": A}, V), lam, sign * eps,
                             spec, grid)
    half, turn = resolvent._box(prob)
    assert (half, turn) == (z == 0 or datum == "shell", datum != "wave")
    u = solve(prob, tol=tol)
    if half:
        assert np.array_equal(u.values, u.values[..., ::-1])
    if turn:
        assert np.array_equal(u.values, u.values[::-1, ::-1])
    b = prob.f.values
    op = DiscreteOperator(prob.disc, prob.lam, prob.eps)
    res = np.linalg.norm(op.apply(u.values) + b) / np.linalg.norm(b)
    assert res <= tol
    assert res == pytest.approx(u.residual, rel=1e-3)
    with pytest.MonkeyPatch.context() as mp:
        whole_box(mp)
        ref = solve(prob, tol=tol)
    bound = 2 * tol * (4 * 3 / grid.h ** 2 + lam) / eps
    assert np.linalg.norm(u.values - ref.values) <= bound * np.linalg.norm(ref.values)


_EX13_SCREENED = make_potential_pair(3, {"name": "ex13"},
                                     {"name": "exp_screened", "amplitude": 0.3})


@pytest.mark.parametrize("pp, centre, L, h, box", [
    (_EX13_SCREENED, [0.3, 0.0, 0.3], 3.0, 0.5, (False, False)),
    (example_field("ex14_family", h=lambda s: s ** 3 - 0.6 * s, omega=(0.3, -0.2, 1.0)),
     0.0, 3.0, 0.5, (False, False)),
    (_EX13_SCREENED, 0.0, 2.1, 0.3, (True, False)),
    (_EX13_SCREENED, [0.0, 0.0, 0.3], 3.0, 0.5, (False, True)),
], ids=["off-centre-datum", "tilted-omega", "uneven-midpoints", "z-axis-datum"])
def test_problems_that_are_not_even_take_the_whole_box(pp, centre, L, h, box, monkeypatch):
    # a datum off the plane z = 0, or a tilted omega, whose A_z is not 0,
    # breaks the mirror symmetry, so the solve takes the whole box along z;
    # a datum off the z-axis, the tilted omega or a grid whose midpoints
    # x + h/2 do not turn exactly (h = 0.3) breaks the half turn's.  Each
    # solve is the bits of a solve with the half turn turned off, and on
    # the half-turn box (a datum on the z-axis) it matches that solve to
    # the forward bound of test_half_box_solve_is_the_whole_box_solve
    grid, tol = RadialGrid(3, L, h), 1e-10
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the uneven grid's datum reaches the boundary
        prob = build_problem(pp, 1.0, 0.3, {"name": "gaussian", "width": 0.8, "center": centre},
                             grid)
    assert resolvent._box(prob) == box
    assert (prob.disc.phases[-1] is None) == prob.disc.even()
    u = solve(prob, tol=tol)
    monkeypatch.setattr(resolvent, "_box", lambda prob: (box[0], False))
    ref = solve(prob, tol=tol).values
    if not box[1]:
        assert np.array_equal(u.values, ref)
    else:
        bound = 2 * tol * (4 * 3 / grid.h ** 2 + 1.0) / 0.3
        assert np.linalg.norm(u.values - ref) <= bound * np.linalg.norm(ref)


def test_benchmark_workloads_take_both_sides_of_the_half_turn():
    # the benchmark times a solve on the half-turn box and solves without
    # it: identity_80's centred gaussian is even under the half turn, the
    # sweeps' wave e^(ikx) g(x) is not; every workload is even in z
    spec = importlib.util.spec_from_file_location(
        "workloads", pathlib.Path(__file__).parent.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    boxes = {}
    for name in workloads.BASE:
        sc = workloads.scenario(name, 0)
        pp = make_potential_pair(sc["n"], sc["potential"].get("A"), sc["potential"].get("V"))
        grid = RadialGrid(sc["n"], sc["grid"]["L"], sc["grid"]["h"])
        eps = sc["eps"] if "eps" in sc else sc["eps_list"][0]
        boxes[name] = resolvent._box(build_problem(pp, sc["lambda"], eps, sc["f"], grid))
    assert boxes == {"magnetic_sweep": (True, False), "identity_80": (True, True),
                     "free_sweep": (True, False)}


def test_apply_gives_the_residual_norm_without_a_grid_array(traced_memory,
                                                             monkeypatch):
    # apply(u, rhs) is ||rhs - Au||, formed slab by slab: the norm of the
    # whole residual to rounding, from a few slabs of scratch (the hop
    # sum, the phase products, the residual and the float64 diagonal;
    # 4.5 slabs of 1/16 of a grid array measured), not a grid array.  It
    # sums the squares of the rows of axis 0, so it is the same at every
    # slab size: the whole grid, 3 rows (m not a multiple) and 1 row.  u
    # spans several orders of magnitude, so that sums grouped by slab
    # would round differently
    grid = RadialGrid(3, 8.0, 0.25)
    disc = Discretization(grid, random_pair(3, 17))
    op = DiscreteOperator(disc, 1.0, 0.3)
    spread = np.exp(3 * np.random.default_rng(18).standard_normal(grid.shape))
    u, rhs = spread * random_field(grid, 18).values, random_field(grid, 19)
    expect = np.linalg.norm(rhs.values - op.apply(u))
    row = grid.size // grid.m * 16
    norms = []
    for rows in (grid.m, 3, 1):
        monkeypatch.setattr(resolvent, "SLAB_BYTES", rows * row)
        norms.append(op.apply(u, rhs))
    assert norms[0] == pytest.approx(expect, rel=1e-13)
    assert norms[1] == norms[0] and norms[2] == norms[0]
    monkeypatch.setattr(resolvent, "SLAB_BYTES", grid.size)
    _, peak = traced_memory(lambda: op.apply(u, rhs))
    assert peak < 6 * resolvent.SLAB_BYTES


def test_solve_reaches_requested_residual():
    grid = small_grid(h=0.25)
    pp = make_potential_pair(3, {"name": "ex13"}, {"name": "gaussian", "amplitude": 0.5})
    prob = build_problem(pp, 1.0, 0.25, "point", grid)
    u = solve(prob, tol=1e-10)
    b = -prob.f.values
    op = DiscreteOperator(prob.disc, prob.lam, prob.eps)
    res = np.linalg.norm(op.apply(u.values) - b) / np.linalg.norm(b)
    assert res <= 1e-10
    assert u.residual == pytest.approx(res)


def test_absorption_inequality():
    # |eps| int |u|^2 <= int |f u| for any solve
    grid = small_grid(h=0.25)
    pp = make_potential_pair(3, {"name": "ex13"}, None)
    prob = build_problem(pp, 1.0, 0.5, {"name": "gaussian", "width": 0.6}, grid)
    u = solve(prob, tol=1e-10)
    lhs = 0.5 * grid.integrate(u.abs2())
    rhs = grid.integrate(np.abs(prob.f.values * u.values))
    assert lhs <= rhs * (1 + 1e-8)


def test_conjugation_symmetry_in_eps():
    grid = small_grid(h=0.25)
    f = make_datum(grid, {"name": "gaussian", "width": 0.6})
    up = solve(build_problem(PotentialPair(3), 0.7, 0.3, f, grid), tol=1e-11)
    um = solve(build_problem(PotentialPair(3), 0.7, -0.3, f, grid), tol=1e-11)
    scale = np.abs(up.values).max()
    assert np.abs(um.values - np.conj(up.values)).max() < 1e-8 * scale


def test_solver_error_carries_residual(monkeypatch):
    monkeypatch.setattr(resolvent, "MAXITER", 1)
    grid = small_grid(h=0.25)
    prob = build_problem(example_field("ex13"), 1.0, 0.01, "point", grid)
    with pytest.raises(SolverError) as exc:
        solve(prob, tol=1e-16)
    assert exc.value.achieved_residual is not None
    assert exc.value.achieved_residual > 1e-16


# --- gradients ---------------------------------------------------------------


def test_plain_gradient_of_linear_profile():
    grid = small_grid(h=0.25)
    u = ScalarField.from_callable(grid, lambda X: X[..., 0] + 0j)
    g = full_gradient(u, Discretization(grid, PotentialPair(3)))
    core = (slice(2, -2),) * 3
    assert np.abs(g[core + (0,)] - 1.0).max() < 1e-12
    assert np.abs(g[core + (1,)]).max() < 1e-12
    assert np.abs(g[core + (2,)]).max() < 1e-12


def test_covariant_gradient_gauge_covariance_pointwise():
    # with link phases exp(-i h A_k) the shift A -> A + grad chi pairs with
    # u -> e^{+i chi} u; for linear chi the midpoint sampling is exact, so
    # the discrete identity holds to roundoff
    def chi(X):
        return 0.3 * X[..., 0] - 0.2 * X[..., 1]

    grad_chi = np.array([0.3, -0.2, 0.0])
    base = example_field("ex13")
    shifted = PotentialPair(3, A=lambda X: base.eval_A(X) + grad_chi,
                            domain_check=base.domain_check)
    grid = RadialGrid(3, 4.0, 0.25)
    u = ScalarField.from_callable(
        grid, lambda X: np.exp(-np.sum(X ** 2, axis=-1) + 0j))
    ph = np.exp(1j * chi(grid.points))
    g0 = full_gradient(u, Discretization(grid, base))
    g1 = full_gradient(ScalarField(grid, ph * u.values),
                       Discretization(grid, shifted))
    core = (slice(2, -2),) * 3
    err = np.abs(g1[core] - ph[core + (None,)] * g0[core]).max()
    assert err < 1e-12 * np.abs(g0).max()


@pytest.mark.parametrize("A", [None, "ex13"])
@pytest.mark.parametrize("L, h, rtol", [(2.0, 0.25, 0.0), (2.1, 0.3, 1e-15)])
def test_covariant_gradient_matches_the_hop_form(A, L, h, rtol):
    # the in-place difference is the hop's zero fill plus np.subtract to
    # the bit; scaling by 1/2h rounds like dividing by 2h when 2h is a
    # power of two and within an ulp otherwise.  The hop form multiplies
    # by an all-ones array along every axis morcam keeps as None (ex13's
    # z-links, every axis of the free pair)
    grid = RadialGrid(3, L, h)
    disc = Discretization(grid, make_potential_pair(3, A, None))
    ref = unit_phase_reference(disc)
    assert all(p is None for p in disc.phases) == (A is None)
    u = random_field(grid, 3)
    for k in range(3):
        expect = hop_gradient(u, ref, k)
        out = np.full(grid.shape, np.nan, complex)
        got = covariant_gradient(u, disc, k, out=out)
        assert got is out
        if rtol:
            np.testing.assert_allclose(got, expect, rtol=rtol, atol=0)
        else:
            np.testing.assert_array_equal(got, expect)
        np.testing.assert_array_equal(covariant_gradient(u, disc, k), got)


def test_radial_tangential_split_pythagoras(split_of):
    # the radial part never exceeds the whole: |g_tau|^2 = |g|^2 - |g_r|^2 >= 0
    grid = small_grid()
    g = (rng.standard_normal(grid.shape + (3,))
         + 1j * rng.standard_normal(grid.shape + (3,)))
    g2, g_r = split_of(g, grid)
    assert np.allclose(g2, np.sum(np.abs(g) ** 2, axis=-1), atol=1e-12)
    assert np.all(np.abs(g_r) ** 2 <= g2 * (1 + 1e-12))


def test_radial_component_of_radial_field(split_of):
    grid = small_grid()
    xhat = grid.points / grid.radii[..., None]
    g = 2.5 * xhat.astype(complex)
    g2, g_r = split_of(g, grid)
    assert np.allclose(g_r, 2.5)
    assert np.abs(g2 - np.abs(g_r) ** 2).max() < 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_gradient_split_matches_dense_form(n, split_of):
    # the split radial_sweep hands its densities, against |g|^2, g . xhat
    # and btau . conj(g) formed on the full (*shape, n) arrays, for the
    # covariant gradient of a field under a trapping A and for a plain
    # array
    grid = RadialGrid(n, 2.0, 0.5)
    xhat = grid.points / grid.radii[..., None]
    u = random_field(grid, 3)
    pp = PotentialPair(n, A=swirl)
    disc = Discretization(grid, pp)
    btau = trapping_component(pp, grid.points)
    g = full_gradient(u, disc)
    g2, g_r, bg = sweep_split(u, disc, trapping=True)
    dense_b = np.einsum("...i,...i->...", btau, np.conj(g))
    assert np.abs(bg - dense_b).max() <= 1e-14 * np.abs(dense_b).max()
    cases = [(g, (g2, g_r))]
    g = rng.standard_normal(grid.shape + (n,)) + 1j * rng.standard_normal(grid.shape + (n,))
    cases.append((g, split_of(g, grid)))
    for g, (g2, g_r) in cases:
        dense2 = np.sum(np.abs(g) ** 2, axis=-1)
        dense_r = np.einsum("...i,...i->...", g, xhat)
        assert np.abs(g2 - dense2).max() <= 1e-14 * dense2.max()
        assert np.abs(g_r - dense_r).max() <= 1e-14 * np.abs(dense_r).max()
