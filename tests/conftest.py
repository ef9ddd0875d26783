import tracemalloc

import numpy as np
import pytest

from morcam import fields, norms, resolvent
from morcam.fields import PotentialPair
from morcam.grids import ScalarField
from oracles import sweep_split


@pytest.fixture
def light_quadrature(monkeypatch):
    """The mixed-norm quadrature of morcam.norms at half its radial range,
    radial density and direction count, which makes constants cheaper."""
    monkeypatch.setattr(norms, "QUAD_R_MAX", 32.0)
    monkeypatch.setattr(norms, "QUAD_DR", 1.0 / 32)
    monkeypatch.setattr(norms, "QUAD_DIRS", 120)


@pytest.fixture
def coarse_biot_savart(monkeypatch):
    """A Biot-Savart quadrature of morcam.fields that cannot converge: 8
    base cells, two levels, rtol 1e-12."""
    monkeypatch.setattr(fields, "BALL_CELLS", 8)
    monkeypatch.setattr(fields, "BALL_RTOL", 1e-12)
    monkeypatch.setattr(fields, "BALL_LEVELS", 2)


@pytest.fixture
def link_phase_calls(monkeypatch):
    """A list that gains one entry per call of morcam.resolvent.link_phases."""
    calls = []
    original = resolvent.link_phases

    def counted(grid, pp):
        calls.append(grid)
        return original(grid, pp)

    monkeypatch.setattr(resolvent, "link_phases", counted)
    return calls


@pytest.fixture
def radial_derivative_samples(monkeypatch):
    """A list that gains the node shape of each sampling of d_r V made
    through morcam.resolvent's binding of radial_derivative_parts."""
    shapes = []
    original = resolvent.radial_derivative_parts

    def counted(pp, x, *args, **kwargs):
        shapes.append(x.shape[:-1])
        return original(pp, x, *args, **kwargs)

    monkeypatch.setattr(resolvent, "radial_derivative_parts", counted)
    return shapes


@pytest.fixture
def trapping_samples(monkeypatch):
    """A list that gains the node shape of each sampling of B_tau made
    through morcam.resolvent's binding of trapping_component."""
    shapes = []
    original = resolvent.trapping_component

    def counted(pp, x, *args, **kwargs):
        shapes.append(x.shape[:-1])
        return original(pp, x, *args, **kwargs)

    monkeypatch.setattr(resolvent, "trapping_component", counted)
    return shapes


@pytest.fixture
def operator_calls(monkeypatch):
    """Counts of DiscreteOperator.apply calls ("apply") and of calls to
    the callables DiscreteOperator.preconditioner returns ("precond")."""
    calls = {"apply": 0, "precond": 0}
    Op = resolvent.DiscreteOperator
    apply, preconditioner = Op.apply, Op.preconditioner

    def counted_apply(op, *args):
        calls["apply"] += 1
        return apply(op, *args)

    def counted_preconditioner(op):
        minv = preconditioner(op)

        def counted(v):
            calls["precond"] += 1
            return minv(v)

        return counted

    monkeypatch.setattr(Op, "apply", counted_apply)
    monkeypatch.setattr(Op, "preconditioner", counted_preconditioner)
    return calls


@pytest.fixture
def operator_dtypes(monkeypatch):
    """A list that gains the dtype of each DiscreteOperator built."""
    dtypes = []
    init = resolvent.DiscreteOperator.__init__

    def recorded(op, *args, **kwargs):
        init(op, *args, **kwargs)
        dtypes.append(op.dtype)

    monkeypatch.setattr(resolvent.DiscreteOperator, "__init__", recorded)
    return dtypes


@pytest.fixture
def split_of(monkeypatch):
    """split_of(g, grid): the |g|^2 and g_r = g . x/|x| that
    resolvent.radial_sweep forms from a given vector field g of shape
    (*grid.shape, n), fed in slab by slab through morcam.resolvent's
    covariant_gradient in place of the gradient of a field, gathered into
    grid-sized arrays."""
    def split(g, grid):
        def rows_of_g(u, disc, k, out=None, rows=None):
            s, e = rows
            out[...] = g[s:e, ..., k]
            return out

        monkeypatch.setattr(resolvent, "covariant_gradient", rows_of_g)
        disc = resolvent.Discretization(grid, PotentialPair(grid.n))
        return sweep_split(ScalarField.zeros(grid), disc)

    return split


@pytest.fixture
def traced_memory():
    """traced_memory(call) -> (held, peak): the bytes tracemalloc counts
    as allocated when call() has returned, its result still alive, and at
    their peak during the call, traced from just before it."""
    def measure(call):
        tracemalloc.start()
        try:
            result = call()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del result
        return held, peak

    return measure
