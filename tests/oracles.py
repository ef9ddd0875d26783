"""Brute-force reference computations the tests compare morcam against.

Importable from the test modules: pytest puts this directory on sys.path
(rootdir-relative conftest, no package).
"""

import copy
import functools
import math

import numpy as np

from morcam import resolvent
from morcam.fields import radial_derivative_parts, trapping_component
from morcam.grids import ScalarField, point_array
from morcam.norms import NormReport, _mc_sup_sq, _sphere_sup
from morcam.resolvent import Discretization
from morcam.verify import IdentityReport


def condition_value_3d(M, C1: float, C2: float):
    """g(M) = (M + 1/2)^2 / M * C1^2 + 2 (M + 1/2) * C2."""
    M = np.asarray(M, float)
    return (M + 0.5) ** 2 / M * C1 ** 2 + 2 * (M + 0.5) * C2


def dense_grid_minimum(C1: float, C2: float, lo: float = 1e-6, hi: float = 1e6,
                       points: int = 100_000):
    """Minimize g(M) by a dense log-spaced scan plus one local refinement
    pass (independent of the closed form)."""
    grid = np.logspace(math.log10(lo), math.log10(hi), points)
    vals = condition_value_3d(grid, C1, C2)
    k = int(np.argmin(vals))
    a = grid[max(k - 2, 0)]
    b = grid[min(k + 2, points - 1)]
    fine = np.linspace(a, b, 40_000)
    fvals = condition_value_3d(fine, C1, C2)
    j = int(np.argmin(fvals))
    return float(fvals[j]), float(fine[j])


def swirl(x):
    """A trapping magnetic potential in any dimension n >= 2:
    exp(-|x|^2/4) times the rotation (-x_1, x_0, 0, ...)."""
    out = np.zeros_like(x)
    out[..., 0], out[..., 1] = -x[..., 1], x[..., 0]
    return out * np.exp(-np.sum(x ** 2, axis=-1) / 4)[..., None]


def whole_grid_samples(grid, pp):
    """The link phases, capped V and d_r V of Discretization(grid, pp)
    sampled on whole-grid point arrays: grid.points and, per axis k, the
    midpoints x + (h/2) e_k of every node."""
    c, h = grid.coords_1d, grid.h
    phases = None
    if pp.A is not None:
        phases = []
        for k in range(grid.n):
            axes = [c] * grid.n
            axes[k] = c + h / 2
            phases.append(np.exp(-1j * h * pp.eval_A(point_array(axes))[..., k]))
    V = pp.eval_V(grid.points)
    cap = 1.0 / h ** 2
    capped = np.abs(V) > cap
    drv = radial_derivative_parts(pp, grid.points)
    drv[capped] = 0.0
    return phases, np.clip(V, -cap, cap), drv


def zero_V_reference(grid, pp):
    """pp's discretization with V held as a grid-sized zero array, the
    form morcam keeps as a 0-d zero."""
    ref = Discretization(grid, pp)
    ref.V, ref.capped = np.zeros(grid.shape), np.zeros(grid.shape, bool)
    return ref


def unit_phase_reference(disc):
    """A copy of disc whose link phases hold an array for every axis: an
    all-ones complex128 one where morcam keeps None (every axis of a free
    pair).  Its hops multiply by exactly 1 where disc's carry no product."""
    ref = copy.copy(disc)
    ref.phases = [np.ones(disc.grid.shape, complex) if p is None else p
                  for p in disc.phases]
    return ref


def hop_gradient(u, disc, k):
    """Component k of the centered covariant gradient formed as a hop: a
    zero array, U_k u(x + h e_k) added at the lower end of each axis-k
    edge, conj(U_k) u(x) subtracted at its upper end with np.subtract, the
    sum divided by 2h."""
    n, v = u.grid.n, u.values
    lo, hi = [slice(None)] * n, [slice(None)] * n
    lo[k], hi[k] = slice(None, -1), slice(1, None)
    lo, hi = tuple(lo), tuple(hi)
    out = np.zeros(u.grid.shape, complex)
    up = out[hi]
    if disc.phases[k] is None:
        out[lo] += v[hi]
        np.subtract(up, v[lo], out=up)
    else:
        U = disc.phases[k][lo]
        out[lo] += U * v[hi]
        np.subtract(up, np.conj(U) * v[lo], out=up)
    out /= 2 * u.grid.h
    return out


def whole_array_apply(op, u):
    """op.apply(u) swept over the whole grid at once: the complex diagonal
    2n/h^2 + V - lambda - i eps cast to op's dtype times u, minus the hop
    summed in a zero grid-sized array one axis at a time (U_k u(x + h e_k)
    at the lower end of each axis-k edge, then conj(U_k) u(x) at its upper
    end) and scaled by 1/h^2."""
    g, disc = op.grid, op.disc
    diag = ((2 * g.n / g.h ** 2 + disc.V - op.lam) - 1j * op.eps).astype(op.dtype)
    phases = [None if p is None else p.astype(op.dtype) for p in disc.phases]
    u = np.asarray(u, op.dtype).reshape(g.shape)
    out = diag * u
    hop = np.zeros_like(u)
    for k in range(g.n):
        lo, hi = [slice(None)] * g.n, [slice(None)] * g.n
        lo[k], hi[k] = slice(None, -1), slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        if phases[k] is None:
            hop[lo] += u[hi]
            hop[hi] += u[lo]
        else:
            U = phases[k][lo]
            hop[lo] += U * u[hi]
            hop[hi] += np.conj(U) * u[lo]
    hop *= 1.0 / g.h ** 2
    out -= hop
    return out


def stacked_sine_transform(x, spare, S):
    """Apply S along every grid axis of the stacked real and imaginary
    parts x, of shape (2, m, ..., m), one matrix product per axis with
    x and spare as alternating buffers.  Returns (result, spare)."""
    m = S.shape[0]
    n = x.ndim - 1
    for k in range(n):
        if k == n - 1:
            np.matmul(x.reshape(-1, m), S, out=spare.reshape(-1, m))
        else:
            batch = (2 * m ** k, m, m ** (n - 1 - k))
            np.matmul(S, x.reshape(batch), out=spare.reshape(batch))
        x, spare = spare, x
    return x, spare


def whole_array_preconditioner(op):
    """op.preconditioner() formed on whole-grid arrays: the table
    1/(mu - lambda - i eps) as d/(d^2 + eps^2) and eps/(d^2 + eps^2) in
    float64 (cast to float32 for a complex64 op), and the transform of two
    stacked (2, *shape) real buffers, forward along axes 0..n-1, the
    table, then inverse along axes 0..n-1.  A free op takes a ScalarField
    with factors f_k as the outer product of the S f_k."""
    g, dtype = op.grid, op.dtype
    shape, real = g.shape, np.finfo(dtype).dtype
    free = all(p is None for p in op.disc.phases) and op.disc.V.ndim == 0
    S, mu = resolvent._dirichlet_eigenpairs(g.m, g.h)
    S = S.astype(real, copy=False)
    d = mu
    for _ in range(g.n - 1):
        d = np.add(d[..., None], mu)
    d = d - op.lam
    q = d * d + op.eps ** 2
    inv_re, inv_im = (t.astype(real, copy=False) for t in (d / q, op.eps / q))

    def minv(v):
        factors = None
        if isinstance(v, ScalarField):
            v, factors = v.values, v.factors if free else None
        a, b = np.empty((2,) + shape, real), np.empty((2,) + shape, real)
        if factors is None:
            v = np.asarray(v, dtype).reshape(shape)
            a[0], a[1] = v.real, v.imag
            a, b = stacked_sine_transform(a, b, S)
        else:
            spec = [S @ f for f in factors]
            head = functools.reduce(np.multiply.outer, spec[:-1], np.ones(()))
            t = (head[..., None] * spec[-1]).astype(dtype, copy=False)
            a[0], a[1] = t.real, t.imag
        re, im = a
        np.multiply(re, inv_re, out=b[0])
        np.multiply(re, inv_im, out=b[1])
        b[0] -= im * inv_im
        b[1] += im * inv_re
        b, a = stacked_sine_transform(b, a, S)
        out = np.empty(shape, dtype)
        out.real, out.imag = b[0], b[1]
        return out.ravel()

    return minv


def whole_radial_index(grid):
    """Radial bin b = sum_k (s_k^2 - 1)/8 of every node, flat, formed for
    the whole grid at once (s_k = 2 i_k + 1 - m)."""
    s = np.arange(1 - grid.m, grid.m, 2)
    t = (s * s - 1) // 8
    b = t
    for _ in range(grid.n - 1):
        b = np.add.outer(b, t)
    return b.ravel()


def whole_bin_sums(grid, values):
    """grid.bin_sums in one np.bincount over every node."""
    return np.bincount(whole_radial_index(grid), weights=np.asarray(values, float).ravel(),
                       minlength=grid.n_bins) * grid.cell_volume


def gradient_split(u, disc, btau=None):
    """|g|^2 and the radial component g_r = g . x/|x| (complex) of the
    covariant gradient g of u, and btau . conj(g) when a vector field btau
    of shape (*grid.shape, n) is given, as grid-sized arrays: one axis at
    a time through one grid-sized component buffer (the whole-grid
    covariant_gradient, read through morcam.resolvent) and the 1-D node
    coordinates."""
    grid = u.grid
    n = grid.n
    g2 = np.zeros(grid.shape)
    g_r = np.zeros(grid.shape, complex)
    bg = None if btau is None else np.zeros(grid.shape, complex)
    buf, sq = np.empty(grid.shape, complex), np.empty(grid.shape)
    for k in range(n):
        gk = resolvent.covariant_gradient(u, disc, k, out=buf)
        for part in (gk.real, gk.imag):
            g2 += np.square(part, out=sq)
        if bg is not None:
            bg += btau[..., k] * np.conj(gk)
        gk *= grid.coords_1d.reshape((-1,) + (1,) * (n - 1 - k))
        g_r += gk
    for part in (g_r.real, g_r.imag):
        part /= grid.radii
    return (g2, g_r) if bg is None else (g2, g_r, bg)


def sweep_split(u, disc, trapping=False):
    """The g2, g_r (and bg with trapping) that resolvent.radial_sweep
    hands its densities slab by slab, gathered into grid-sized arrays."""
    grid = u.grid
    parts = [np.empty(grid.shape), np.empty(grid.shape, complex)]
    if trapping:
        parts.append(np.empty(grid.shape, complex))

    def gather(sl):
        for whole, part in zip(parts, (sl.g2, sl.g_r, sl.bg)):
            whole[sl.rows] = part
        return []

    resolvent.radial_sweep(u, disc, gather, trapping)
    return tuple(parts)


def theorem_lhs(u, disc, lam, M, delta):
    """norms.theorem_lhs formed on grid-sized arrays: the gradient split
    of gradient_split, the densities for the whole grid, and one
    np.bincount per density (whole_bin_sums)."""
    grid = u.grid
    n = grid.n
    S = lambda v: whole_bin_sums(grid, v)  # noqa: E731
    rep = NormReport()
    r = grid.bin_radii
    bracket = np.sqrt(1 + r ** 2)

    g2, g_r = gradient_split(u, disc)
    rep.values["grad_mc_sq"], _ = _mc_sup_sq(grid, S(g2))
    for part in (g_r.real, g_r.imag):
        np.square(part, out=part)
        g2 -= part
    np.maximum(g2, 0.0, out=g2)
    tangential = float(S(g2) @ (1 / r))
    if n == 3:
        rep.values["origin_sq"] = abs(grid.interpolate_origin(u.values)) ** 2
    u2 = u.abs2()
    rep.values["drV_minus"] = rep.values["V_minus"] = 0.0
    if disc.pp.V is not None:
        weight = np.maximum(-disc.radial_derivative(), 0.0)
        rep.values["drV_minus"] = (M / 2) * grid.cell_volume * float(
            np.dot(weight.ravel(), u2.ravel()))
        weight = np.maximum(-disc.V, 0.0) * u2
        rep.values["V_minus"] = float(S(weight) @ (1 / bracket))
    su2 = S(u2)
    rep.values["lambda_term"] = lam * float(su2 @ (1 / bracket))
    rep.values["tangential"] = tangential
    if n == 3:
        rep.values["sphere_sup"], _ = _sphere_sup(grid, su2)
        group_last = rep.values["sphere_sup"]
    else:
        rep.values["cube_weight"] = float(su2 @ r ** -3)
        group_last = rep.values["cube_weight"]
    main = rep.values["grad_mc_sq"] + rep.values.get("origin_sq", 0.0) \
        + rep.values["drV_minus"]
    group = rep.values["V_minus"] + rep.values["lambda_term"] \
        + rep.values["tangential"] + group_last
    rep.total = main + delta * group
    rep.values["delta"] = delta
    return rep


def identity_residual(u, f, disc, lam, eps, scales):
    """verify.identity_residual formed on grid-sized arrays: B_tau
    sampled on grid.points, the gradient split of gradient_split, and one
    np.bincount per density (whole_bin_sums)."""
    grid = u.grid
    pp = disc.pp
    h, r = grid.h, grid.bin_radii
    S = lambda v: whole_bin_sums(grid, v)  # noqa: E731
    u2 = u.abs2()
    trapping = pp.A is not None
    if trapping:
        g2, g_r, bdotg = gradient_split(u, disc, trapping_component(pp, grid.points))
        s_trap = S(np.imag(u.values * bdotg))
    else:
        g2, g_r = gradient_split(u, disc)
    g_r2 = np.square(g_r.real) + np.square(g_r.imag)
    s_g2, s_gr2 = S(g2), S(g_r2)
    s_gtau2 = S(np.maximum(g2 - g_r2, 0.0))
    xdotg = np.conj(g_r)
    s_u2 = S(u2)
    s_drv = S(disc.radial_derivative() * u2)
    s_V = S(disc.V * u2)
    s_fxg = S(np.real(f.values * xdotg))
    s_fu = S(np.real(f.values * np.conj(u.values)))
    s_uxg = S(np.imag(u.values * xdotg))
    origin = abs(grid.interpolate_origin(u.values)) ** 2
    reports = []
    for mult, weight in scales:
        dphi = mult.dphi(r)
        w = weight.value(r)
        lhs = {}
        lhs["hessian"] = float(mult.d2phi(r) @ s_gr2 + (dphi / r) @ s_gtau2)
        lhs["weight_gradient"] = -float(w @ s_g2)
        bilap = float(mult.bilap_smooth(r) @ s_u2)
        if mult.origin_atom is not None:
            bilap += mult.origin_atom.mass * origin
        if mult.sphere_atom is not None:
            bilap += mult.sphere_atom.density * grid.surface_integral(s_u2, mult.sphere_atom.radius)
        lapw = float(weight.lap_smooth(r) @ s_u2)
        lapw += weight.sphere_atom.density * grid.surface_integral(s_u2, weight.sphere_atom.radius)
        lhs["bilaplacian"] = -0.25 * bilap + 0.5 * lapw
        lhs["potential"] = -float(0.5 * dphi @ s_drv + w @ s_V)
        lhs["trapping"] = float(dphi @ s_trap) if trapping else 0.0
        lhs["energy_weight"] = lam * float(w @ s_u2)
        rhs = {}
        rhs["datum_gradient"] = -float(dphi @ s_fxg + 0.5 * mult.lap_phi(r) @ s_fu)
        rhs["datum_weight"] = float(w @ s_fu)
        rhs["absorption"] = -eps * float(dphi @ s_uxg)
        reports.append(IdentityReport(lhs_terms=lhs, rhs_terms=rhs, h=h, R=mult.R))
    return reports
