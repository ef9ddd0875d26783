"""Brute-force reference computations the tests compare morcam against.

Importable from the test modules: pytest puts this directory on sys.path
(rootdir-relative conftest, no package).
"""

import math

import numpy as np

from morcam.resolvent import Discretization


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


def zero_V_reference(grid, pp):
    """pp's discretization with V held as a grid-sized zero array, the
    form morcam keeps as a 0-d zero."""
    ref = Discretization(grid, pp)
    ref.V, ref.capped = np.zeros(grid.shape), np.zeros(grid.shape, bool)
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
    if disc.phases is None:
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
    phases = (None if disc.phases is None else
              [p.astype(op.dtype) for p in disc.phases])
    u = np.asarray(u, op.dtype).reshape(g.shape)
    out = diag * u
    hop = np.zeros_like(u)
    for k in range(g.n):
        lo, hi = [slice(None)] * g.n, [slice(None)] * g.n
        lo[k], hi[k] = slice(None, -1), slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        if phases is None:
            hop[lo] += u[hi]
            hop[hi] += u[lo]
        else:
            U = phases[k][lo]
            hop[lo] += U * u[hi]
            hop[hi] += np.conj(U) * u[lo]
    hop *= 1.0 / g.h ** 2
    out -= hop
    return out
