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
