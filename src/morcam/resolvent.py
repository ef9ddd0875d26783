"""Gauge-covariant discretization of H = -Delta_A + V on the truncated
box and iterative solution of -Hu + (lambda + i eps)u = f.

The magnetic coupling enters only through unit-modulus link phases
exp(-i h A_k(midpoint)) on grid edges (Peierls substitution), which keeps
the discrete operator gauge covariant and Hermitian for real V.  The
homogeneous Dirichlet truncation is handled by zero padding; the free
part is diagonalized exactly by DST-I, which doubles as the
complex-shifted preconditioner for the Krylov solve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.fft as sfft
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import ParameterError, SolverError
from .fields import PotentialPair
from .grids import RadialGrid, ScalarField

__all__ = [
    "Discretization",
    "ResolventProblem",
    "DiscreteOperator",
    "build_problem",
    "make_datum",
    "solve",
    "covariant_gradient",
    "radial_tangential_split",
    "link_phases",
    "epsilon_floor",
]

#: Multiplier c in the truncation protocol eps >= c * 4 / L^2.  The box
#: resolvent only tracks the whole-space one while the absorption length
#: 1/sqrt(eps) stays below the box size.
EPS_FLOOR_FACTOR = 1.0 / 16.0


def epsilon_floor(L: float) -> float:
    return EPS_FLOOR_FACTOR * 4.0 / L ** 2


def link_phases(grid: RadialGrid, pp: PotentialPair):
    """Link phases exp(-i h A_k(x + (h/2) e_k)) per axis, or None when
    A vanishes identically."""
    if pp.A is None:
        return None
    phases = []
    for k in range(grid.n):
        mid = grid.points.copy()
        mid[..., k] += grid.h / 2
        Ak = pp.eval_A(mid)[..., k]
        phases.append(np.exp(-1j * grid.h * Ak))
    return phases


class Discretization:
    """One sampling of a potential pair on a grid: the link phases and the
    electric potential that define -Delta_A^h + V.

    The operator, the covariant gradient and the identity and estimate
    checks all read the same samples.  Singular V samples are capped at
    1/h^2 (with a warning) to keep the operator bounded.
    """

    def __init__(self, grid: RadialGrid, pp: PotentialPair):
        if pp.n != grid.n:
            raise ParameterError("potential and grid dimensions differ")
        self.grid = grid
        self.pp = pp
        self.phases = link_phases(grid, pp)
        V = pp.eval_V(grid.points)
        cap = 1.0 / grid.h ** 2
        if np.any(np.abs(V) > cap):
            warnings.warn(
                f"electric potential capped at {cap:.3g} on "
                f"{int(np.sum(np.abs(V) > cap))} nodes", stacklevel=2)
            V = np.clip(V, -cap, cap)
        self.V = V

    def hop(self, u: np.ndarray, outs, combine=np.add) -> None:
        """Add U_k u(x + h e_k) into outs[k] at the lower end of each
        axis-k edge, and combine conj(U_k) u(x) into outs[k] at its upper
        end: np.add gives the Laplacian's neighbor sum, np.subtract the
        centered gradient's difference.  Dirichlet zero outside the box."""
        n = self.grid.n
        for k, out in enumerate(outs):
            lo = [slice(None)] * n
            hi = [slice(None)] * n
            lo[k] = slice(None, -1)
            hi[k] = slice(1, None)
            lo, hi = tuple(lo), tuple(hi)
            up = out[hi]
            if self.phases is None:
                out[lo] += u[hi]
                combine(up, u[lo], out=up)
            else:
                U = self.phases[k][lo]
                out[lo] += U * u[hi]
                combine(up, np.conj(U) * u[lo], out=up)


class DiscreteOperator:
    """Matrix-free application of (-Delta_A^h + V - lambda - i eps)u.

    The hop between x and x + h e_k carries the link phase; the diagonal
    holds 2n/h^2 + V(x) - lambda - i eps.
    """

    def __init__(self, disc: Discretization, lam: float, eps: float):
        lam, eps = float(lam), float(eps)
        if not (math.isfinite(eps) and eps != 0):
            raise ParameterError(f"eps must be finite and nonzero, got {eps}")
        if not (math.isfinite(lam) and lam >= 0):
            raise ParameterError(f"lambda must be finite and >= 0, got {lam}")
        self.disc = disc
        self.grid = disc.grid
        self.lam = lam
        self.eps = eps

    def _hop(self, u: np.ndarray) -> np.ndarray:
        """Sum over axes of phase-twisted neighbor values."""
        out = np.zeros_like(u)
        self.disc.hop(u, [out] * self.grid.n)
        return out

    def apply(self, u: np.ndarray) -> np.ndarray:
        g = self.grid
        u = np.asarray(u, complex).reshape(g.shape)
        h2 = g.h ** 2
        lap = (self._hop(u) - 2 * g.n * u) / h2
        return -lap + (self.disc.V - self.lam - 1j * self.eps) * u

    # --- free-operator preconditioner ------------------------------------

    def _free_eigenvalues(self) -> np.ndarray:
        g = self.grid
        i = np.arange(g.m)
        mu = (2 - 2 * np.cos(math.pi * (i + 1) / (g.m + 1))) / g.h ** 2
        total = mu
        for _ in range(g.n - 1):
            total = total[..., None] + mu
        return total

    def preconditioner(self) -> Callable:
        denom = self._free_eigenvalues() - self.lam - 1j * self.eps
        shape = self.grid.shape

        def minv(v):
            v = np.asarray(v, complex).reshape(shape)
            w = sfft.dstn(v, type=1, norm="ortho")
            w /= denom
            return sfft.idstn(w, type=1, norm="ortho").ravel()

        return minv


@dataclass
class ResolventProblem:
    disc: Discretization
    lam: float
    eps: float
    f: ScalarField
    op: DiscreteOperator = field(init=False, repr=False)

    def __post_init__(self):
        grid = self.f.grid
        if grid != self.disc.grid:
            raise ParameterError("datum and discretization grids differ")
        self.op = DiscreteOperator(self.disc, self.lam, self.eps)
        band = grid.L - 2 * grid.h
        edge = np.abs(grid.points).max(axis=-1) > band
        fmax = np.abs(self.f.values).max()
        if fmax > 0 and np.abs(self.f.values[edge]).max() > 1e-10 * fmax:
            warnings.warn(
                "datum is not supported at distance >= 2h from the box "
                "boundary; Dirichlet truncation error is uncontrolled",
                stacklevel=2)

    @property
    def grid(self) -> RadialGrid:
        return self.f.grid


DATUM_BUILTINS = {
    "gaussian": {"amplitude": 1.0, "width": 1.0, "center": 0.0},
    "shell": {"amplitude": 1.0, "radius": 2.0, "width": 0.5},
    "point": {"amplitude": 1.0, "center": 0.0, "width": None},
    "wave": {"amplitude": 1.0, "width": 1.0, "center": 0.0, "k": 2.5},
}


def make_datum(grid: RadialGrid, spec) -> ScalarField:
    """Built-in data: gaussian / shell bump / point-like bump."""
    if isinstance(spec, str):
        spec = {"name": spec}
    spec = dict(spec)
    name = spec.pop("name")
    if name not in DATUM_BUILTINS:
        raise ParameterError(f"unknown datum built-in: {name}")
    params = dict(DATUM_BUILTINS[name])
    bad = set(spec) - set(params)
    if bad:
        raise ParameterError(f"unknown parameters for datum '{name}': {sorted(bad)}")
    params.update(spec)
    amp = float(params["amplitude"])
    if name in ("gaussian", "point", "wave"):
        width = params["width"]
        if width is None:
            width = 2 * grid.h
        center = np.broadcast_to(np.asarray(params["center"], float), (grid.n,))
        d2 = np.sum((grid.points - center) ** 2, axis=-1)
        vals = amp * np.exp(-d2 / float(width) ** 2)
        if name == "wave":
            # modulation shifts the spectral content to |k|^2 + O(1/width^2)
            vals = vals * np.exp(1j * float(params["k"]) * grid.points[..., 0])
    else:
        r = grid.radii
        vals = amp * np.exp(-((r - float(params["radius"])) / float(params["width"])) ** 2)
    return ScalarField(grid, vals.astype(complex))


def build_problem(pp: PotentialPair, lam: float, eps: float, f_spec,
                  grid_spec) -> ResolventProblem:
    """Assemble a problem from (n, L, h) and a named datum."""
    if isinstance(grid_spec, RadialGrid):
        grid = grid_spec
    else:
        n, L, h = grid_spec
        grid = RadialGrid(int(n), float(L), float(h))
    disc = Discretization(grid, pp)
    f = f_spec if isinstance(f_spec, ScalarField) else make_datum(grid, f_spec)
    return ResolventProblem(disc=disc, lam=float(lam), eps=float(eps), f=f)


def solve(prob: ResolventProblem, tol: float = 1e-10, maxiter: int = 2000,
          restart: int = 100) -> ScalarField:
    """Solve -Hu + (lambda + i eps)u = f to relative apply-residual <= tol.

    Krylov iteration (GMRES) on (H - lambda - i eps)u = -f, left
    preconditioned by the exact inverse of the free shifted operator.
    Raises SolverError (with the achieved residual) on nonconvergence.
    """
    op = prob.op
    grid = prob.grid
    b = (-prob.f.values).ravel()
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return ScalarField.zeros(grid)

    A = LinearOperator((grid.size, grid.size),
                       matvec=lambda v: op.apply(v).ravel(),
                       dtype=complex)
    minv = op.preconditioner()
    M = LinearOperator((grid.size, grid.size), matvec=minv, dtype=complex)

    x = None
    rtol = tol / 10
    for _ in range(3):
        x, _info = gmres(A, b, x0=x, M=M, rtol=rtol, atol=0.0,
                         restart=restart, maxiter=maxiter)
        res = np.linalg.norm(op.apply(x).ravel() - b) / bnorm
        if res <= tol:
            u = ScalarField(grid, x.reshape(grid.shape))
            u.residual = res
            return u
        rtol /= 100
    raise SolverError(
        f"resolvent solve did not reach relative residual {tol}",
        achieved_residual=res)


def covariant_gradient(u: ScalarField, disc: Discretization) -> np.ndarray:
    """Centered covariant gradient with the operator's link phases:
    component k is (U_k(x) u(x+h e_k) - conj(U_k(x-h e_k)) u(x-h e_k))/2h.

    Returns a complex array of shape (*grid.shape, n); Dirichlet zero is
    assumed outside the box.
    """
    grid = u.grid
    if grid != disc.grid:
        raise ParameterError("field and discretization grids differ")
    out = np.zeros(grid.shape + (grid.n,), dtype=complex)
    disc.hop(u.values, [out[..., k] for k in range(grid.n)], np.subtract)
    out /= 2 * grid.h
    return out


def radial_tangential_split(g: np.ndarray, grid: RadialGrid):
    """Split a vector field into its radial component g . x/|x| (complex)
    and the tangential magnitude sqrt(|g|^2 - |g_r|^2) (clamped at 0)."""
    g = np.asarray(g, complex)
    xhat = grid.points / grid.radii[..., None]
    g_r = np.einsum("...i,...i->...", g, xhat)
    g2 = np.sum(np.abs(g) ** 2, axis=-1)
    gtau2 = np.maximum(g2 - np.abs(g_r) ** 2, 0.0)
    return g_r, np.sqrt(gtau2)
