"""Weighted functionals on grid fields: Morrey-Campanato norm, dyadic
dual norm, mixed radial norms, Hardy ratios, and the
itemized left/right-hand sides of the a priori estimates.  The Hardy
ratio and the estimate's left side bin their densities in one
resolvent.radial_sweep over slabs of the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import MorcamError, ParameterError
from .grids import RadialGrid, ScalarField
from .multipliers import check_estimate_parameters
from .resolvent import (Discretization, check_memory, check_resolvent_parameters,
                        radial_sweep)

__all__ = [
    "NormReport",
    "morrey_campanato",
    "dyadic_dual",
    "duality_gap",
    "mixed_radial_norm",
    "weighted_sup_norm",
    "hardy_ratio",
    "theorem_lhs",
    "theorem_rhs",
]


@dataclass
class NormReport:
    """Named nonnegative functional values and their total."""

    values: dict = field(default_factory=dict)
    total: float | None = None


def _mc_sup_sq(grid: RadialGrid, sums: np.ndarray):
    """sup over node radii R of (1/R) * sum_{|x| <= R} w * h^n for
    weights w >= 0 with per-bin sums (bin_sums): a cumulative sum over
    the radial bins.  An empty bin repeats its predecessor's sum at a
    larger R, so the sup and its radius are those of an occupied bin."""
    ratios = np.cumsum(sums) / grid.bin_radii
    k = int(np.argmax(ratios))
    return float(ratios[k]), float(grid.bin_radii[k])


def morrey_campanato(u: ScalarField):
    """Morrey-Campanato norm |||u||| (the square root of the radial sup)
    together with the maximizing radius."""
    sup_sq, rstar = _mc_sup_sq(u.grid, u.grid.bin_sums(u.abs2))
    return math.sqrt(sup_sq), rstar


def dyadic_dual(f: ScalarField):
    """Truncated dyadic dual norm N(f) = sum_j sqrt(2^(j+1) I_j) with
    I_j the squared L2 mass on the shell 2^j <= |x| < 2^(j+1), over the
    shells from j_min = ceil(log2(h/2)) to j_max = floor(log2 L).  |f|^2
    is binned one row of axis 0 at a time from f's rows, so a field with
    factors is never formed whole.

    Returns (value, tail) where tail is the magnitude of the last
    included term plus any mass falling outside [j_min, j_max].
    """
    grid = f.grid
    j_min = math.ceil(math.log2(grid.h / 2))
    j_max = math.floor(math.log2(grid.L))
    # one row's buffer for the rows of a field with factors
    row = np.empty((1,) + grid.shape[1:], complex)
    w = grid.bin_sums(lambda s, e: f.abs2(s, e, row))
    j = np.floor(np.log2(grid.bin_radii)).astype(np.intp)
    inside = (j >= j_min) & (j <= j_max)
    shells = np.bincount(j[inside] - j_min, weights=w[inside],
                         minlength=j_max - j_min + 1)
    terms = np.sqrt(2.0 ** (np.arange(j_min, j_max + 1) + 1.0) * shells)
    value = float(terms.sum())
    dropped = float(w[~inside].sum())
    nonzero = np.nonzero(terms)[0]
    last = float(terms[nonzero[-1]]) if nonzero.size else 0.0
    tail = last + math.sqrt(2.0 ** (j_max + 2) * dropped)
    return value, tail


def duality_gap(f: ScalarField, g: ScalarField):
    """Both sides of the discrete duality |int f conj(g)| <= |||g||| N(f)."""
    if f.grid != g.grid:
        raise MorcamError("duality_gap needs fields on a shared grid")
    lhs = abs(f.grid.integrate(f.values * np.conj(g.values)))
    mc, _ = morrey_campanato(g)
    nf, _ = dyadic_dual(f)
    return float(lhs), float(mc * nf)


# ---------------------------------------------------------------------------
# Mixed radial norms of callables
# ---------------------------------------------------------------------------


def _dyadic_blocks(radii: np.ndarray, values: np.ndarray, sup: bool) -> np.ndarray:
    """values over the dyadic blocks 2^j <= r < 2^(j+1) of the radii,
    innermost first: their sum per block, or their max when sup."""
    j = np.floor(np.log2(np.maximum(radii, 1e-300))).astype(np.int64)
    j -= j.min()
    if not sup:
        return np.bincount(j, weights=values)
    blocks = np.zeros(j.max() + 1)
    np.maximum.at(blocks, j, values)
    return blocks


def _grows_at_an_end(blocks: np.ndarray, grows: Callable) -> bool:
    """True when, of at least three nonzero blocks, the outermost one at
    an end of the sampled range is the range's end block and grows(it,
    its neighbour) holds.  An end whose blocks beyond the outermost
    nonzero one are all exactly zero has decayed: the integrand vanishes
    there."""
    nz = np.nonzero(blocks > 0)[0]
    if nz.size < 3:
        return False
    lo, hi = nz[0], nz[-1]
    return bool((hi == blocks.size - 1 and grows(blocks[hi], blocks[hi - 1]))
                or (lo == 0 and grows(blocks[lo], blocks[lo + 1])))


#: The mixed-norm quadrature: radii (k + 1/2) QUAD_DR up to QUAD_R_MAX,
#: each sphere sampled in QUAD_DIRS fixed directions (a Fibonacci sphere
#: in 3D, normal samples of seed QUAD_SEED above), the radii evaluated
#: QUAD_BLOCK at a time.  QUAD_BLOCK bounds the memory of w's temporaries
#: (an n x n field matrix per point for |B_tau|).
QUAD_R_MAX = 64.0
QUAD_DR = 1.0 / 64.0
QUAD_DIRS = 240
QUAD_SEED = 7
QUAD_BLOCK = 256


def _directions(n: int) -> np.ndarray:
    """The QUAD_DIRS unit vectors of the sphere sample in R^n."""
    if n == 3:
        # Fibonacci sphere: deterministic, near-uniform
        k = np.arange(QUAD_DIRS)
        z = 1 - 2 * (k + 0.5) / QUAD_DIRS
        phi = k * math.pi * (3 - math.sqrt(5))
        s = np.sqrt(1 - z ** 2)
        return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1)
    rng = np.random.default_rng(QUAD_SEED)
    d = rng.standard_normal((QUAD_DIRS, n))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _sphere_sups(w: Callable, n: int, weight_exponent: float):
    """The quadrature radii and, per radius r, r^e times the max of w
    over the direction sample, for the weight exponent e, evaluating w
    on QUAD_BLOCK radii at a time.  A block of points that would not fit
    in physical memory (n in the thousands) raises ParameterError before
    any is formed."""
    # a block of points, n coordinates each, sets the peak: by tracemalloc
    # 1.05 to 1.1 of it at n = 50 and 100, 2.4 to 3 at n = 3 and 4
    check_memory(math.log2(QUAD_BLOCK * QUAD_DIRS * n * 8),
                 f"a radial quadrature in {n} dimensions")
    dirs = _directions(n)
    radii = np.arange(QUAD_DR / 2, QUAD_R_MAX, QUAD_DR)
    sups = np.empty(radii.size)
    for lo in range(0, radii.size, QUAD_BLOCK):
        r = radii[lo:lo + QUAD_BLOCK]
        vals = np.asarray(w(r[:, None, None] * dirs[None, :, :]), float)
        if vals.shape != (r.size, dirs.shape[0]):
            raise MorcamError("w must return one value per sample point")
        sups[lo:lo + QUAD_BLOCK] = vals.max(axis=1)
    return radii, radii ** weight_exponent * sups


def mixed_radial_norm(w: Callable, p: int, weight_exponent: float, n: int) -> float:
    """Mixed norm ( int_0^inf sup_{|x|=r} (|x|^e w(x))^p dr )^(1/p).

    w must be a vectorized nonnegative map on R^n.  p is 1 or 2.  A +inf
    result signals a divergent integral, whose truncation is not a stable
    approximation of a finite value: the dyadic block at an end of the
    sampled range still holds at least 0.9 of its neighbour's, both above
    1e-10 of the total (see _grows_at_an_end).  It is a value, not an
    error.
    """
    if p not in (1, 2):
        raise ParameterError(f"p must be 1 or 2, got {p}")
    radii, sup_r = _sphere_sups(w, n, weight_exponent)
    contributions = sup_r ** p * QUAD_DR
    blocks = _dyadic_blocks(radii, contributions, sup=False)
    sig = 1e-10 * blocks.sum()
    if _grows_at_an_end(blocks, lambda a, b: a > sig and a >= 0.9 * b and b > sig):
        return math.inf
    total = float(contributions.sum())
    return total if p == 1 else math.sqrt(total)


def weighted_sup_norm(w: Callable, weight_exponent: float, n: int) -> float:
    """sup over R^n of |x|^e w(x) on the radial/angular sample, with +inf
    when the radial profile of the sup still grows at either end of the
    sampled range (see _grows_at_an_end): the end block's sup is more than
    1.05 times its neighbour's and above 1e-10 of the largest."""
    radii, sup_r = _sphere_sups(w, n, weight_exponent)
    blocks = _dyadic_blocks(radii, sup_r, sup=True)
    sig = 1e-10 * blocks.max()
    if _grows_at_an_end(blocks, lambda a, b: a > sig and a > 1.05 * b):
        return math.inf
    return float(sup_r.max())


def check_lhs_grid(grid: RadialGrid) -> None:
    """ParameterError unless theorem_lhs can be evaluated on the grid: in
    3D it takes the sphere sup (_sphere_sup), which scans shells 2 and up
    and so needs 3 radial shells."""
    if grid.n == 3 and grid.n_shells < 3:
        raise ParameterError(f"sphere_sup needs 3 radial shells, the grid has {grid.n_shells}")


def _sphere_sup(grid: RadialGrid, su2: np.ndarray):
    """sup over shell radii R of (1/R^2) int_{|x|=R} |u|^2 dsigma, from
    the bin sums su2 of |u|^2, and the maximizing radius; the surface
    integral is approximated by a shell-volume average.

    The innermost two shells hold too few nodes to represent a sphere
    (8 and ~24 in 3D) and are excluded from the scan; dropping ladder
    points only lowers the discrete sup, the conservative direction for
    a left-hand-side quantity.  A 3D grid of fewer than 3 shells (L/h =
    1) raises ParameterError (see check_lhs_grid).
    """
    check_lhs_grid(grid)
    shells = grid.shell_sums(su2) / grid.h
    radii = grid.shell_radii
    vals = (shells / radii ** 2)[2:]
    k = int(np.argmax(vals))
    return float(vals[k]), float(radii[k + 2])


def hardy_ratio(u: ScalarField, disc: Discretization) -> float:
    """(int |u|^2/|x|^2) / (int |grad_A u|^2) on the grid; bounded by the
    Hardy constant 4/(n-2)^2 up to discretization slack."""
    grid = u.grid
    su2, sg2 = radial_sweep(u, disc, lambda sl: [sl.u2, sl.g2])
    num = float(su2 @ grid.bin_radii ** -2)
    den = float(sg2.sum())
    if den <= 0:
        raise MorcamError("hardy_ratio undefined: zero covariant-gradient energy")
    return num / den


# ---------------------------------------------------------------------------
# Theorem-side assemblies
# ---------------------------------------------------------------------------


def theorem_lhs(u: ScalarField, disc: Discretization, lam: float, M: float,
                delta: float) -> NormReport:
    """Itemized left-hand side of the a priori estimate.

    Entries: squared Morrey-Campanato norm of |grad_A u|; |u(0)|^2 by
    interpolation (3D); (M/2) int (d_r V)_- |u|^2; the delta-weighted
    group int <x>^-1 V_- |u|^2, lambda int |u|^2/<x>, the tangential
    gradient integral, and the sphere supremum (3D) or int |u|^2/|x|^3
    (n >= 4).  total applies the delta weight to the last group.  V and
    d_r V are those of the operator, capped as in disc.V.  lambda >= 0,
    M >= 0 and delta > 0 must be finite.
    """
    check_resolvent_parameters(lam=lam)
    check_estimate_parameters(M, delta)
    grid = u.grid
    n = grid.n
    rep = NormReport()
    r = grid.bin_radii
    bracket = np.sqrt(1 + r ** 2)
    potential = disc.pp.V is not None
    if potential:
        drv = disc.radial_derivative()

    def densities(sl):
        yield sl.g2
        # |g_tau|^2 = |g|^2 - |g_r|^2, clipped at zero
        tau = sl.g2.copy()
        for part in (sl.g_r.real, sl.g_r.imag):
            tau -= np.square(part)
        yield np.maximum(tau, 0.0, out=tau)
        yield sl.u2
        if potential:
            # the non-radial weights (d_r V)_- and V_-
            for w in (drv, disc.V):
                yield np.maximum(-sl.of(w), 0.0) * sl.u2

    sums = radial_sweep(u, disc, densities)
    rep.values["grad_mc_sq"], _ = _mc_sup_sq(grid, sums[0])
    tangential = float(sums[1] @ (1 / r))

    if n == 3:
        rep.values["origin_sq"] = abs(grid.interpolate_origin(u.values)) ** 2

    rep.values["drV_minus"] = rep.values["V_minus"] = 0.0
    if potential:
        rep.values["drV_minus"] = (M / 2) * float(sums[3].sum())
        rep.values["V_minus"] = float(sums[4] @ (1 / bracket))
    su2 = sums[2]
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


def theorem_rhs(dual: tuple[float, float], lam: float, eps: float):
    """Right-hand side N(f)^2 + (|eps| + lambda) N(f/sqrt(lambda))^2 from
    dual = dyadic_dual(f), which an eps sweep computes once for its datum.

    For lambda = 0 the second term is undefined as written; only N(f)^2
    is returned (a sweep notes it once, see verify.LAMBDA_ZERO_NOTE).
    lambda and eps are checked as the operator checks them.
    """
    check_resolvent_parameters(lam, eps)
    nf, tail = dual
    rep = NormReport()
    rep.values["N_f_sq"] = nf ** 2
    rep.values["N_f_tail"] = tail
    if lam > 0:
        rep.values["second_term"] = (abs(eps) + lam) * nf ** 2 / lam
        rep.total = nf ** 2 + rep.values["second_term"]
    else:
        rep.total = nf ** 2
    return rep
