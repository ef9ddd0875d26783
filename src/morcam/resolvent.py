"""Gauge-covariant discretization of H = -Delta_A + V on the truncated
box and iterative solution of -Hu + (lambda + i eps)u = f.

The magnetic coupling enters only through unit-modulus link phases
exp(-i h A_k(midpoint)) on grid edges (Peierls substitution), which keeps
the discrete operator gauge covariant and Hermitian for real V.  The
homogeneous Dirichlet truncation is handled by zero padding.  The free
part is diagonalized exactly by the orthonormal sine matrix
S_jk = sqrt(2/(m+1)) sin(pi j k/(m+1)) along every axis (the DST-I as a
dense matrix, applied by matrix products); its shifted inverse is the
preconditioner of a right-preconditioned GMRES(RESTART) solve written on
numpy alone.

The solve refines in mixed precision.  The iterate and the true residual
f - Au at the head of every restart cycle are complex128; each cycle's
Arnoldi process runs on a complex64 twin of the operator and of its
preconditioner (float32 sine matrix and eigenvalue table) with a
complex64 Krylov basis, and adds its complex64 correction to the
complex128 iterate.  Accuracy below float32 precision comes from the
next cycle's true residual, not from the cycle itself.

The grid is swept slab by slab along axis 0 (SLAB_BYTES a slab).  One
sampler, _sample, takes the samples of A, V and d_r V per slab from the
1-D node coordinates and allocates a grid-sized array only at the first
slab whose samples are not constant, so nothing grid-sized is kept for
constant data: an axis whose link phases are all 1 keeps None in place
of an array (its hops carry no product), and a V or d_r V that samples
to zero is 0-d.  The sampling is also the one domain gate of a pair on
a grid: Discretization tries d_r V and B_tau at the 2^n central nodes
once the samples are checked, so a pair undefined there is refused
before any operator exists, in every run that solves.
One edge rule, _hops, says which hop along which axis reaches which rows
of a slab, with which phase rows (cast for the complex64 twin) and which
halo row along axis 0, and one routine, _add_hop, adds a hop; the stencil
and covariant_gradient both call them.  Every hop is a shift of the
slab's flattened, contiguous rows by the axis's stride; along axes
1..n-1 the shift wraps across the layer the hop must not reach, which
_add_hop puts back as it was.  An application of the stencil allocates
its output and slab-sized scratch, not grid-sized temporaries, and an
operator keeps no grid-sized array: apply forms 2n/h^2 + V - lambda -
i eps per slab from the sampled V and reads the link phases of the
discretization, which the complex64 twin casts row range by row range
into one slab buffer, so each phase is held once, in complex128.  The
preconditioner allocates its
output and transforms it in place, slab by slab along axis 0 and by
column blocks across it, with two buffers of two slabs as scratch.  The
complex128 preconditioner is called once, for the start: it keeps no
table and forms 1/(mu - lambda - i eps) per column block in that call.
A solve reads the datum f one row of axis 0 at a time into a row buffer
it reuses (ScalarField.rows, _field_rows), so a separable datum, kept as
its 1-D factors, is never formed whole except for the start of a solve
that is not free, which transforms it and drops it.  A cycle head sums
the squares of the residual f - Au slab by slab, and only when the cycle
runs sweeps the stencil again to write the scaled residual into the
first basis vector.  A free solve of a separable datum therefore holds
the solution besides slab scratch, and a cycle head holds the Krylov
basis, the complex64 twin's preconditioner tables and the iterate, and
the datum only when it is not separable.

A solve takes the smallest box that holds its problem's symmetries
(_box says which).  A problem even to the bit in the last axis (the
last axis's link phases all 1, and every other axis's phases, V and the
datum equal to their mirror image along it) is solved on the half box,
the last axis's indexes m/2..m-1; a problem even under the half turn
(x_0, x_1) -> (-x_0, -x_1) about the last axis (V, the datum and the
phases of axes 2..n-1 equal to their image, those of axes 0 and 1
conjugate to the image of their reversed edges) on the half-turn
box, axis 0's indexes m/2..m-1; a problem with both on the box of both,
a quarter of the grid; every other problem on the whole box, to the bit
of a solve without the rule.  The solution has the problem's
symmetries, so the solve runs the same GMRES on the box and unfolds u
onto the grid in place.  Each axis of the box has its own 1-D
description, a node count, a forward and an inverse matrix and
eigenvalues (_box_axes): the whole box's axes are all (S, S, mu), the
half box's last axis takes the sine modes even about the middle,
X = sqrt(2) S[m/2:, ::2], with eigenvalues mu[::2], and the half-turn
box's axis 0 takes the modes whose parity matches that of axis 1's
mode.  Below its first layer the stencil reads the mirror node in place
of zero: on the half box the node itself, on the half-turn box the
first row's node m-1-j along axis 1, across the edge conjugate to the
one into it (_hops).  Each halving halves the bytes of every Krylov
vector, and the complex64 cycles' rounding cannot stray into the odd
modes, which a larger box's GMRES spends steps removing.

After a solve, radial_sweep evaluates the radial densities of the
estimate and the identity checks in one more sweep: per slab it forms
the covariant gradient (one halo row along axis 0), |grad_A u|^2 and
x . grad_A u, and bins each density into per-bin sums, so no density is
held for the whole grid.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError, SolverError
from .fields import (PotentialPair, radial_derivative_parts, resolve_builtin,
                     trapping_component)
from .grids import RadialGrid, ScalarField, check_same_grid, point_array

__all__ = [
    "Discretization",
    "ResolventProblem",
    "DiscreteOperator",
    "build_problem",
    "make_datum",
    "solve",
    "covariant_gradient",
    "radial_sweep",
    "link_phases",
    "epsilon_floor",
    "check_resolvent_parameters",
    "check_memory",
    "check_datum",
    "scale_exponent",
]

#: GMRES restart length: a solve keeps RESTART + 1 complex64 Krylov basis
#: vectors.
RESTART = 100
#: A solve stops after this many Arnoldi steps in all, converged or not.
MAXITER = 2000
#: A complex64 cycle stops once its Givens estimate has fallen to this
#: fraction of the cycle's true residual (or to the tolerance): float32
#: resolves the correction to a few units in its last place, and the next
#: cycle continues from the complex128 true residual.
CYCLE_REDUCTION = 16 * float(np.finfo(np.float32).eps)
#: Bytes of one slab of a sweep along axis 0.  In DiscreteOperator.apply
#: a slab of one array: the diagonal term, the hop sum and its scaling of
#: a slab stay in cache between them, and apply's scratch is two slabs
#: (and a float64 slab of the real diagonal when V is grid-sized; a
#: residual sweep adds one for the residual) instead of grid-sized
#: temporaries.  The preconditioner's scratch is two buffers of two slabs
#: of its dtype.  In the sampling and radial_sweep, a slab's whole working
#: set.
SLAB_BYTES = 256 * 1024
#: A solve scales up a datum whose norm is below 2^-SCALE_RANGE (see
#: solve).  At or above it the sum of the squares is at least 2^-800, a
#: normal float, and the squares lost to underflow (each below 2^-1022,
#: fewer than 2^64 of them) sum to less than 2^-158 of it.  (A datum too
#: large for its squares is not scaled: the estimate and the identity
#: square the solution too, so its solve ends in SolverError, its norm
#: being infinite.)
SCALE_RANGE = 400
#: Bytes a node of the working set of the sampling and of radial_sweep:
#: about 32 float64 values (the point array and the temporaries of the
#: potential's callables, or the gradient buffers, B_tau and the
#: densities with theirs).
_WORK_NODE_BYTES = 32 * 8
#: Grid-sized complex128 arrays a solve holds besides its Krylov basis: the
#: link phases of the axes whose phases are not all 1 (the complex64 twin
#: casts them slab by slab and keeps no copy), V, the datum when it is not
#: separable (a separable one keeps its 1-D factors), the solution, and the
#: temporaries of both operators and both preconditioners.  By tracemalloc
#: over a 32^3 solve with exp_screened(0.3), the problem built inside the
#: trace: with an A that is nonzero on all three axes, 8.9 for a gaussian
#: datum and 9.9 for the shell, which keeps its values; with ex13, whose
#: z-phases are all 1, 7.9 and 8.9.  The peak is in an application of the
#: complex64 twin, whose slab scratch covers the whole grid at 32^3; with
#: slabs of 1/16 of a grid array, as on every grid this check can refuse,
#: the four read 7.1, 8.1, 6.1 and 7.1.
WORK_VECTORS = 10


def epsilon_floor(L: float, lam: float) -> float:
    """The eps at which the damping number Im sqrt(lambda + i eps) L is 1,
    (2/L) sqrt(lambda + 1/L^2).  Below it the box is shorter than one
    damping length 1/Im sqrt(lambda + i eps), and box eigenvalues near
    lambda, not the whole-space resolvent, set the Dirichlet answer."""
    return 2.0 / L * math.sqrt(lam + 1.0 / (L * L))


#: float32's largest value, the largest lambda and |eps| a solve takes
FLOAT32_MAX = float(np.finfo(np.float32).max)


def check_resolvent_parameters(lam: float | None = None,
                               eps: float | None = None,
                               tol: float | None = None) -> None:
    """Raise ParameterError unless lambda is >= 0, eps is nonzero, both
    at most FLOAT32_MAX in modulus, and the solve tolerance tol is finite
    and positive; None skips a check.

    The bound is the complex64 twin's: its diagonal is (2n/h^2 + V) -
    lambda - i eps, formed in float64 and cast.  2n/h^2 + V lies in
    (0, 4n/h^2] (V is capped at 1/h^2), which Discretization keeps below
    FLOAT32_MAX, so the real part lies in [-lambda, 4n/h^2] and both parts
    cast to finite float32 values exactly when lambda and |eps| are at
    most FLOAT32_MAX.  The preconditioner's table squares mu - lambda and
    eps in float64, far inside its range."""
    if lam is not None and not 0 <= lam <= FLOAT32_MAX:
        raise ParameterError(f"lambda must be >= 0 and at most {FLOAT32_MAX!r} "
                             f"(float32's largest value), got {lam}")
    if eps is not None and not 0 < abs(eps) <= FLOAT32_MAX:
        raise ParameterError(f"eps must be nonzero with |eps| at most {FLOAT32_MAX!r} "
                             f"(float32's largest value), got {eps}")
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise ParameterError(f"tol must be finite and positive, got {tol}")


def link_phases(grid: RadialGrid, pp: PotentialPair) -> list:
    """The link phases exp(-i h A_k(x + (h/2) e_k)) of each axis k, a list
    of grid.n entries: a grid-sized array, or None for an axis whose
    phases are all exactly 1 (A_k samples to zero on its midpoints, as
    the z-links of ex13 and ex14, and every axis of a pair without A).  A
    hop along a None axis carries no product.  Each axis is sampled by
    _sample on the midpoints of its edges.  A that samples non-finite
    raises ParameterError."""
    if pp.A is None:
        return [None] * grid.n

    def phases(k, s, e):
        Ak = pp.eval_A(_slab_points(grid, s, e, k))[..., k]
        return np.exp(-1j * grid.h * _finite(Ak, "magnetic potential A"))

    return [_sample(grid, functools.partial(phases, k), 1) for k in range(grid.n)]


def _sample(grid: RadialGrid, at: Callable, constant):
    """A grid-sized array of the samples at(s, e) takes on the rows s:e of
    axis 0, one slab at a time (see _slabs and _slab_points), or None
    when every slab's samples equal constant: the array is allocated,
    holding constant, at the first slab whose samples do not."""
    out = None
    for s, e in _slabs(grid.shape, _WORK_NODE_BYTES):
        x = at(s, e)
        if out is None:
            if (x == constant).all():
                continue
            out = np.full(grid.shape, constant, x.dtype)
        out[s:e] = x
    return out


def _slabs(shape: tuple, node_bytes: int) -> list:
    """The row ranges (s, e) of the slabs of axis 0 of an array of shape
    that hold SLAB_BYTES at node_bytes bytes a node, at least one row
    each."""
    m = shape[0]
    rows = min(m, max(1, SLAB_BYTES // (node_bytes * math.prod(shape[1:]))))
    return [(s, min(s + rows, m)) for s in range(0, m, rows)]


def _box_rows(f: ScalarField, s: int, e: int, out=None, half: bool = False,
              turn: bool = False):
    """The rows s:e of axis 0 of f on a box of DiscreteOperator:
    f.rows(s, e, out), or with turn the rows m/2 + s:m/2 + e, with half
    their part on the last axis's upper half m/2: (a view)."""
    mid = f.grid.m // 2
    r = f.rows(s + mid * turn, e + mid * turn, out)
    return r[..., mid:] if half else r


def _field_rows(f: ScalarField, half: bool = False, turn: bool = False):
    """Yield (i, i + 1, r) for each row i of axis 0 of a box (see
    _box_rows): r the samples of f on that row, read by f.rows into one
    row buffer that the next row reuses (a field with factors allocates
    no row of its own)."""
    row = np.empty((1,) + f.grid.shape[1:], complex)
    for i in range(f.grid.m // 2 if turn else f.grid.m):
        yield i, i + 1, _box_rows(f, i, i + 1, row, half, turn)


def _slab_points(grid: RadialGrid, s: int, e: int, k: int | None = None):
    """The nodes of the rows s:e of axis 0, shape (e - s, m, ..., m, n),
    built from the 1-D coordinates; with k, the midpoints x + (h/2) e_k of
    their axis-k edges."""
    axes = [grid.coords_1d] * grid.n
    if k is not None:
        axes[k] = grid.coords_1d + grid.h / 2
    axes[0] = axes[0][s:e]
    return point_array(axes)


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """values, or ParameterError naming what when one is not finite."""
    if not np.isfinite(values).all():
        raise ParameterError(f"{what} samples non-finite values on the grid")
    return values


def check_memory(log2_need: float, what: str) -> None:
    """Raise ParameterError when 2**log2_need bytes exceed physical
    memory; what names the work that needs them.  The need comes as a
    base-2 logarithm so that no size overflows: a grid's m**n nodes are
    never formed."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if log2_need > math.log2(have):
        raise ParameterError(
            f"{what} needs about 2^{log2_need:.1f} bytes, more than the "
            f"{have / 2 ** 30:.3g} GiB of physical memory")


class Discretization:
    """One sampling of a potential pair on a grid: the link phases and the
    electric potential that define -Delta_A^h + V.  It only samples; the
    Dirichlet box, its stencil and its spectrum, is DiscreteOperator's.

    The operator, the covariant gradient and the identity and estimate
    checks all read the same samples.  Nothing grid-sized is kept for
    constant data: ``phases`` (see link_phases) is a list of one entry per
    axis, None for an axis whose phases are all 1.  Singular V samples are
    capped at 1/h^2 to keep the operator bounded, with a warning that
    counts the capped nodes slab by slab; no mask of them is kept.  d_r V
    is sampled on first use and kept.  Each is sampled by _sample,
    one slab of axis 0 at a time from the 1-D node coordinates, so no
    grid-sized point array is formed, and a V or d_r V that samples to
    zero at every node is kept as a 0-d zero, which every reader
    broadcasts: a free pair holds no grid-sized V or d_r V.  A grid too large
    to solve on, or whose 4n/h^2 is not below float32's largest value (the
    complex64 twin's diagonal holds it), is refused before any sampling,
    and a V or A that samples non-finite raises ParameterError.

    This is also the one domain gate of a pair on a grid.  After the
    samples' checks the pair is tried at the 2^n central nodes, nearest
    the origin and the z-axis where the built-ins are singular: through
    d_r V when there is a V (or dV_r) and through B_tau when there is an
    A.  A pair undefined there raises DomainError before any operator
    exists, so every run that solves refuses it the same way.

    even() says whether the pair is even to the bit in the last axis or
    under the half turn about it, and box() gives the samples of the box a
    solve of such a pair takes, copied on first use and kept, so that the
    solves of every eps share them.
    """

    def __init__(self, grid: RadialGrid, pp: PotentialPair):
        if pp.n != grid.n:
            raise ParameterError("potential and grid dimensions differ")
        # 2n/h^2 + V, at most 4n/h^2, is the complex64 twin's diagonal (see
        # check_resolvent_parameters), taken in log2 so that it cannot overflow
        if not math.log2(4 * grid.n) - 2 * math.log2(grid.h) < math.log2(FLOAT32_MAX):
            raise ParameterError(f"h={grid.h!r} is outside the float range of a solve: "
                                 f"4n/h^2 must be below float32's largest value (n={grid.n})")
        # a solve holds RESTART + 1 complex64 Krylov basis vectors and
        # WORK_VECTORS complex128 work vectors of grid.size values
        check_memory(grid.n * math.log2(grid.m)
                     + math.log2((RESTART + 1) * 8 + WORK_VECTORS * 16),
                     f"a solve on a grid of {grid.m}^{grid.n} nodes")
        self.grid = grid
        self.pp = pp
        self.phases = link_phases(grid, pp)
        V = _sample(grid, lambda s, e: _finite(
            pp.eval_V(_slab_points(grid, s, e)), "electric potential V"), 0)
        # the domain gate comes after the samples' checks, so that a V that
        # samples inf is refused as such, not met as inf - inf in the
        # central difference of d_r V
        near = point_array([grid.coords_1d[grid.central]] * grid.n)
        if pp.V is not None or pp.dV_r is not None:
            radial_derivative_parts(pp, near)
        if pp.A is not None:
            trapping_component(pp, near)
        if V is None:
            V = np.zeros(())
        else:
            cap, capped = 1.0 / grid.h ** 2, 0
            for s, e in _slabs(grid.shape, _WORK_NODE_BYTES):
                capped += np.count_nonzero(np.abs(V[s:e]) > cap)
                np.clip(V[s:e], -cap, cap, out=V[s:e])
            if capped:
                warnings.warn(f"electric potential capped at {cap:.3g} on "
                              f"{capped} nodes", stacklevel=2)
        self.V = V
        self._drv = None
        self._even = {}
        self._boxes = {}

    def radial_derivative(self) -> np.ndarray:
        """d_r V at the nodes, zero where the capped V sits at +-1/h^2 (it
        is flat there), or a 0-d zero when it samples to zero everywhere (a
        pair with neither V nor dV_r is not sampled).  Sampled by _sample
        on the first call; later calls return the same read-only array."""
        if self._drv is None:
            grid, pp = self.grid, self.pp
            drv = None
            if pp.V is not None or pp.dV_r is not None:
                drv = _sample(grid, lambda s, e: radial_derivative_parts(
                    pp, _slab_points(grid, s, e)), 0)
            if drv is None:
                drv = np.zeros(())
            elif self.V.ndim:
                cap = 1.0 / grid.h ** 2
                for s, e in _slabs(grid.shape, _WORK_NODE_BYTES):
                    drv[s:e][np.abs(self.V[s:e]) == cap] = 0.0
            drv.flags.writeable = False
            self._drv = drv
        return self._drv

    def even(self, turn: bool = False) -> bool:
        """Whether the pair equals its image to the bit under the mirror
        z -> -z of the last axis, or with turn under the half turn
        (x_0, x_1) -> (-x_0, -x_1) about it: V and the phases of every
        axis the map keeps equal their image, and the phases of an axis
        whose edges it reverses are conjugate to their image's (see
        _image_equal) or, for the mirror, all 1 (None).  A pair has n >= 3,
        so the half turn's axes 0 and 1 are not the last.  Compared slab by
        slab on the first call and kept."""
        if turn not in self._even:
            axes = (0, 1) if turn else (self.grid.n - 1,)
            arrays = [(p, k if k in axes else None) for k, p in enumerate(self.phases)]
            self._even[turn] = (turn or self.phases[-1] is None) and all(
                a is None or a.ndim == 0 or _image_equal(a, axes, edge)
                for a, edge in arrays + [(self.V, None)])
        return self._even[turn]

    def box(self, half: bool = False, turn: bool = False):
        """The link phases and V of a box of DiscreteOperator, as (phases,
        V): the discretization's own on the whole box, else their parts on
        the box, the last axis's upper half m/2: with half and axis 0's
        upper half with turn, where axis 0's phases keep one row more,
        m/2 - 1, the edges into the box from its image.  A part is a view
        when it is contiguous (axis 0's rows alone) and a contiguous copy
        otherwise, made on first use and kept; a None or 0-d sample is
        kept as it is."""
        if not (half or turn):
            return self.phases, self.V
        if (half, turn) not in self._boxes:
            mid = self.grid.m // 2

            def cut(a, first):
                if a is None or a.ndim == 0:
                    return a
                return np.ascontiguousarray(a[first * turn:, ..., mid * half:])

            self._boxes[half, turn] = ([cut(p, mid - (k == 0)) for k, p in enumerate(self.phases)],
                                       cut(self.V, mid))
        return self._boxes[half, turn]


def _image_equal(a: np.ndarray, axes: tuple, edge: int | None = None) -> bool:
    """Whether the grid-sized array a equals its image under the reversal
    of the given axes, a[..., m-1-i, ...] along each, in every value,
    compared slab by slab along axis 0.  With edge, a holds the link
    phases of that axis (one of axes), whose edge (i, i+1) the reversal
    maps onto (m-2-i, m-1-i) run backwards, so along it a[i] is compared
    with the conjugate of a[m-2-i], for i < m - 1."""
    m = a.shape[0]
    lo = [slice(None)] * a.ndim
    hi = [slice(None)] * a.ndim
    for k in axes:
        lo[k] = slice(None, m - (k == edge))
        hi[k] = slice(m - 1 - (k == edge), None, -1)
    rows = m - (edge == 0)
    for s, e in _slabs((rows,) + a.shape[1:], _WORK_NODE_BYTES):
        img = a[rows - e:rows - s][::-1] if 0 in axes else a[s:e]
        img = img[(slice(None),) + tuple(hi[1:])]
        if edge is not None:
            img = np.conj(img)
        if not np.array_equal(a[s:e][(slice(None),) + tuple(lo[1:])], img):
            return False
    return True


def _hops(P, u: np.ndarray, k: int, s: int, e: int, cast=None,
          mirror: bool = False) -> list:
    """The two hops along axis k that reach the rows s:e of axis 0, up
    then down, each as (dst, U, v, edge, back) on flat, contiguous arrays:
    dst slices the flattened rows, v is the piece of the flattened u the
    hop reads into them and U the phases of its edges, or None when P, the
    phases of axis k (link_phases' entry), is None.  U is read from P's
    rows s-1:e (from row 0 when s = 0), a view, or their cast into the
    caller's buffer cast (of a slab and a row) when it is given.  The up
    hop reads u(x + h e_k) across the edge (x, x + h e_k) with U_k(x), the
    down hop u(x - h e_k) with U_k(x - h e_k), which _add_hop conjugates.

    u and P are C-contiguous, read as flat views.  A hop is a shift of
    the flattened rows by axis k's stride, the product of the lengths of
    the axes after k.  Along axis 0 the edges (i, i+1) that start in the
    rows have i in s:b, those that end there i in a-1:e-1, so u is read
    one row past each end of the rows that lies inside the box (its
    halo), and dst leaves out the box's last row (up) or its first
    (down).  Along any other axis dst spans the rows but one stride, and
    its shift wraps across the box's last layer along axis k (up) or its
    first (down): edge indexes that layer of an array of the rows, which
    the hop must not reach, so _add_hop puts it back as it was.

    With mirror the box's first layer along axis k has a mirror node
    below it in place of Dirichlet zero, and the down hop reads it there:
    back is (its phases, its values), which _add_hop adds at edge, and is
    None otherwise.  On the half box's last axis (phases None) the mirror
    node is the node itself.  Along axis 0 of the half-turn box, P holds
    one row more ahead of the box's first, the edges into the box from its
    image, and the mirror node of the first row's node j is the first
    row's node m-1-j along axis 1 (the half turn's image, the twisted
    mirror)."""
    m = u.shape[0]
    M = u.size // m
    flat = u.reshape(-1)
    # with the twisted mirror P's row r + 1 holds the edges that start in
    # u's row r, from r = -1
    lead = int(mirror and k == 0)
    r = max(s - 1, -lead)
    if P is not None:
        P = P[r + lead:e + lead]
        if cast is not None:
            cast[:len(P)] = P
            P = cast[:len(P)]
        P = P.reshape(-1)

    def at(i, j):
        # the flat phases of the rows i:j, P's first row being r
        return None if P is None else P[(i - r) * M:(j - r) * M]

    if k == 0:
        b, a = min(e, m - 1), max(s, 1)
        back = None
        if mirror and s == 0:
            U = at(-1, 0)
            back = (None if U is None else U.reshape(u.shape[1:]), u[0, ::-1])
        return [(slice(None, (b - s) * M), at(s, b), flat[(s + 1) * M:(b + 1) * M], None, None),
                (slice((a - s) * M, None), at(a - 1, e - 1), flat[(a - 1) * M:(e - 1) * M],
                 None if back is None else 0, back)]
    st, N = math.prod(u.shape[k + 1:]), (e - s) * M
    v, U = flat[s * M:e * M], at(s, e)
    U = None if U is None else U[:N - st]
    layer = (slice(None),) * k
    first = layer + (0,)
    back = (None, u[s:e][first]) if mirror else None
    return [(slice(None, N - st), U, v[st:], layer + (u.shape[k] - 1,), None),
            (slice(st, None), U, v[:N - st], first, back)]


def _add_hop(out: np.ndarray, hop, tmp, conj: bool, sign: int = 1) -> None:
    """Add the hop (dst, U, v, edge, back) of _hops to out, the
    C-contiguous array of its rows: out's flattened rows dst get U v
    (conj(U) v when conj) added, or subtracted when sign is -1, the
    product formed in the flat scratch tmp (unused when U is None: v is
    added as it is), and out's layer edge, which the shift wraps across
    or does not reach, is put back as it was, with the hop across the
    mirror, back = (U, v), added (subtracted) as U v or v when it is not
    None.  This is the only code that adds a hop: the stencil and the
    covariant gradient both call it."""
    dst, U, v, edge, back = hop
    kept = None if edge is None else out[edge].copy()
    add = np.add if sign > 0 else np.subtract

    def product(U, v):
        if U is None:
            return v
        t = tmp.reshape(-1)[:v.size].reshape(v.shape)
        if conj:
            np.conj(U, out=t)
            t *= v
        else:
            np.multiply(U, v, out=t)
        return t

    rows = out.reshape(-1)[dst]
    add(rows, product(U, v), out=rows)
    if kept is not None:
        if back is not None:
            add(kept, product(*back), out=kept)
        out[edge] = kept


class DiscreteOperator:
    """Matrix-free application of (-Delta_A^h + V - lambda - i eps)u on
    the Dirichlet box, and the exact inverse of its free part.

    The operator owns the box: apply is the (2n+1)-point stencil with
    zero outside the box, whose hop between x and x + h e_k carries the
    link phase (none along an axis whose phases are all 1), and
    preconditioner() inverts the free stencil in the eigenbasis
    _dirichlet_eigenpairs gives along each axis.  It keeps no grid-sized
    array: apply forms the diagonal 2n/h^2 + V(x) - lambda - i eps slab by
    slab from disc.V and reads the link phases from disc.phases, the
    complex64 twin casting each slab's rows of them into one slab buffer.
    lambda and eps are checked by check_resolvent_parameters.  dtype
    (complex128 or complex64) is the precision of the phases and the
    diagonal apply multiplies by, of the preconditioner's tables and of
    every vector apply and the preconditioner take and return.

    With half the box is the half box of a pair even in the last axis
    (Discretization.even()), the last axis's upper half m/2:, and with
    turn the half-turn box of a pair even under the half turn about the
    last axis (even(turn=True)), axis 0's upper half m/2:; either, or
    both, of shape ``shape``.  Below the box's first layer along the
    halved axis the stencil reads the mirror node in place of zero (see
    _hops), and the preconditioner's eigenbasis holds only the modes even
    under the map (see _box_axes).  Vectors are of the box's shape.
    """

    def __init__(self, disc: Discretization, lam: float, eps: float,
                 dtype=np.complex128, half: bool = False, turn: bool = False):
        lam, eps = float(lam), float(eps)
        check_resolvent_parameters(lam, eps)
        self.disc = disc
        self.grid = disc.grid
        self.lam = lam
        self.eps = eps
        self.dtype = np.dtype(dtype)
        self.half = half
        self.turn = turn
        g = self.grid
        self.shape = (g.m // (1 + turn),) + g.shape[1:-1] + (g.m // (1 + half),)
        self.size = math.prod(self.shape)
        # whether any hop carries a product, and so needs _sweep's scratch
        self._phased = any(p is not None for p in self._samples()[0])

    def _samples(self):
        """The link phases and V of the box (Discretization.box).  Read,
        not kept, so that an operator holds no grid-sized array."""
        return self.disc.box(self.half, self.turn)

    def apply(self, u: np.ndarray, rhs: ScalarField | None = None):
        """(-Delta_A^h + V - lambda - i eps)u in one sweep of slabs of
        SLAB_BYTES along axis 0 (at least one row each), see _sweep.  With
        rhs (a ScalarField) it returns the norm of the residual rhs - Au
        instead, formed slab by slab in a slab buffer (see _residuals) and
        summed from the squares of its rows of axis 0 (see _row_norm), so
        the value does not depend on the slab size and nothing grid-sized
        is allocated."""
        u = np.ascontiguousarray(u, self.dtype).reshape(self.shape)
        if rhs is None:
            out = np.empty(self.shape, self.dtype)
            for _ in self._sweep(u, out):
                pass
            return out
        return _row_norm(self._residuals(u, rhs))

    def _residuals(self, u: np.ndarray, rhs: ScalarField):
        """Yield (s, e, r) for each slab of _sweep: r = rhs - Au on the
        rows s:e of axis 0, in a slab buffer the next slab reuses, rhs read
        a row at a time into a row buffer (see _field_rows)."""
        row = np.empty((1,) + self.grid.shape[1:], complex)
        for s, e, w in self._sweep(u):
            for i in range(s, e):
                r = w[i - s:i - s + 1]
                np.subtract(_box_rows(rhs, i, i + 1, row, self.half, self.turn), r, out=r)
            yield s, e, w

    def _sweep(self, u: np.ndarray, out: np.ndarray | None = None):
        """Yield (s, e, w) for each slab of SLAB_BYTES along axis 0: w holds
        Au on the rows s:e, written into out[s:e] when out is given and
        otherwise into a slab buffer the next slab reuses.  Each slab's
        diagonal term is written straight into w, its 2n hops are summed in
        one slab-sized scratch, axis 0's reading one halo row past each end
        of the slab, and hop/h^2 is subtracted.  The slab's complex
        diagonal is formed in that scratch: its real part (2n/h^2 + V) -
        lambda in float64 (once when V is 0-d), cast to the dtype, and
        -eps, the values a complex cast of the whole diagonal holds.  Each
        of the 2n hops is added by _add_hop, the hops of _hops along each
        axis in turn, up then down.  Phases not of the dtype are cast by
        _hops, one axis at a time, into one buffer of a slab and a row that
        every slab reuses, the values a cast of the whole array holds.
        Every sum is taken in the order of a whole-array sweep, so the
        values do not depend on the slab size."""
        g, dtype, eps, shape = self.grid, self.dtype, self.eps, self.shape
        slabs = _slabs(shape, dtype.itemsize)
        # hop sums the slab's hops; each product U u is formed in tmp (an
        # operator without phases has no products)
        hop = np.empty((slabs[0][1],) + shape[1:], dtype)
        tmp = np.empty_like(hop) if self._phased else None
        buf = np.empty_like(hop) if out is None else None
        # the phase rows of one axis at a time, cast to the dtype when
        # the samples hold another
        phases, V = self._samples()
        cast = None
        if any(p is not None and p.dtype != dtype for p in phases):
            cast = np.empty((slabs[0][1] + 1,) + shape[1:], dtype)
        c = 2 * g.n / g.h ** 2
        # the real diagonal (2n/h^2 + V) - lambda in float64, cast to the
        # dtype by its assignment to slab.real (rounding once, as a cast of
        # the whole diagonal does): a slab buffer, or its one value
        rd = np.empty(hop.shape) if V.ndim else c + V - self.lam
        scale = 1.0 / g.h ** 2
        for s, e in slabs:
            slab = hop[:e - s]
            w = buf[:e - s] if out is None else out[s:e]
            d = rd
            if V.ndim:
                d = np.add(c, V[s:e], out=rd[:e - s])
                d -= self.lam
            slab.real = d
            slab.imag = -eps
            np.multiply(slab, u[s:e], out=w)
            slab[...] = 0
            # U_k(x) u(x + h e_k), then conj(U_k(x - h e_k)) u(x - h e_k)
            for k, P in enumerate(phases):
                mirror = self.turn if k == 0 else self.half and k == g.n - 1
                up, down = _hops(P, u, k, s, e, cast, mirror)
                _add_hop(slab, up, tmp, False)
                _add_hop(slab, down, tmp, True)
            slab *= scale
            w -= slab
            yield s, e, w

    # --- free-operator preconditioner ------------------------------------

    def preconditioner(self) -> Callable:
        """The exact inverse of the free shifted operator (A = V = 0) on
        the box, v -> X diag(1/(mu - lambda - i eps)) X^T v with X the
        box's eigenbasis and mu the sum of its 1-D eigenvalues (see
        _box_axes: the sine matrix S along every axis of the whole box, and
        on the half-turn box a basis along axis 0 for each parity of axis
        1's modes), acting on flat vectors of the operator's dtype.

        A call allocates its complex output and transforms it in place in
        three sweeps, with two buffers of two slabs of the dtype as
        scratch: (1) per slab of axis 0, v's rows with their real and
        imaginary parts apart and the products along axes 1..n-1 in the
        scratch, the last written into the output's rows with their real
        parts ahead of their imaginary parts; (2) per column block of
        those rows (as many nodes as a slab, all of one parity group),
        the product along axis 0, the table's multiplication and the
        inverse product along axis 0, the block copied into the scratch
        first (ufuncs run slower on strided views) and its product written
        back; (3) per slab, the inverse products along axes 1..n-1,
        interleaved back into the output.  Each product and each table
        entry takes the values and the order of a whole-array transform
        (forward along axes 1..n-1 and then 0, the table, inverse along
        0..n-1), so the result does not depend on the slab size.

        The table 1/(d - i eps), d = mu - lambda, is formed as its real and
        imaginary parts d/(d^2 + eps^2) and eps/(d^2 + eps^2) in float64
        real arithmetic.  A complex64 operator is the twin a solve calls
        once per Arnoldi step, so it keeps the table by column blocks,
        cast to float32.  A complex128 one is the start of a solve, called
        once, so it keeps nothing grid-sized and each call forms the table
        block by block as it multiplies: the same values either way.  On
        a box smaller than the grid the start's output is the head of a
        buffer of the whole grid's size, which solve unfolds in place
        (_unfold).  v may also be a ScalarField.  When this operator is
        free and the field has factors f_k, the callable takes the
        spectrum X^T v as the outer product of the 1-D transforms X_k^T
        f_k (axis 0's by parity group), formed slab by slab in place of
        the products of sweep 1 and of axis 0; otherwise it transforms the
        field's values on the box, formed whole for the call when the
        field has factors and dropped after sweep 1."""
        dtype, shape, half, turn = self.dtype, self.shape, self.half, self.turn
        m, real = shape[0], np.finfo(dtype).dtype
        lam, eps = self.lam, self.eps
        # every solve calls the complex128 inverse once, for its start, and
        # the complex64 twin serves its cycles; a start that is not free
        # takes the dense transform only so that it keeps its bits
        free = not self._phased and self._samples()[1].ndim == 0
        groups, rest = _box_axes(self.grid, half, turn, real)
        slabs = _slabs(shape, dtype.itemsize)
        # M nodes a row of axis 0, an equal share w of them in each group
        # of axis 0's basis; the column blocks (c, d) of the rows' nodes
        # hold as many nodes as a slab, each within one group g
        M = self.size // m
        cols, w = slabs[0][1] * M // m, M // len(groups)
        blocks = [(c, min(c + cols, (g + 1) * w), g) for g in range(len(groups))
                  for c in range(g * w, (g + 1) * w, cols)]
        # the start's output on a box smaller than the grid is the head of
        # a buffer of the whole grid's size, which solve unfolds u into
        buffer_size = self.grid.size if (half or turn) and dtype == np.complex128 else self.size

        def table(c, d, g, s=0, e=m):
            # the table on the columns c:d (of group g) of the rows s:e, mu
            # summed over the axes in order as a broadcast outer sum adds
            # them
            t = np.zeros((e - s, d - c))
            t += groups[g][2][s:e, None]
            for (_, _, mu), i in zip(rest, np.unravel_index(np.arange(c, d), shape[1:])):
                t += mu[i]
            t -= lam
            q = t * t
            q += eps * eps
            t /= q
            np.divide(eps, q, out=q)
            return t, q

        kept = None
        if dtype == np.complex64:
            # formed by row ranges whose two float64 parts hold SLAB_BYTES
            kept = [np.empty((2, m, d - c), real) for c, d, _ in blocks]
            for (c, d, g), k in zip(blocks, kept):
                rows = max(1, SLAB_BYTES // (16 * (d - c)))
                for s in range(0, m, rows):
                    e = min(s + rows, m)
                    k[0, s:e], k[1, s:e] = table(c, d, g, s, e)

        def minv(v):
            factors = None
            if isinstance(v, ScalarField):
                if free and v.factors is not None:
                    mid = v.grid.m // 2
                    factors = list(v.factors)
                    factors[0], factors[-1] = factors[0][mid * turn:], factors[-1][mid * half:]
                else:
                    v = _box_rows(v, 0, m, half=half, turn=turn)
            out = np.empty(buffer_size, dtype)[:self.size].reshape(shape)
            # out's memory, 2M reals a row of axis 0: the interleaved
            # complex values, or between the sweeps the row's real parts
            # ahead of its imaginary parts (split); halves views the split
            # parts of every row's columns
            rows = out.view(real).reshape(m, 2 * M)
            split = rows.reshape((m, 2) + shape[1:])
            halves = rows.reshape(m, 2, M).transpose(1, 0, 2)
            flat = np.empty((2, 2 * slabs[0][1] * M), real)

            def scratch(dims):
                # two buffers of shape dims: contiguous prefixes of the
                # flat ones, so that reshape gives views
                return [b[:math.prod(dims)].reshape(dims) for b in flat]

            bufs = [scratch((e - s, 2) + shape[1:]) for s, e in slabs]
            if factors is None:
                v = np.ascontiguousarray(v, dtype).reshape(shape)
            else:
                spec = [F @ f for (F, _, _), f in zip(rest, factors[1:])]
                # each group's head: axis 0's spectrum in its basis times
                # the spectra of axes 1..n-2, of axis 1 the group's share
                heads = []
                for g, (F, _, _) in enumerate(groups):
                    part = [F @ factors[0]] + spec[:-1]
                    if len(part) > 1:
                        k = len(part[1]) // len(groups)
                        part[1] = part[1][g * k:(g + 1) * k]
                    heads.append(functools.reduce(np.multiply.outer, part, np.ones(())))
            for (s, e), (a, b) in zip(slabs, bufs):
                if factors is None:
                    a[:, 0], a[:, 1] = v[s:e].real, v[s:e].imag
                    _sine_rest(a, (b, a), rest, False, out=split[s:e])
                else:
                    t = b.reshape(-1).view(dtype).reshape((e - s,) + shape[1:])
                    for head, part in zip(heads, np.split(t, len(heads), axis=1)):
                        np.multiply(head[s:e, ..., None], spec[-1], out=part)
                    split[s:e, 0], split[s:e, 1] = t.real, t.imag
            # read once: a datum formed from its factors for this call is
            # dropped here
            v = None
            x = y = None
            for j, (c, d, g) in enumerate(blocks):
                F0, B0, _ = groups[g]
                inv_re, inv_im = table(c, d, g) if kept is None else kept[j]
                # the scratch views change only for a partial last block
                if x is None or x.shape[2] != d - c:
                    x, y = scratch((2, m, d - c))
                block = halves[:, :, c:d]
                x[...] = block
                a, b = x, y
                if factors is None:
                    np.matmul(F0, a, out=b)
                    a, b = b, a
                (re, im), (b_re, b_im) = a, b
                np.multiply(re, inv_re, out=b_re)
                np.multiply(re, inv_im, out=b_im)
                # re has been read; it holds each im product in turn
                b_re -= np.multiply(im, inv_im, out=re)
                b_im += np.multiply(im, inv_re, out=re)
                np.matmul(B0, b, out=block)
            for (s, e), b in zip(slabs, bufs):
                z = _sine_rest(split[s:e], b, rest, True)
                o = out[s:e]
                o.real, o.imag = z[:, 0], z[:, 1]
            return out.ravel()

        return minv


def _dirichlet_eigenpairs(m: int, h: float):
    """(S, mu): the eigenvectors and eigenvalues of the 1-D Dirichlet
    second difference (2u_j - u_{j-1} - u_{j+1})/h^2 on m nodes.  S is the
    orthonormal DST-I matrix S_jk = sqrt(2/(m+1)) sin(pi j k/(m+1)),
    j, k = 1..m, symmetric and orthogonal, so it is its own inverse;
    mu_k = (2 - 2 cos(pi k/(m+1)))/h^2."""
    k = np.arange(1, m + 1)
    S = math.sqrt(2.0 / (m + 1)) * np.sin(math.pi * np.outer(k, k) / (m + 1))
    return S, (2 - 2 * np.cos(math.pi * k / (m + 1))) / h ** 2


def _box_axes(grid: RadialGrid, half: bool, turn: bool, real=np.float64) -> tuple:
    """(groups, rest): the 1-D descriptions of the box's axes, each
    (forward, inverse, mu): the matrix that takes values to the
    coefficients of an eigenbasis of the axis's second difference, the
    matrix that takes them back, both cast to the float type real, and the
    eigenvalues; the node count is len(mu).  rest describes axes 1..n-1,
    and groups axis 0, one basis for each group of the columns of the
    rows of axis 0 (their nodes in C order), which split the columns into
    equal shares.  Every basis is orthonormal, so each matrix's transpose
    is the other one of its pair.

    On the whole box every axis is (S, S, mu) of _dirichlet_eigenpairs,
    in one group.  The half box's last axis takes the sine modes even
    about the box's middle, the odd k, restricted to the upper half,
    X = sqrt(2) S[m/2:, ::2] (formed in float64), with eigenvalues
    mu[::2]: (X^T, X, mu[::2]).  The half-turn box keeps the modes even
    under the half turn, whose parities along axes 0 and 1 agree: axis 1
    takes S with its even modes (S[:, ::2]) ahead of its odd ones, so
    that the columns of either parity are one half of them, and axis 0
    takes X = sqrt(2) S[m/2:, ::2] for the even half and
    sqrt(2) S[m/2:, 1::2] for the odd one, with mu[::2] and mu[1::2]."""
    S, mu = _dirichlet_eigenpairs(grid.m, grid.h)
    mid = grid.m // 2

    def axis(X, mu):
        return np.ascontiguousarray(X.T, real), X.astype(real, copy=False), mu

    whole = (S.astype(real, copy=False),) * 2 + (mu,)
    groups, rest = [whole], [whole] * (grid.n - 1)
    if half:
        rest[-1] = axis(math.sqrt(2.0) * S[mid:, ::2], mu[::2])
    if turn:
        order = np.r_[0:grid.m:2, 1:grid.m:2]
        rest[0] = axis(S[:, order], mu[order])
        groups = [axis(math.sqrt(2.0) * S[mid:, p::2], mu[p::2]) for p in (0, 1)]
    return groups, rest


def _sine_rest(x: np.ndarray, bufs, axes, inverse: bool, out=None) -> np.ndarray:
    """Apply the forward matrices of axes (the inverse ones with inverse)
    along the grid axes 1..n-1 of x, a slab's rows of axis 0 with their
    real and imaginary parts apart, shape (rows, 2, m_1, ..., m_n-1), axes
    holding the descriptions of _box_axes for axes 1..n-1: one matrix
    product per axis, written into the two buffers of x's shape in bufs in
    turn and the last into out when given.  Along the last axis the
    product is taken from the right, by the transpose of the matrix, which
    is the other matrix of its pair.  Returns the array holding the
    result."""
    n = x.ndim - 1
    shape = x.shape[2:]
    for k in range(1, n):
        forward, back, _ = axes[k - 1]
        y = out if k == n - 1 and out is not None else bufs[(k - 1) % 2]
        if k == n - 1:
            right = forward if inverse else back
            np.matmul(x.reshape(-1, shape[-1]), right, out=y.reshape(-1, shape[-1]))
        else:
            batch = (-1, shape[k - 1], math.prod(shape[k:]))
            np.matmul(back if inverse else forward, x.reshape(batch), out=y.reshape(batch))
        x = y
    return x


@dataclass
class ResolventProblem:
    """-Hu + (lambda + i eps)u = f on disc's grid, as solve takes it: a
    plain record, which solve checks."""

    disc: Discretization
    lam: float
    eps: float
    f: ScalarField

    @property
    def grid(self) -> RadialGrid:
        return self.f.grid


def _reaches_boundary(f: ScalarField) -> bool:
    """Whether the datum's maximum on the nodes with |x_k| > L - 2h for
    some k, the two outer index layers at each end of every axis, exceeds
    1e-10 of its maximum; read one row of axis 0 at a time."""
    grid = f.grid
    layers = [0, 1, grid.m - 2, grid.m - 1]
    fmax = edge = 0.0
    mod = np.empty((1,) + grid.shape[1:])
    for i, _, r in _field_rows(f):
        a = np.abs(r, out=mod)
        fmax = max(fmax, a.max())
        outer = [a] if i in layers else [np.take(a, layers, axis=k)
                                         for k in range(1, grid.n)]
        edge = max(edge, *(o.max() for o in outer))
    return fmax > 0 and edge > 1e-10 * fmax


DATUM_BUILTINS = {
    "gaussian": {"amplitude": 1.0, "width": 1.0, "center": 0.0},
    "shell": {"amplitude": 1.0, "radius": 2.0, "width": 0.5},
    "point": {"amplitude": 1.0, "center": 0.0, "width": None},
    "wave": {"amplitude": 1.0, "width": 1.0, "center": 0.0, "k": 2.5},
}


def make_datum(grid: RadialGrid, spec) -> ScalarField:
    """The datum of a run on grid, from spec: a ScalarField on grid, taken
    as it is (one on another grid raises ParameterError), or a built-in
    (see _builtin_datum).  Either way it is scanned once for support near
    the box boundary (see _reaches_boundary), with a warning when it has
    any, however many eps a run solves it at."""
    if isinstance(spec, ScalarField):
        check_same_grid(spec.grid, grid)
        f = spec
    else:
        f = _builtin_datum(grid, spec)
    if _reaches_boundary(f):
        warnings.warn("datum is not supported at distance >= 2h from the box "
                      "boundary; Dirichlet truncation error is uncontrolled", stacklevel=2)
    return f


def _builtin_datum(grid: RadialGrid, spec) -> ScalarField:
    """Built-in data: gaussian / shell bump / point-like bump / wave
    packet, named as resolve_builtin takes them, with DATUM_BUILTINS'
    defaults.  The gaussian, point and wave data are separable: each is
    the outer product of 1-D factors, axis 0's in complex128, and the
    field keeps only those factors (see ScalarField: the free
    preconditioner transforms them, and every other reader takes the
    field's rows from them).  The shell keeps its values.  A width that
    is not positive, or a center that is a list of other than 1 or n
    coordinates, raises ParameterError; the point's default width, None,
    is 2h."""
    name, params = resolve_builtin(spec, DATUM_BUILTINS, "datum")
    amp = float(params["amplitude"])
    width = 2 * grid.h if params["width"] is None else float(params["width"])
    if not width > 0:
        raise ParameterError(f"parameter width of datum '{name}' must be "
                             f"positive, got {params['width']!r}")
    if name != "shell":
        if np.size(params["center"]) not in (1, grid.n):
            raise ParameterError(f"parameter center of datum '{name}' must have "
                                 f"1 or {grid.n} coordinates, got {params['center']!r}")
        center = np.broadcast_to(np.asarray(params["center"], float), (grid.n,))
        c = grid.coords_1d
        factors = [np.exp(-(c - ck) ** 2 / (width * width)) for ck in center]
        # the amplitude goes on axis 0's factor as a complex number, so the
        # outer product comes out complex128
        factors[0] = factors[0] * complex(amp)
        if name == "wave":
            # modulation shifts the spectral content to |k|^2 + O(1/width^2)
            factors[0] *= np.exp(1j * float(params["k"]) * c)
        return ScalarField(grid, factors=factors)
    r = grid.radii
    return ScalarField(grid, amp * np.exp(-((r - float(params["radius"])) / width) ** 2))


def build_problem(pp: PotentialPair, lam: float, eps: float, f_spec,
                  grid: RadialGrid) -> ResolventProblem:
    """The problem of pp on grid (sampled once, see Discretization) for
    the datum make_datum(grid, f_spec); lam and eps are solve's to check."""
    return ResolventProblem(Discretization(grid, pp), float(lam), float(eps),
                            make_datum(grid, f_spec))


def check_datum(f: ScalarField) -> None:
    """Raise ParameterError when the norm of the datum f, summed from the
    squares of its rows as solve sums it (see _row_norm), is below
    2^-SCALE_RANGE.  solve takes such a datum scaled, but the estimate and
    the identity square the solution as it is, so their reports would
    read 0 on both sides, a check that cannot fail."""
    norm = _row_norm(_field_rows(f))
    if norm < 2.0 ** -SCALE_RANGE:
        raise ParameterError(f"the datum's norm {norm!r} is below 2^-{SCALE_RANGE}: "
                             f"the squares of its solution underflow")


def scale_exponent(f: ScalarField) -> int:
    """The k of the power of two 2^k that brings the largest real or
    imaginary part of f into [1/2, 1) when that part is positive and below
    2^-SCALE_RANGE, else 0.  k is at most 1023, for 2^1023, the largest
    power of two a float holds, takes even a subnormal part above
    2^-SCALE_RANGE.  The parts are read one row of axis 0 at a time."""
    top = max(np.abs(r.view(np.float64)).max() for _, _, r in _field_rows(f))
    return min(-math.frexp(top)[1], 1023) if 0 < top < 2.0 ** -SCALE_RANGE else 0


def solve(prob: ResolventProblem, tol: float = 1e-10) -> ScalarField:
    """Solve -Hu + (lambda + i eps)u = f to relative apply-residual <= tol.

    GMRES(RESTART) on (H - lambda - i eps)(-u) = f, right preconditioned
    by the exact inverse of the free shifted operator, for at most MAXITER
    Krylov iterations, with complex64 cycles refining a complex128 iterate
    (see _gmres).  It starts from that inverse applied to f, which solves
    the free problem (A = V = 0) outright, and checks the true residual
    before each restart cycle, the first included, so a free solve costs
    one preconditioner and one operator application.  u.residual is the
    true relative residual (0 for f = 0), u.iterations the number of
    Arnoldi steps and u.cycles the number of restart cycles.  Solving for
    -u reads f in place instead of a negated copy; negation is exact, so u
    is the same as from the system with right-hand side -f.  ||f|| is
    summed from the squares of f's rows (see _row_norm).  A datum whose
    norm is below 2^-SCALE_RANGE is zero (u = 0) or solved scaled by
    2^k, k = scale_exponent(f), and u is scaled back by 2^-k; any other
    datum is solved as it is.  A tol that is not finite and positive, a
    datum and a discretization on different grids, and a lambda or eps
    that DiscreteOperator refuses raise ParameterError before the solve,
    the zero datum included (a tiny datum does not: check_datum is the
    estimate's and the identity's); nonconvergence, a non-finite residual
    included, raises SolverError (with the achieved residual).  The
    problem's one complex128 operator is built here.

    A problem even in the last axis, or under the half turn about it, is
    solved on a box that holds a half of the grid's nodes for each of the
    two (see _box): the half box, the last axis's upper half, the
    half-turn box, axis 0's upper half, or both, and u is unfolded onto
    the grid (_unfold).  f's norm and the residual are then the box's,
    whose ratio is the whole grid's: each map pairs the nodes and keeps an
    even field's values, so its squared norm is twice its half's.
    """
    check_resolvent_parameters(tol=tol)
    grid, f = prob.grid, prob.f
    check_same_grid(grid, prob.disc.grid)
    half, turn = _box(prob)
    op = DiscreteOperator(prob.disc, prob.lam, prob.eps, half=half, turn=turn)
    bnorm, k = _row_norm(_field_rows(f, half, turn)), 0
    if bnorm < 2.0 ** -SCALE_RANGE:
        # f's largest part is at most its norm, so k is 0 only for f = 0
        k = scale_exponent(f)
        if k == 0:
            u = ScalarField.zeros(grid)
            u.residual, u.iterations, u.cycles = 0.0, 0, 0
            return u
        f = f.scaled(2.0 ** k)
        bnorm = _row_norm(_field_rows(f, half, turn))
    x, res, its, cycles = _gmres(op, f, bnorm, tol)
    if not res <= tol:
        raise SolverError(
            f"resolvent solve did not reach relative residual {tol}",
            achieved_residual=res)
    x *= -(2.0 ** -k)
    if half or turn:
        x = _unfold(x, grid, half, turn)
    u = ScalarField(grid, x.reshape(grid.shape))
    u.residual, u.iterations, u.cycles = res, its, cycles
    return u


def _box(prob: ResolventProblem) -> tuple:
    """(half, turn): whether solve takes prob on the half box, the problem
    being even in the last axis to the bit, and on the half-turn box, the
    problem being even under the half turn (x_0, x_1) -> (-x_0, -x_1)
    about the last axis.  Its solution then has the same symmetries, and
    the box holds all of it.  The datum is checked first, as it costs
    least (see _image_equal: a field with factors compares the factors of
    the axes the map reverses with their mirror images), and the pair
    only when the datum passes (Discretization.even, which keeps its
    answer)."""
    f, disc, n = prob.f, prob.disc, prob.grid.n

    def even(axes):
        if f.factors is not None:
            return all(np.array_equal(f.factors[k], f.factors[k][::-1]) for k in axes)
        return _image_equal(f.values, axes)

    return even((n - 1,)) and disc.even(), even((0, 1)) and disc.even(turn=True)


def _unfold(x: np.ndarray, grid: RadialGrid, half: bool, turn: bool) -> np.ndarray:
    """The grid's values of a solution x on a box of DiscreteOperator, the
    head of the buffer of the whole grid's size that the start allocated
    (see DiscreteOperator.preconditioner), unfolded in place in that
    buffer, flat.  With half first each line along the last axis, m/2
    values at its index i in x, becomes its mirror image followed by
    itself at i m.  The lines i in [a, b), b <= 2a, read the buffer's
    values [a m/2, b m/2) and write [a m, b m), which lie apart, so the
    blocks [ceil(b/2), b) move from the end down to line 1 with no copy,
    and line 0 writes its upper half and then its mirror from that.  With
    turn then the rows of axis 0, the buffer's first half, move to its
    second half, rows m/2..m-1, and each row i < m/2 becomes row m-1-i
    reversed along axis 1, its image under the half turn."""
    buf = x.base
    if buf is None or buf.size != grid.size:
        raise ValueError("a box's solution is unfolded in the buffer its start allocated")
    buf = buf.reshape(-1)
    m, mid = grid.m, grid.m // 2
    if half:
        b = x.size // mid
        while b > 1:
            a = (b + 1) // 2
            src = buf[a * mid:b * mid].reshape(-1, mid)
            dst = buf[a * m:b * m].reshape(-1, m)
            dst[:, mid:] = src
            dst[:, :mid] = src[:, ::-1]
            b = a
        buf[mid:m] = buf[:mid]
        buf[:mid] = buf[mid:m][::-1]
    if turn:
        rows = buf.reshape(grid.shape)
        rows[mid:] = rows[:mid]
        rows[:mid] = rows[mid:][::-1, ::-1]
    return buf


def _row_norm(slabs) -> float:
    """The 2-norm of the complex rows of axis 0 that slabs yields as
    (s, e, a), a holding the rows s:e: the square root of the sum of the
    squares of each row (its real and imaginary parts interleaved), so
    it does not depend on the slab size."""
    return math.sqrt(np.sum([row @ row for s, e, a in slabs
                             for row in a.view(np.finfo(a.dtype).dtype).reshape(e - s, -1)]))


def _gmres(op, f, bnorm, tol):
    """Right-preconditioned GMRES(RESTART) for op.apply(x) = b, b the
    samples of the field f and bnorm its norm, summed from the squares of
    its rows as the residual norm is (see _row_norm), from x0 = minv(f)
    (Saad & Schultz 1986), with minv = op.preconditioner(), stopping once
    ||b - op.apply(x)|| <= tol ||b||, after MAXITER iterations or at the
    first non-finite residual norm (a cycle whose Givens estimate is not
    finite ends at once, and the next cycle head returns).  Returns x (of
    the operator's box shape), its relative residual, the number of
    Arnoldi steps and the number of cycles.

    Every cycle, the first included, begins with the norm of the
    complex128 true residual r = b - Ax, op.apply(x, f), which sums the
    squares of r slab by slab, and the convergence test, so an exact minv
    returns x0 after one minv and one apply and builds nothing besides x.
    minv is called once, for x0, and its scratch is dropped with it: a
    cycle head holds only the basis, the twin and its preconditioner and
    x (and b when f has no factors: every sweep reads b a row at a time,
    see _field_rows).  Otherwise a second sweep of the stencil (not an
    application of the operator: it forms the same r again) writes
    r / ||r|| into the first basis vector slab by slab, the arithmetic of
    a multiplication of the whole r, and Arnoldi runs from it on
    v -> apply(minv(v)) of the complex64 twin of op, with classical
    Gram-Schmidt done twice (Giraud, Langou & Rozloznik 2005) over a
    complex64 basis and Givens rotations tracking the residual in
    complex128, until the estimate
    falls to max(tol ||b|| / 1.5, CYCLE_REDUCTION ||r||).  Each basis
    vector is scaled by the reciprocal of its norm, a real multiplication
    (numpy divides a complex array by a real through complex division).
    The cycle ends by adding the complex64 minv(V y), scaled by ||r|| in
    complex128 slab by slab, to x: GMRES-based iterative refinement
    (Carson & Higham 2018).  The twin and the basis are built at the
    first cycle.
    """
    shape = op.shape
    x, its, cycles = op.preconditioner()(f).reshape(shape), 0, 0
    while True:
        rnorm = op.apply(x, f)
        if not math.isfinite(rnorm) or rnorm <= tol * bnorm or its >= MAXITER:
            return x, rnorm / bnorm, its, cycles
        if not cycles:
            low = DiscreteOperator(op.disc, op.lam, op.eps, np.complex64, op.half, op.turn)
            minv32 = low.preconditioner()
            V = np.empty((RESTART + 1, op.size), np.complex64)
        cycles += 1
        # aim a third below tol, so that the next head's complex128
        # residual, not a cycle of one or two more steps, ends the solve
        cut = max(tol * bnorm / (1.5 * rnorm), CYCLE_REDUCTION)
        H = np.zeros((RESTART + 1, RESTART), complex)
        cs, sn = np.zeros(RESTART), np.zeros(RESTART, complex)
        g = np.zeros(RESTART + 1, complex)
        g[0] = 1.0
        # the residual again, slab by slab, scaled into the first basis row
        V0 = V[0].reshape(shape)
        for s, e, r in op._residuals(x, f):
            np.multiply(r, 1 / rnorm, out=V0[s:e])
        del r  # the sweep's slab buffer, alive through the cycle otherwise
        for j in range(min(RESTART, MAXITER - its)):
            its += 1
            w = low.apply(minv32(V[j])).ravel()
            for _ in range(2):
                c = np.conj(V[:j + 1] @ np.conj(w))
                w -= V[:j + 1].T @ c
                H[:j + 1, j] += c
            hnext = float(np.linalg.norm(w))
            for i in range(j):
                H[i, j], H[i + 1, j] = (cs[i] * H[i, j] + sn[i] * H[i + 1, j],
                                        cs[i] * H[i + 1, j] - np.conj(sn[i]) * H[i, j])
            a = H[j, j]
            d = math.hypot(abs(a), hnext)
            phase = a / abs(a) if a != 0 else 1.0
            cs[j], sn[j] = abs(a) / d, phase * hnext / d
            H[j, j] = phase * d
            g[j + 1] = -np.conj(sn[j]) * g[j]
            g[j] *= cs[j]
            if not abs(g[j + 1]) > cut:  # converged, or non-finite
                break
            np.multiply(w, 1 / hnext, out=V[j + 1])
        k = j + 1
        # a complex128 y would make numpy upcast a copy of the whole basis
        y = np.linalg.solve(H[:k, :k], g[:k]).astype(np.complex64)
        # the cycle solved for r / ||r||, so its complex64 correction is of
        # unit size whatever the scale of f; it is rescaled in complex128,
        # slab by slab
        z = minv32(V[:k].T @ y).reshape(shape)
        for s, e in _slabs(shape, 16):
            x[s:e] += np.multiply(rnorm, z[s:e], dtype=complex)
        del z  # alive through the next cycle otherwise


def covariant_gradient(u: ScalarField, disc: Discretization, k: int,
                       out: np.ndarray | None = None,
                       rows: tuple | None = None) -> np.ndarray:
    """Component k of the centered covariant gradient with the operator's
    link phases, (U_k(x) u(x+h e_k) - conj(U_k(x-h e_k)) u(x-h e_k))/2h
    (no product along an axis whose phases are None, see link_phases),
    on the rows s:e = rows of axis 0 (all rows when None), written into
    out (a C-contiguous complex array of shape (e - s, m, ..., m)) when
    given; Dirichlet zero is assumed outside the box.  The hops are the
    stencil's (see _hops): along axis 0 the rows read u one row past each
    end of the range that lies inside the box.  out is filled with zeros,
    the up hop added and the down hop subtracted by _add_hop, the
    stencil's hop adder, and out scaled by the real 1/2h (no complex
    division), so a row's value does not depend on the range."""
    grid = u.grid
    check_same_grid(grid, disc.grid)
    s, e = (0, grid.m) if rows is None else rows
    if out is None:
        out = np.empty((e - s,) + grid.shape[1:], complex)
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    tmp = None if disc.phases[k] is None else np.empty_like(out)
    up, down = _hops(disc.phases[k], u.values, k, s, e)
    out[...] = 0
    _add_hop(out, up, tmp, False)
    _add_hop(out, down, tmp, True, -1)
    out *= 1 / (2 * grid.h)
    return out


@dataclass
class Slab:
    """The rows of axis 0 that radial_sweep passes to its densities: u's
    values there and |u|^2, |g|^2 and the radial component g_r = g . x/|x|
    of the covariant gradient g of u, and B_tau . conj(g) when the sweep
    samples the trapping component (None otherwise)."""

    rows: slice
    u: np.ndarray
    u2: np.ndarray
    g2: np.ndarray
    g_r: np.ndarray
    bg: np.ndarray | None

    def of(self, a: np.ndarray) -> np.ndarray:
        """The slab's rows of a node array, or a itself when it is 0-d."""
        return a if np.ndim(a) == 0 else a[self.rows]


def radial_sweep(u: ScalarField, disc: Discretization, densities: Callable,
                 trapping: bool = False) -> np.ndarray:
    """Per-bin sums times h^n (as RadialGrid.bin_sums gives them) of the
    real node densities that densities(slab) yields for each Slab, in one
    sweep over slabs of axis 0 whose whole working set is about
    SLAB_BYTES: an array of shape (number of densities, grid.n_bins).
    Each density is binned as it comes, so a generator holds one at a
    time.

    Per slab, the gradient components come from covariant_gradient on the
    slab's rows, one reused buffer at a time, and are summed into |g|^2
    and x . g, which is divided by the node radii; with trapping, B_tau
    is sampled on the slab's nodes (fields.trapping_component) and
    B_tau . conj(g) summed too.  Each slab's densities are binned with
    its own index (RadialGrid.slab_bins), so nothing grid-sized is formed
    and a node's values do not depend on the slab size; only the order of
    the bin sums does."""
    grid = u.grid
    check_same_grid(grid, disc.grid)
    n, c = grid.n, grid.coords_1d
    slabs = _slabs(grid.shape, _WORK_NODE_BYTES)
    shape = (slabs[0][1],) + grid.shape[1:]
    buf, g_r, bg = np.empty((3,) + shape, complex)
    g2, sq = np.empty((2,) + shape)
    sums = []
    for s, e in slabs:
        rows = e - s
        g2s, g_rs, bgs = g2[:rows], g_r[:rows], bg[:rows] if trapping else None
        g2s[...] = 0
        g_rs[...] = 0
        if trapping:
            bgs[...] = 0
            btau = trapping_component(disc.pp, _slab_points(grid, s, e))
        for k in range(n):
            gk = covariant_gradient(u, disc, k, out=buf[:rows], rows=(s, e))
            for part in (gk.real, gk.imag):
                g2s += np.square(part, out=sq[:rows])
            if trapping:
                bgs += btau[..., k] * np.conj(gk)
            gk *= (c[s:e] if k == 0 else c).reshape((-1,) + (1,) * (n - 1 - k))
            g_rs += gk
        bins = grid.slab_bins(s, e)
        r = grid.bin_radii[bins].reshape(g2s.shape)
        for part in (g_rs.real, g_rs.imag):
            part /= r
        us = u.values[s:e]
        u2 = np.abs(us)
        u2 *= u2
        slab = Slab(slice(s, e), us, u2, g2s, g_rs, bgs)
        for j, d in enumerate(densities(slab)):
            if j == len(sums):
                sums.append(np.zeros(grid.n_bins))
            sums[j] += np.bincount(bins, weights=np.ravel(d), minlength=grid.n_bins)
    return np.array(sums) * grid.cell_volume
