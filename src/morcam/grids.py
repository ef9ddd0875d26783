"""Cell-centered grids on a truncated box and complex fields living on them.

Grid nodes are cell centers offset by h/2 in every coordinate, so no node
sits at the origin and weights like 1/|x|, 1/|x|^2, 1/|x|^3 stay finite.
Radial reductions are sums over exact radial bins.  A grid caches no
grid-sized array: the node points and radii are built on access, and
the bin index of a slab of rows of axis 0 is formed from 1-D tables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError

__all__ = ["RadialGrid", "ScalarField", "point_array", "check_same_grid", "save_field",
           "load_field"]


class GridError(ParameterError):
    """A grid's n, L or h, or a field snapshot, is malformed."""


def point_array(axes) -> np.ndarray:
    """The points whose k-th coordinates run over the 1-D array axes[k],
    in outer-product (ij) order: shape (len(axes[0]), ..., len(axes[-1]),
    len(axes))."""
    n = len(axes)
    out = np.empty(tuple(len(a) for a in axes) + (n,))
    for k, a in enumerate(axes):
        out[..., k] = np.reshape(a, (-1,) + (1,) * (n - 1 - k))
    return out


@dataclass(frozen=True)
class RadialGrid:
    """Uniform cell-centered grid on [-L, L]^n with spacing h.

    1-D node coordinates are -L + (i + 1/2)h for i = 0..m-1 with m = 2L/h;
    L/h must be a positive integer, (n L^2)^2 and h^n positive normal
    floats (h^n only on a grid of fewer than 2^63 nodes: a larger one
    cannot be sampled, and the memory checks of whatever would sample it
    refuse it first).  A solve's bound on 4n/h^2 is Discretization's.
    Radial bins collect the nodes of one radius (see slab_bins); radial
    shells are bins of thickness h in |x|, shell k collecting nodes with
    k*h <= |x| < (k+1)*h.
    """

    n: int
    L: float
    h: float

    def __post_init__(self):
        if self.n < 1:
            raise GridError(f"dimension must be >= 1, got {self.n}")
        if not all(math.isfinite(v) and v > 0 for v in (self.L, self.h)):
            raise GridError(
                f"L and h must be finite and positive, got L={self.L}, h={self.h}")
        ratio = self.L / self.h
        if not (0.5 < ratio < math.inf and abs(ratio - round(ratio)) <= 1e-9):
            raise GridError(f"L/h must be a positive integer, got {ratio}")
        # n L^2 bounds |x|^2 (and its square the fields' |x|^4) and h^n is
        # the cell volume, taken in log2 so that the check cannot overflow;
        # h^n is judged only on a grid of fewer than 2^63 nodes, as no
        # larger one can be sampled
        cell = self.n * math.log2(self.h) if self.n * math.log2(self.m) < 63 else 0.0
        for key, lg in (("L", 2 * (math.log2(self.n) + 2 * math.log2(self.L))), ("h", cell)):
            # the log2 of a positive normal float
            if not -1022 < lg < 1024:
                raise GridError(f"{key}={getattr(self, key)!r} is outside the float range: "
                                f"(n L^2)^2 and h^n must be positive normal floats (n={self.n})")

    @property
    def m(self) -> int:
        """Nodes per axis."""
        return 2 * int(round(self.L / self.h))

    @property
    def shape(self) -> tuple:
        return (self.m,) * self.n

    @property
    def size(self) -> int:
        return self.m ** self.n

    @property
    def cell_volume(self) -> float:
        return self.h ** self.n

    @cached_property
    def coords_1d(self) -> np.ndarray:
        i = np.arange(self.m)
        return -self.L + (i + 0.5) * self.h

    @property
    def points(self) -> np.ndarray:
        """Node coordinates, shape (*grid.shape, n), built on each access:
        the grid keeps no (*shape, n) array, so a caller that drops the
        points frees them."""
        return point_array([self.coords_1d] * self.n)

    # --- exact radial index -------------------------------------------------
    # With s_k = 2 i_k + 1 - m (odd), 4|x|^2/h^2 = q = sum_k s_k^2 and every
    # s_k^2 = 1 (mod 8), so b = (q - n)/8 is an integer: nodes share a bin
    # exactly when they share a radius, and every radial reduction is a sum
    # over bins.  The bin of a node is t[i_0] + ... + t[i_{n-1}] with
    # t = (s^2 - 1)/8, so the grid keeps t and the sums over the axes other
    # than axis 0 (grid.size/m values), and no grid-sized index.

    @cached_property
    def _odd_bins(self) -> np.ndarray:
        s = np.arange(1 - self.m, self.m, 2)
        return (s * s - 1) // 8

    @cached_property
    def _row_bins(self) -> np.ndarray:
        t = self._odd_bins
        return functools.reduce(np.add.outer, [t] * (self.n - 1), np.zeros((), np.intp))

    def slab_bins(self, s: int, e: int) -> np.ndarray:
        """Radial bin b = sum_k (s_k^2 - 1)/8 of each node in the rows s:e
        of axis 0, flat, as intp (the index type np.bincount reads
        without a converted copy)."""
        return np.add.outer(self._odd_bins[s:e], self._row_bins).ravel()

    @property
    def n_bins(self) -> int:
        return self.n * ((self.m - 1) ** 2 - 1) // 8 + 1

    @cached_property
    def bin_radii(self) -> np.ndarray:
        """|x| of the nodes in each bin, (h/2) sqrt(8b + n).  Some bins hold
        no node; their sums are zero."""
        return self.h / 2 * np.sqrt(8.0 * np.arange(self.n_bins) + self.n)

    @property
    def radii(self) -> np.ndarray:
        """|x| at the nodes, shape grid.shape: the bin radii gathered,
        built on each access like points."""
        return self.bin_radii[self.slab_bins(0, self.m)].reshape(self.shape)

    @cached_property
    def bin_shells(self) -> np.ndarray:
        """Shell floor(|x|/h) = floor(sqrt(8b + n)/2) of each bin (exact:
        a correctly rounded sqrt keeps floor(sqrt q) for q < 2^51)."""
        return np.sqrt(8.0 * np.arange(self.n_bins) + self.n).astype(np.intp) // 2

    @property
    def n_shells(self) -> int:
        """Shells up to the corner node's, 4|x|^2/h^2 = n (m - 1)^2, with
        no per-bin array formed: a grid too large to sample has one too."""
        return math.isqrt(self.n * (self.m - 1) ** 2) // 2 + 1

    @cached_property
    def shell_radii(self) -> np.ndarray:
        """Representative radius (k + 1/2)h of each shell."""
        return (np.arange(self.n_shells) + 0.5) * self.h

    def integrate(self, values: np.ndarray) -> complex | float:
        return values.sum() * self.cell_volume

    def bin_sums(self, values) -> np.ndarray:
        """Sum of real node values * h^n per radial bin, binned one row of
        axis 0 at a time (see slab_bins).  values is an array of the
        grid's shape or a callable that gives the values of the rows s:e
        of axis 0 as rows(s, e), called for one row at a time."""
        if not callable(values):
            a = np.asarray(values, float).reshape(self.shape)
            values = lambda s, e: a[s:e]
        sums = np.zeros(self.n_bins)
        for i in range(self.m):
            sums += np.bincount(self.slab_bins(i, i + 1), weights=np.ravel(values(i, i + 1)),
                                minlength=self.n_bins)
        return sums * self.cell_volume

    def shell_sums(self, sums: np.ndarray) -> np.ndarray:
        """Per-shell totals of per-bin sums (bin_sums)."""
        return np.bincount(self.bin_shells, weights=sums, minlength=self.n_shells)

    def surface_integral(self, sums: np.ndarray, R: float) -> float:
        """Approximate integral over the sphere |x| = R by a shell-volume
        average over R - h/2 <= |x| < R + h/2, from per-bin sums
        (bin_sums)."""
        r = self.bin_radii
        return float(sums[(r >= R - self.h / 2) & (r < R + self.h / 2)].sum() / self.h)

    @property
    def central(self) -> slice:
        """The indexes of the central two nodes of an axis: along every
        axis they give the 2^n nodes nearest the origin."""
        return slice(self.m // 2 - 1, self.m // 2 + 1)

    def interpolate_origin(self, values: np.ndarray) -> complex:
        """Multilinear interpolation to x = 0 (plain average of the 2^n
        symmetric nearest nodes, the central two of every axis)."""
        return complex(values[(self.central,) * self.n].ravel().mean())


def check_same_grid(a: RadialGrid, b: RadialGrid) -> None:
    """Raise ParameterError unless a and b are the same grid: the one check
    of every reader that takes two arguments on grids."""
    if a != b:
        raise ParameterError(f"arguments on different grids: {a} and {b}")


class ScalarField:
    """Complex scalar samples attached to a RadialGrid, held one of two
    ways: as values, a complex128 array of the grid's shape, or as
    factors, n 1-D arrays (one per axis) whose outer product the samples
    are.  A field with factors keeps no grid-sized array; its factors
    must not be changed in place.

    rows(s, e) reads the rows s:e of axis 0 either way, and every reader
    that sweeps slabs of axis 0 reads through it.  values is the whole
    array: for a field with factors it is formed on each access, so only
    the readers that need the whole array at once form it, for their call
    only (the dense start of a solve that is not free, save_field,
    duality_gap and l2_norm_sq).
    """

    def __init__(self, grid: RadialGrid, values=None, *, factors=None):
        self.grid = grid
        if (values is None) == (factors is None):
            raise GridError("a field takes values or factors, exactly one of them")
        self.factors = None
        if factors is not None:
            # axis 0's factor in complex128, so that the products are too
            factors = (np.asarray(factors[0], np.complex128),) \
                + tuple(np.asarray(f) for f in factors[1:])
            if [f.shape for f in factors] != [(grid.m,)] * grid.n:
                raise GridError(f"a field on grid {grid.shape} takes {grid.n} "
                                f"factors of {grid.m} values")
            # finite factors whose largest moduli have a finite product
            # give finite products
            if not all(np.isfinite(f).all() for f in factors) or not math.isfinite(
                    math.prod(float(np.abs(f).max()) for f in factors)):
                raise GridError("field values must be finite")
            self.factors, self._values = factors, None
            return
        values = np.ascontiguousarray(values, dtype=np.complex128)
        if values.shape != grid.shape:
            if values.size != grid.size:
                raise GridError(
                    f"value shape {values.shape} does not match grid {grid.shape}")
            values = values.reshape(grid.shape)
        if not np.all(np.isfinite(values)):
            raise GridError("field values must be finite")
        self._values = values

    @property
    def values(self) -> np.ndarray:
        """All samples, shape grid.shape; formed anew on each access when
        the field has factors."""
        return self._values if self.factors is None else self.rows(0, self.grid.m)

    def rows(self, s: int, e: int, out: np.ndarray | None = None) -> np.ndarray:
        """The samples on the rows s:e of axis 0: a view of values, or the
        outer product of the rows s:e of axis 0's factor with the other
        factors, taken in axis order, so that every row has the bits of
        the whole outer product's.  A field with factors writes the
        product into out when given (complex128, of the rows' shape), so
        that a sweep reuses one slab buffer instead of allocating one per
        slab; a field with values leaves out alone."""
        if self.factors is None:
            return self._values[s:e]
        head, *rest = self.factors
        part = functools.reduce(np.multiply.outer, rest[:-1], head[s:e])
        return np.multiply.outer(part, rest[-1], out=out) if rest else part

    @classmethod
    def from_callable(cls, grid: RadialGrid, fn) -> "ScalarField":
        return cls(grid, np.asarray(fn(grid.points), dtype=np.complex128))

    @classmethod
    def zeros(cls, grid: RadialGrid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape, dtype=np.complex128))

    def abs2(self, s: int = 0, e: int | None = None,
             out: np.ndarray | None = None) -> np.ndarray:
        """|samples|^2 on the rows s:e of axis 0 (all rows by default), the
        rows read through rows(s, e, out)."""
        a = np.abs(self.rows(s, self.grid.m if e is None else e, out))
        a *= a
        return a

    def scaled(self, c: float) -> "ScalarField":
        """The field times c, held as this one is: with factors, axis 0's
        factor times c; otherwise a copy of the values times c."""
        if self.factors is None:
            return ScalarField(self.grid, c * self._values)
        return ScalarField(self.grid, factors=(c * self.factors[0],) + self.factors[1:])

    def l2_norm_sq(self) -> float:
        return float(self.grid.integrate(self.abs2()))


_MAGIC = b"MORCAMF1"


def save_field(f: ScalarField, path) -> None:
    """Binary snapshot: magic, header (n, L, h), then raw complex128 values.

    Round-trips bit-exactly (IEEE doubles are written verbatim,
    little-endian).
    """
    g = f.grid
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        np.array([g.n], dtype="<i8").tofile(fh)
        np.array([g.L, g.h], dtype="<f8").tofile(fh)
        f.values.astype("<c16").tofile(fh)


def load_field(path) -> ScalarField:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise GridError(f"not a field snapshot: {path}")
        n = int(np.fromfile(fh, dtype="<i8", count=1)[0])
        L, h = np.fromfile(fh, dtype="<f8", count=2)
        grid = RadialGrid(n, float(L), float(h))
        vals = np.fromfile(fh, dtype="<c16", count=grid.size)
    if vals.size != grid.size:
        raise GridError("truncated field snapshot")
    return ScalarField(grid, vals.reshape(grid.shape))
