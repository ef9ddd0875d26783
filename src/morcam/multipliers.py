"""Scaled radial multiplier families and the symmetric radial weight.

The multiplier phi_R is piecewise smooth with an explicit first and
second radial derivative and Laplacian; its bilaplacian is a genuine
distribution, stored as a smooth two-piece density plus point/surface
atoms.  Atoms are kept as first-class data (location + mass or surface
density) and are never smeared onto a grid here; pairing them with
fields is the verifier's job.

Note on the origin atom in three dimensions: the inner Laplacian is
1/R + 2M/r, whose distributional Laplacian carries the point mass
-8*pi*M at the origin (Delta(1/r) = -4*pi*delta in 3D); the
distributional-consistency tests pin this value down numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ParameterError

__all__ = ["Multiplier", "SymmetricWeight", "make_phi", "make_varphi",
           "check_estimate_parameters"]


@dataclass(frozen=True)
class SphereAtom:
    """Surface-delta component: density * delta_{|x| = radius}."""

    radius: float
    density: float

    def pair_radial(self, psi_at_radius: float, n: int) -> float:
        """Pairing with a radial test function: density * area(S_R) * psi(R)."""
        return self.density * sphere_area(n, self.radius) * psi_at_radius


@dataclass(frozen=True)
class PointAtom:
    """Point mass at the origin: mass * delta_0."""

    mass: float


def sphere_area(n: int, R: float) -> float:
    """Surface area of the sphere |x| = R in R^n."""
    return 2 * math.pi ** (n / 2) / math.gamma(n / 2) * R ** (n - 1)


@dataclass(frozen=True)
class Multiplier:
    """Radial multiplier: phi', phi'', Delta phi as functions of r, plus
    the smooth part and atoms of the distributional bilaplacian."""

    n: int
    R: float
    M: float
    dphi: Callable = field(repr=False)          # phi'(r)
    d2phi: Callable = field(repr=False)         # phi''(r)
    lap_phi: Callable = field(repr=False)       # Delta phi (r)
    bilap_smooth: Callable = field(repr=False)  # smooth density of Delta^2 phi
    origin_atom: PointAtom | None = None
    sphere_atom: SphereAtom | None = None


@dataclass(frozen=True)
class SymmetricWeight:
    """Zeroth-order radial weight: beta/R inside, beta/r outside, with
    the smooth part and sphere atom of its distributional Laplacian."""

    n: int
    R: float
    beta: float
    value: Callable = field(repr=False)       # varphi(r)
    lap_smooth: Callable = field(repr=False)  # smooth density of Delta varphi
    sphere_atom: SphereAtom = None


def check_estimate_parameters(M: float | None = None,
                              delta: float | None = None,
                              beta: float | None = None, n: int = 3,
                              R: float | None = None) -> None:
    """Raise ParameterError unless the multiplier scale R is finite and
    positive, the multiplier constant M is finite and >= 0, the estimate
    weight delta is finite and positive, and the symmetric-weight
    constant beta lies in (0, (n-1)/(2n)) for dimension n; None skips a
    check (M and delta are then chosen later from the admissibility
    verdict)."""
    if R is not None and not (math.isfinite(R) and R > 0):
        raise ParameterError(f"scale R must be finite and positive, got {R}")
    if M is not None and not (math.isfinite(M) and M >= 0):
        raise ParameterError(f"M must be finite and >= 0, got {M}")
    if delta is not None and not (math.isfinite(delta) and delta > 0):
        raise ParameterError(f"delta must be finite and positive, got {delta}")
    if beta is not None and not (0 < beta < (n - 1) / (2 * n)):
        raise ParameterError(f"beta={beta} outside (0, {(n - 1) / (2 * n)}) for n={n}")


def make_phi(n: int, R: float, M: float) -> Multiplier:
    """Build the scaled radial multiplier.

    Inside r <= R: phi' = M + (n-1)/(2n) * r/R; outside:
    phi' = M + 1/2 - R^(n-1)/(2n r^(n-1)).  For n = 3 these reduce to
    M + r/(3R) and M + 1/2 - R^2/(6 r^2).  The bilaplacian has surface
    atom -(n-1)/(2 R^2) on |x| = R, the two-piece smooth density
    -M(n-1)(n-3)/r^3 inside and -(M + 1/2)(n-1)(n-3)/r^3 outside
    (identically zero for n = 3), and for n = 3 the origin point mass
    -8*pi*M.
    """
    check_estimate_parameters(M=M, R=R)
    if n < 3:
        raise ParameterError(f"dimension must be >= 3, got {n}")
    c = (n - 1) / (2 * n)

    def dphi(r):
        r = np.asarray(r, float)
        return np.where(r <= R, M + c * r / R, M + 0.5 - (R / np.maximum(r, 1e-300)) ** (n - 1) / (2 * n))

    def d2phi(r):
        r = np.asarray(r, float)
        return np.where(r <= R, c / R, c * R ** (n - 1) / np.maximum(r, 1e-300) ** n)

    def lap_phi(r):
        r = np.asarray(r, float)
        rs = np.maximum(r, 1e-300)
        return np.where(
            r <= R,
            (n - 1) / (2 * R) + M * (n - 1) / rs,
            (2 * M + 1) * (n - 1) / (2 * rs),
        )

    def bilap_smooth(r):
        r = np.asarray(r, float)
        if n == 3:
            return np.zeros_like(r)
        rs = np.maximum(r, 1e-300)
        return np.where(
            r <= R,
            -M * (n - 1) * (n - 3) / rs ** 3,
            -(M + 0.5) * (n - 1) * (n - 3) / rs ** 3,
        )

    origin = PointAtom(mass=-8 * math.pi * M) if n == 3 else None
    sphere = SphereAtom(radius=R, density=-(n - 1) / (2 * R ** 2))
    return Multiplier(n=n, R=R, M=M, dphi=dphi, d2phi=d2phi, lap_phi=lap_phi,
                      bilap_smooth=bilap_smooth, origin_atom=origin,
                      sphere_atom=sphere)


def make_varphi(n: int, R: float, beta: float) -> SymmetricWeight:
    """Build the symmetric radial weight beta/max(r, R).

    beta must lie in (0, (n-1)/(2n)); its Laplacian is the sphere atom
    -beta/R^2 on |x| = R plus the smooth tail -beta(n-3)/r^3 outside
    (zero for n = 3).
    """
    check_estimate_parameters(beta=beta, n=n, R=R)

    def value(r):
        r = np.asarray(r, float)
        return beta / np.maximum(r, R)

    def lap_smooth(r):
        r = np.asarray(r, float)
        if n == 3:
            return np.zeros_like(r)
        rs = np.maximum(r, 1e-300)
        return np.where(r > R, -beta * (n - 3) / rs ** 3, 0.0)

    return SymmetricWeight(n=n, R=R, beta=beta, value=value, lap_smooth=lap_smooth,
                           sphere_atom=SphereAtom(radius=R, density=-beta / R ** 2))
