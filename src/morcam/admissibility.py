"""Smallness constants of the electromagnetic field and the
admissibility verdicts gating the a priori estimates.

In 3D the condition is min over M > 0 of
g(M) = (M + 1/2)^2/M C1^2 + 2(M + 1/2) C2 < 1; the minimizer has the
closed form M* = C1 / (2 sqrt(C1^2 + 2 C2)) with minimum
C1 sqrt(C1^2 + 2 C2) + C1^2 + C2 (validated against a dense log-grid
search in the test suite before being used as the fast path).  For
n >= 4 the condition is C1^2 + 2 C2 < (n-1)(n-3), the optimum sitting in
the limit M -> infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .fields import (PotentialPair, _check_points, _radial_contraction,
                     magnetic_matrix, radial_derivative_parts, sq_norm)
from .norms import mixed_radial_norm, weighted_sup_norm

__all__ = [
    "AdmissibilityReport",
    "compute_constants",
    "check_condition_3d",
    "check_condition_nd",
    "admissibility_report",
]


@dataclass
class AdmissibilityReport:
    n: int
    C1: float
    C2: float
    C3: float = math.nan
    value: float = math.inf
    threshold: float = 1.0
    optimal_M: float | None = None
    admissible: bool = False
    notes: list = field(default_factory=list)

    @property
    def margin(self) -> float:
        return self.threshold - self.value

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "C1": self.C1,
            "C2": self.C2,
            "C3": self.C3,
            "value": self.value,
            "threshold": self.threshold,
            "margin": self.margin,
            "optimal_M": self.optimal_M,
            "admissible": self.admissible,
            "notes": list(self.notes),
        }


def compute_constants(pp: PotentialPair):
    """(C1, C2, C3) for the given potential pair.

    n = 3: mixed radial norms of |B_tau|, (d_r V)_+, <x>^-1 V_+ with
    exponents (3/2, p=2), (2, p=1), (2, p=1).  n >= 4: weighted sup norms
    with exponents 2, 3, 3, both on the fixed quadrature of morcam.norms
    (QUAD_R_MAX, QUAD_DR, QUAD_DIRS).  B_tau comes from the field
    matrix; a pair that declares non_trapping has no C1 to measure, as a
    pair without A has none.  The weights of a V_radial pair's V are
    sampled on one ray.  A constant whose potential is absent (or, for
    C1, declared zero) is 0; +inf propagates as a value.
    """
    # Noise in B_tau scales with the full field magnitude; left in, it
    # mimics a divergent integrand for non-trapping fields.  It is
    # cancellation noise for an analytic Jacobian, and the error of
    # fields.jacobian_fd otherwise: at most 1.1e-8 |B| for ex13 on the
    # quadrature's points, so a 1e-6 cutoff keeps a margin of 90
    cutoff = 1e-9 if pp.A_jac is not None else 1e-6

    def btau_mag(X):
        B = magnetic_matrix(pp, X)
        mag = np.sqrt(sq_norm(_radial_contraction(X, B)))
        scale = np.sqrt(sq_norm(B.reshape(B.shape[:-2] + (-1,))))
        return np.where(mag > cutoff * scale, mag, 0.0)

    def v_plus_screened(X):
        X = _check_points(pp, X, require_nonzero=True)
        return np.maximum(pp.eval_V(X), 0.0) / np.sqrt(1 + sq_norm(X))

    # (potential the constant needs, weight, whether the weight is radial,
    # 3D (exponent, p), n >= 4 exponent)
    rows = [
        (pp.A if pp.samples_trapping else None, btau_mag, False, (1.5, 2), 2.0),
        (pp.V, lambda X: np.maximum(radial_derivative_parts(pp, X), 0.0), pp.V_radial,
         (2.0, 1), 3.0),
        (pp.V, v_plus_screened, pp.V_radial, (2.0, 1), 3.0),
    ]
    return tuple(0.0 if part is None
                 else mixed_radial_norm(w, p, e3, 3, radial) if pp.n == 3
                 else weighted_sup_norm(w, e, pp.n, radial)
                 for part, w, radial, (e3, p), e in rows)


def check_condition_3d(C1: float, C2: float, C3: float = math.nan) -> AdmissibilityReport:
    """Optimize the free parameter M in the 3D smallness condition and
    report the verdict.  M = 0 is the limiting optimizer when C1 = 0 (the
    condition then reads C2 < 1); for C2 = 0 it reads C1^2 < 1/2."""
    if C1 < 0 or C2 < 0:
        raise ParameterError("C1, C2 must be nonnegative")
    rep = AdmissibilityReport(n=3, C1=C1, C2=C2, C3=C3, threshold=1.0)
    if not (math.isfinite(C1) and math.isfinite(C2)):
        rep.value = math.inf
        rep.admissible = False
        rep.notes.append("a constant is infinite: not admissible")
        return rep
    if C1 == 0.0:
        rep.value = C2
        rep.optimal_M = 0.0
        rep.notes.append("C1 = 0: optimum at the limit M -> 0")
    else:
        s = math.sqrt(C1 ** 2 + 2 * C2)
        rep.optimal_M = C1 / (2 * s)
        rep.value = C1 * s + C1 ** 2 + C2
    finite_c3 = not math.isinf(C3)
    rep.admissible = rep.value < rep.threshold and finite_c3
    if not finite_c3:
        rep.notes.append("C3 infinite: not admissible (its size is otherwise irrelevant)")
    return rep


def check_condition_nd(C1: float, C2: float, n: int, C3: float = math.nan) -> AdmissibilityReport:
    """Higher-dimensional verdict C1^2 + 2 C2 < (n-1)(n-3)."""
    if n < 4:
        raise ParameterError(
            "check_condition_nd needs n >= 4 (the 3D threshold degenerates)")
    if C1 < 0 or C2 < 0:
        raise ParameterError("C1, C2 must be nonnegative")
    rep = AdmissibilityReport(n=n, C1=C1, C2=C2, C3=C3,
                              threshold=float((n - 1) * (n - 3)))
    rep.value = C1 ** 2 + 2 * C2
    rep.optimal_M = math.inf
    rep.notes.append("optimal-M limit is M -> infinity")
    rep.admissible = math.isfinite(rep.value) and rep.value < rep.threshold and not math.isinf(C3)
    return rep


def admissibility_report(pp: PotentialPair) -> AdmissibilityReport:
    """Constants plus verdict in one step, in the potential's dimension."""
    C1, C2, C3 = compute_constants(pp)
    if pp.n == 3:
        return check_condition_3d(C1, C2, C3)
    return check_condition_nd(C1, C2, pp.n, C3)
