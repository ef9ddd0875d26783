"""Electromagnetic potentials and derived field quantities.

A potential pair bundles a magnetic potential A : R^n -> R^n and an
electric potential V : R^n -> R.  All callables are vectorized: they
accept point arrays of shape (..., n) and return shape (..., n) for A,
(...) for V.  The magnetic field matrix is the antisymmetrized Jacobian
B = DA - (DA)^t, and its trapping component is the tangential vector
B_tau(x) = (x/|x|) B(x).
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "PotentialPair",
    "magnetic_matrix",
    "trapping_component",
    "radial_derivative_parts",
    "example_field",
    "make_potential_pair",
    "BUILTIN_POTENTIALS",
    "resolve_builtin",
]

_ORIGIN_TOL = 1e-14


def sq_norm(x: np.ndarray) -> np.ndarray:
    """|x|^2 over the last axis of a point array (..., n)."""
    return np.einsum("...i,...i->...", x, x)


@dataclass
class PotentialPair:
    """Magnetic potential A and electric potential V with optional
    closed forms of their derived quantities.

    A_jac, when supplied, returns the Jacobian J[..., i, j] = dA^i/dx_j.
    non_trapping declares that the trapping component (x/|x|) B is zero
    wherever A is defined (ex13 declares it), so that no reader samples
    it.  dV_r returns the radial derivative grad V . x/|x|.  V_radial
    declares that V, and so d_r V, depends on |x| alone (every electric
    built-in), so that the admissibility quadrature samples their weights
    on one ray.  domain_check may raise DomainError for points where the
    potentials are singular.
    """

    n: int
    A: Optional[Callable] = None
    V: Optional[Callable] = None
    A_jac: Optional[Callable] = None
    dV_r: Optional[Callable] = None
    non_trapping: bool = False
    V_radial: bool = False
    domain_check: Optional[Callable] = None

    def __post_init__(self):
        if self.n < 3:
            raise ParameterError(f"dimension must be >= 3, got {self.n}")

    @property
    def samples_trapping(self) -> bool:
        """Whether B_tau is formed from A: there is an A, and it does not
        declare non_trapping."""
        return self.A is not None and not self.non_trapping

    def eval_A(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float)
        if self.A is None:
            return np.zeros_like(x)
        return np.asarray(self.A(x), float)

    def eval_V(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float)
        if self.V is None:
            return np.zeros(x.shape[:-1])
        return np.asarray(self.V(x), float)


def _check_points(pp: PotentialPair, x: np.ndarray, require_nonzero=False) -> np.ndarray:
    x = np.asarray(x, float)
    if x.shape[-1] != pp.n:
        raise DomainError(f"points have dimension {x.shape[-1]}, potential has {pp.n}")
    if require_nonzero:
        r = np.sqrt(sq_norm(x))
        if np.any(r < _ORIGIN_TOL):
            raise DomainError("evaluation at x = 0 is not defined")
    if pp.domain_check is not None:
        pp.domain_check(x)
    return x


def jacobian_fd(A: Callable, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian J[..., i, j] = dA^i/dx_j with the step
    1e-5 |x| per point (1e-5 at the origin), so its relative error does
    not grow as |x| -> 0 for an A that scales like a power of |x|.
    """
    x = np.asarray(x, float)
    n = x.shape[-1]
    r = np.sqrt(sq_norm(x))
    h = 1e-5 * np.where(r > 0, r, 1.0)[..., None]
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        xp = x + h * e
        xm = x - h * e
        cols.append((np.asarray(A(xp), float) - np.asarray(A(xm), float)) / (2 * h))
    # cols[j][..., i] = dA^i/dx_j
    return np.stack(cols, axis=-1)


def magnetic_matrix(pp: PotentialPair, x: np.ndarray) -> np.ndarray:
    """Field matrix B(x) = DA - (DA)^t, shape (..., n, n).

    Antisymmetric by construction.  Uses the analytic Jacobian when
    available, central differences otherwise.
    """
    x = _check_points(pp, x)
    if pp.A is None:
        return np.zeros(x.shape + (pp.n,))
    if pp.A_jac is not None:
        J = np.asarray(pp.A_jac(x), float)
    else:
        J = jacobian_fd(pp.eval_A, x)
    return J - np.swapaxes(J, -1, -2)


def _radial_contraction(x: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row vector times matrix (x/|x|) B per point: result_j =
    sum_i xhat_i B_ij, for points x of shape (..., n) away from the origin
    and field matrices B of shape (..., n, n)."""
    r = np.sqrt(sq_norm(x))[..., None]
    return np.einsum("...i,...ij->...j", x / np.maximum(r, 1e-300), B)


#: Points per block of trapping_component, which bounds the Jacobian and
#: field matrix held at once where B_tau is formed from A: for ex14 and
#: any A that does not declare non_trapping, in the identity and in
#: fields-check.  4096 was the fastest of 1024, 4096, 16384 and 65536
#: points and no blocking on ex13's 80^3 identity grid, before ex13
#: declared non_trapping, on one core of a Xeon with 2 MiB of L2 per core.
_TRAPPING_CHUNK = 4096


def trapping_component(pp: PotentialPair, x: np.ndarray) -> np.ndarray:
    """Trapping (tangential) component B_tau(x) = (x/|x|) B(x).

    In three dimensions this equals (x/|x|) x curl A.  B_tau . x = 0 by
    antisymmetry of B.  Zeros, after the point checks, for a pair without
    A or one that declares non_trapping; otherwise formed
    _TRAPPING_CHUNK points at a time, so neither the Jacobian nor the
    (..., n, n) field matrix is ever held for all points.
    """
    x = _check_points(pp, x, require_nonzero=True)
    out = np.zeros(x.shape)
    if not pp.samples_trapping:
        return out
    xs, outs = x.reshape(-1, pp.n), out.reshape(-1, pp.n)
    for start in range(0, len(xs), _TRAPPING_CHUNK):
        block = xs[start:start + _TRAPPING_CHUNK]
        outs[start:start + _TRAPPING_CHUNK] = _radial_contraction(block, magnetic_matrix(pp, block))
    return out


def radial_derivative_parts(pp: PotentialPair, x: np.ndarray) -> np.ndarray:
    """Radial derivative d_r V = grad V . x/|x|: the analytic dV_r when
    given, zero when V vanishes, otherwise a central difference with
    step 1e-6 along x/|x|."""
    x = _check_points(pp, x, require_nonzero=True)
    if pp.dV_r is not None:
        return np.asarray(pp.dV_r(x), float)
    if pp.V is None:
        return np.zeros(x.shape[:-1])
    step = 1e-6 * (x / np.sqrt(sq_norm(x))[..., None])
    return (pp.eval_V(x + step) - pp.eval_V(x - step)) / 2e-6


# ---------------------------------------------------------------------------
# Built-in potentials
# ---------------------------------------------------------------------------


def _swirl(k: int, tol: float, message: str) -> dict:
    """The PotentialPair keywords A, A_jac, domain_check and non_trapping
    of the swirl A = (-y, x, 0)/q on R^3, where q is the sum of the
    squares of the first k coordinates: k = 3 gives ex13, k = 2 ex14.
    domain_check raises DomainError with message where q < tol.
    non_trapping is declared for k = 3 only: A is then e_3 x x/|x|^2,
    whose curl 2z x/|x|^4 is parallel to x, so B_tau = (x/|x|) x curl A
    = 0.  ex14's B_tau, zero off the z-axis too, is left to the Jacobian,
    which reads its rounding noise as a divergent C1 (see
    admissibility.compute_constants)."""

    def sq(x):
        # einsum for k = 3, whose bits the reports carry: X*X + Y*Y + Z*Z
        # differs from it in the last bit on about 2 % of points; for k = 2
        # the products, as einsum over a strided slice is several times slower
        return sq_norm(x) if k == 3 else x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]

    def A(x):
        x = np.asarray(x, float)
        q = sq(x)
        out = np.empty_like(x)
        out[..., 0] = -x[..., 1] / q
        out[..., 1] = x[..., 0] / q
        out[..., 2] = 0.0
        return out

    def A_jac(x):
        x = np.asarray(x, float)
        X, Y, Z = x[..., 0], x[..., 1], x[..., 2]
        q = X * X + Y * Y + Z * Z if k == 3 else X * X + Y * Y
        q2 = q * q
        J = np.zeros(x.shape + (3,))
        # A1 = -y/q, A2 = x/q; dq/dz = 0 unless k = 3
        J[..., 0, 0] = 2 * X * Y / q2
        J[..., 0, 1] = -1.0 / q + 2 * Y * Y / q2
        J[..., 1, 0] = 1.0 / q - 2 * X * X / q2
        J[..., 1, 1] = -2 * X * Y / q2
        if k == 3:
            J[..., 0, 2] = 2 * Y * Z / q2
            J[..., 1, 2] = -2 * X * Z / q2
        return J

    def domain_check(x):
        if np.any(sq(np.asarray(x, float)) < tol):
            raise DomainError(message)

    return {"A": A, "A_jac": A_jac, "domain_check": domain_check, "non_trapping": k == 3}


#: The PotentialPair keywords of each closed-form magnetic built-in.
_MAGNETIC = {
    "ex13": _swirl(3, _ORIGIN_TOL ** 2, "ex13 potential is singular at the origin"),
    "ex14": _swirl(2, 1e-24, "this potential is singular on the z-axis"),
}


#: The node count of the Gauss-Legendre rule with which ex14_family
#: integrates its profile h: exact for a polynomial h up to degree 63.  The
#: rule is formed per family, so that importing morcam loads no
#: numpy.polynomial (1.8 MiB of peak RSS in a CLI run).
_GAUSS_ORDER = 32


def example_field(kind: str, *, h=None, omega=None) -> PotentialPair:
    """Closed-form non-trapping magnetic potentials.

    kind "ex13": A = (-y, x, 0)/(x^2+y^2+z^2), divergence-free with
    B_tau = 0, which it declares.  kind "ex14": A = (-y, x, 0)/(x^2+y^2),
    a pure gauge away from the z-axis (its field matrix is zero there; the
    field carries a line singularity that is not differentiated
    numerically).  These two are the built-ins of the same names, with
    their analytic Jacobians.

    kind "ex14_family": the field B(y) = h(y/|y| . omega) y/|y|^3 of a
    vectorized profile h on [-1, 1] (an odd one, say) and an axis omega
    (normalized here), with the potential
    A(x) = H(x/|x| . omega) (omega x x)/|omega x x|^2, where
    H(c) = int_c^1 h(s) ds is taken by the Gauss-Legendre rule mapped onto
    [c, 1].  B is parallel to y, so the family declares non_trapping;
    h(s) = 2s with omega = e_3 is ex13.  An h whose integral over [-1, 1]
    is not zero to rounding is refused: its A would carry a Dirac string on
    the -omega axis.  So are an h that is not callable and an omega that
    is not a finite nonzero 3-vector.  domain_check raises DomainError on
    the omega axis, the origin included.
    """
    if kind in _MAGNETIC:
        return PotentialPair(3, **_MAGNETIC[kind])
    if kind != "ex14_family":
        raise ParameterError(f"unknown example field kind: {kind}")
    omega = np.asarray(omega, float)
    if not callable(h) or omega.shape != (3,) or not 0 < np.linalg.norm(omega) < np.inf:
        raise ParameterError("ex14_family needs a callable h and a finite nonzero 3-vector omega")
    nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    hs = np.asarray(h(nodes), float)
    if not abs(hs @ weights) <= 1e-12 * (np.abs(hs) @ weights):
        raise ParameterError("ex14_family needs an h whose integral over [-1, 1] is 0")
    omega = omega / np.linalg.norm(omega)

    def A(x):
        x = np.asarray(x, float)
        c = (x @ omega / np.sqrt(sq_norm(x)))[..., None]
        # H(c) = int_c^1 h(s) ds, the rule's nodes mapped onto [c, 1]
        H = (1 - c[..., 0]) / 2 * (np.asarray(h(c + (1 - c) * (1 + nodes) / 2), float) @ weights)
        w = np.cross(omega, x)
        return (H / sq_norm(w))[..., None] * w

    def domain_check(x):
        if np.any(sq_norm(np.cross(omega, np.asarray(x, float))) < 1e-24):
            raise DomainError("this potential is singular on its omega-axis")

    return PotentialPair(3, A=A, domain_check=domain_check, non_trapping=True)


# --- electric built-ins -----------------------------------------------------


def _radial(f):
    """The function x -> f(|x|) of point arrays (..., n)."""
    return lambda x: f(np.sqrt(sq_norm(np.asarray(x, float))))


BUILTIN_POTENTIALS = {
    "zero": {"kind": "both", "params": {}, "doc": "A = 0 or V = 0"},
    "ex13": {"kind": "A", "params": {},
             "doc": "A = (-y, x, 0)/(x^2+y^2+z^2); non-trapping, div-free"},
    "ex14": {"kind": "A", "params": {},
             "doc": "A = (-y, x, 0)/(x^2+y^2); field matrix zero off the z-axis"},
    "coulomb": {"kind": "V", "params": {"c": -1.0}, "doc": "V = c/|x|"},
    "inverse_square": {"kind": "V", "params": {"c": 1.0}, "doc": "V = c/|x|^2"},
    "gaussian": {"kind": "V", "params": {"amplitude": -1.0, "width": 1.0},
                 "doc": "V = amplitude * exp(-|x|^2/width^2)"},
    "exp_screened": {"kind": "V", "params": {"amplitude": 1.0},
                     "doc": "V = amplitude * exp(-|x|)/<x>"},
}

#: Radial profiles (V(r), d_r V(r)) of the electric built-ins, made from
#: the parameters of BUILTIN_POTENTIALS as keywords.
_ELECTRIC = {
    "coulomb": lambda c: (lambda r: c / r, lambda r: -c / r ** 2),
    "inverse_square": lambda c: (lambda r: c / r ** 2, lambda r: -2 * c / r ** 3),
    "gaussian": lambda amplitude, width: (
        lambda r: amplitude * np.exp(-(r / width) ** 2),
        lambda r: amplitude * np.exp(-(r / width) ** 2) * (-2 * r / width ** 2)),
    # V = a exp(-r)/<r>, <r> = sqrt(1 + r^2)
    "exp_screened": lambda amplitude: (
        lambda r: amplitude * np.exp(-r) / np.sqrt(1 + r ** 2),
        lambda r: amplitude * np.exp(-r) * (-1.0 / np.sqrt(1 + r ** 2)
                                            - r / np.sqrt(1 + r ** 2) ** 3)),
}


def finite_number(value) -> bool:
    """Whether value is a finite real number: a bool is not one, nor an
    int past the float range."""
    # abs(v) <= max is False for NaN, +-inf and an int past the float range
    return isinstance(value, numbers.Real) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


def resolve_builtin(spec, defaults: dict, what: str):
    """(name, params) of a built-in spec: a name, or a mapping with "name"
    and parameter overrides.  defaults maps each built-in's name to its
    parameter defaults, which params starts from.  A spec that is not a
    name or a mapping, a missing or unknown name, an unknown parameter, or
    a parameter that is not a finite number raises ParameterError naming
    it.  A bool is not a number; None stays allowed where the default is
    None, and a center may also be a list of finite numbers."""
    if isinstance(spec, str):
        spec = {"name": spec}
    params = dict(spec) if isinstance(spec, dict) else {}
    name = params.pop("name", None)
    if not isinstance(name, str) or name not in defaults:
        raise ParameterError(f"{what} spec {spec!r} names no built-in; "
                             f"choose from {sorted(defaults)}")
    bad = set(params) - set(defaults[name])
    if bad:
        raise ParameterError(
            f"unknown parameters for {what} '{name}': {sorted(map(str, bad))}")
    for key, value in params.items():
        if value is None and defaults[name][key] is None:
            continue
        entries = value if key == "center" and isinstance(value, list) else [value]
        if not all(map(finite_number, entries)):
            raise ParameterError(f"parameter {key} of {what} '{name}' must be "
                                 f"a finite number, got {value!r}")
    return name, {**defaults[name], **params}


def make_potential_pair(n: int, A_spec=None, V_spec=None) -> PotentialPair:
    """Assemble a PotentialPair from built-ins named in BUILTIN_POTENTIALS.

    A_spec/V_spec are resolved by resolve_builtin; None means "zero".
    Every electric built-in is a function of |x|, so V_radial is set.
    """

    def builtins(kind):
        return {name: info["params"] for name, info in BUILTIN_POTENTIALS.items()
                if info["kind"] in (kind, "both")}

    a_name, _ = resolve_builtin("zero" if A_spec is None else A_spec,
                                builtins("A"), "magnetic")
    v_name, v_par = resolve_builtin("zero" if V_spec is None else V_spec,
                                    builtins("V"), "electric")

    magnetic = {}
    if a_name != "zero":
        if n != 3:
            raise ParameterError(f"{a_name} is a 3D potential, got n={n}")
        magnetic = _MAGNETIC[a_name]
    V = dV_r = None
    if v_name != "zero":
        V, dV_r = map(_radial, _ELECTRIC[v_name](**v_par))

    return PotentialPair(n, V=V, dV_r=dV_r, V_radial=True, **magnetic)
