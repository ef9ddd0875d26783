"""Term-by-term evaluation of the multiplier identity on discrete
solutions, assembly of the a priori estimate, and epsilon sweeps.  The
identity's densities are binned in one resolvent.radial_sweep over slabs
of the grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .admissibility import AdmissibilityReport, admissibility_report
from .errors import ParameterError, SolverError
from .fields import PotentialPair
from .grids import RadialGrid, ScalarField, check_same_grid
from .multipliers import (Multiplier, SymmetricWeight, check_estimate_parameters,
                          make_phi, make_varphi)
from .norms import check_lhs_grid, dyadic_dual, origin_sq, theorem_lhs, theorem_rhs
from .resolvent import (DiscreteOperator, Discretization, ResolventProblem, check_datum,
                        check_resolvent_parameters, epsilon_floor, make_datum,
                        radial_sweep, solve)

__all__ = [
    "IdentityReport",
    "SweepReport",
    "identity_residual",
    "identity_scan",
    "manufactured_identity",
    "estimate_report",
    "epsilon_sweep",
]


@dataclass
class IdentityReport:
    """Per-term values of the multiplier identity; lhs_total and
    rhs_total are plain sums of their listed terms."""

    lhs_terms: dict
    rhs_terms: dict
    h: float
    R: float

    @property
    def lhs_total(self) -> float:
        return sum(self.lhs_terms.values())

    @property
    def rhs_total(self) -> float:
        return sum(self.rhs_terms.values())

    @property
    def residual_abs(self) -> float:
        return abs(self.lhs_total - self.rhs_total)

    @property
    def residual_rel(self) -> float:
        scale = sum(abs(v) for v in self.lhs_terms.values()) \
            + sum(abs(v) for v in self.rhs_terms.values())
        return self.residual_abs / max(scale, 1e-300)

    def to_json(self) -> dict:
        return {**asdict(self), "lhs_total": self.lhs_total, "rhs_total": self.rhs_total,
                "residual_abs": self.residual_abs, "residual_rel": self.residual_rel}


def identity_residual(u: ScalarField, f: ScalarField, disc: Discretization,
                      lam: float, eps: float,
                      scales: list[tuple[Multiplier, SymmetricWeight]]
                      ) -> list[IdentityReport]:
    """Evaluate both sides of the multiplier identity on (u, f), one
    IdentityReport per (Multiplier, SymmetricWeight) pair in scales.

    Smooth densities are paired by midpoint quadrature; the bilaplacian
    atoms pair with |u|^2 through origin interpolation and shell-averaged
    surface integrals.  eps carries the sign of the absorption.  The
    scale-independent densities are summed per radial bin once for all
    scales, in one radial_sweep over slabs of the grid (B_tau sampled per
    slab when the pair's samples_trapping holds; the trapping term is 0
    otherwise), and each scale evaluates its radial profiles on the bin
    radii.
    """
    check_same_grid(u.grid, f.grid)
    grid = u.grid
    h, r = grid.h, grid.bin_radii
    trapping = disc.pp.samples_trapping
    drv = disc.radial_derivative()

    def densities(sl):
        yield sl.g2
        g_r2 = np.square(sl.g_r.real) + np.square(sl.g_r.imag)
        yield g_r2
        yield np.maximum(sl.g2 - g_r2, 0.0)
        yield sl.u2
        yield sl.of(drv) * sl.u2
        yield sl.of(disc.V) * sl.u2
        xdotg = np.conj(sl.g_r)
        fs = f.rows(sl.rows.start, sl.rows.stop)
        yield np.real(fs * xdotg)
        yield np.real(fs * np.conj(sl.u))
        yield np.imag(sl.u * xdotg)
        if trapping:
            yield np.imag(sl.u * sl.bg)

    sums = radial_sweep(u, disc, densities, trapping)
    s_g2, s_gr2, s_gtau2, s_u2, s_drv, s_V, s_fxg, s_fu, s_uxg = sums[:9]
    s_trap = sums[9] if trapping else None
    origin = origin_sq(u)

    reports = []
    for mult, weight in scales:
        dphi = mult.dphi(r)
        w = weight.value(r)
        lhs = {}
        # Hessian quadratic form via the radial/tangential split
        lhs["hessian"] = float(mult.d2phi(r) @ s_gr2 + (dphi / r) @ s_gtau2)
        lhs["weight_gradient"] = -float(w @ s_g2)

        # -(1/4 Delta^2 phi - 1/2 Delta varphi) paired with |u|^2
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
        # The commutator multiplier is (1/2)[H, phi]u = -(phi' xhat . grad_A u
        # + (1/2) Delta phi u); pairing f against it flips the sign of the
        # gradient and absorption terms relative to the weight term.
        rhs["datum_gradient"] = -float(dphi @ s_fxg + 0.5 * mult.lap_phi(r) @ s_fu)
        rhs["datum_weight"] = float(w @ s_fu)
        rhs["absorption"] = -eps * float(dphi @ s_uxg)
        reports.append(IdentityReport(lhs_terms=lhs, rhs_terms=rhs, h=h, R=mult.R))
    return reports


#: The symmetric-weight constant beta of identity_scan when none is given.
IDENTITY_BETA = 1e-3


def identity_scan(u: ScalarField, f: ScalarField, disc: Discretization,
                  lam: float, eps: float, M: float | None = None,
                  beta: float = IDENTITY_BETA):
    """Evaluate the identity at the multiplier scales R = L/8, L/4 and
    L/2 and return the worst-residual report (the identity holds for
    every R).  M None is 1."""
    M = 1.0 if M is None else M
    n, L = u.grid.n, u.grid.L
    scales = [(make_phi(n, R, M), make_varphi(n, R, beta)) for R in (L / 8, L / 4, L / 2)]
    reports = identity_residual(u, f, disc, lam, eps, scales)
    return max(reports, key=lambda rep: rep.residual_rel)


def manufactured_identity(pp: PotentialPair, grid: RadialGrid, u_fn,
                          lam: float, eps: float):
    """Sample a prescribed smooth u, manufacture f = -H^h u + (lam+i eps)u
    with the discrete operator, and scan the identity with identity_scan's
    M and beta."""
    disc = Discretization(grid, pp)
    u = ScalarField.from_callable(grid, u_fn)
    op = DiscreteOperator(disc, lam, eps)
    f = ScalarField(grid, -op.apply(u.values))
    return identity_scan(u, f, disc, lam, eps)


# ---------------------------------------------------------------------------
# Estimate assembly and sweeps
# ---------------------------------------------------------------------------


def _pick_delta(adm: AdmissibilityReport) -> float:
    """delta = min(margin/4, 0.1): any positive value below the
    positivity budget works; tying it to the margin keeps runs
    reproducible."""
    if adm.admissible and math.isfinite(adm.margin):
        return min(adm.margin / 4, 0.1)
    return 0.1


INADMISSIBLE_NOTE = "configuration not admissible; estimate run is diagnostic"
LAMBDA_ZERO_NOTE = "lambda=0 convention: N(f/|lambda|^(1/2)) term undefined, omitted"


def estimate_report(u: ScalarField, dual: tuple[float, float],
                    disc: Discretization, lam: float, eps: float,
                    adm: AdmissibilityReport, M: float | None = None,
                    delta: float | None = None):
    """(lhs NormReport, rhs NormReport, ratio) for the a priori estimate
    of the solution u for the datum f with dual = dyadic_dual(f), given
    the admissibility verdict adm of disc's potential pair, which picks
    M and delta when they are None.

    Inadmissible configurations are still evaluated; such runs are
    diagnostic (a sweep notes it once, see INADMISSIBLE_NOTE).
    """
    if M is None:
        if u.grid.n == 3:
            M = adm.optimal_M if adm.optimal_M else 0.0
        else:
            M = 2.0  # stand-in for the M -> infinity optimum
    if delta is None:
        delta = _pick_delta(adm)
    lhs = theorem_lhs(u, disc, lam, M, delta)
    rhs = theorem_rhs(dual, lam, eps)
    if rhs.total > 0:
        ratio = lhs.total / rhs.total
    else:
        ratio = 0.0 if lhs.total == 0 else math.inf
    return lhs, rhs, ratio


@dataclass
class SweepReport:
    """(eps, lhs, rhs, ratio) rows sorted by decreasing eps, each with its
    solve's Arnoldi iterations and restart cycles (not in the CSV), the
    blow-up flag raised when the ratio grows faster than 2x per decade
    of eps over the whole sweep, and the estimate's notes that the pair's
    verdict and lambda call for, each once, whether or not a solve
    succeeded."""

    entries: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def add(self, eps, lhs, rhs, ratio, iterations=None, cycles=None):
        self.entries.append({"eps": float(eps), "lhs": float(lhs),
                             "rhs": float(rhs), "ratio": float(ratio),
                             "iterations": iterations, "cycles": cycles})
        self.entries.sort(key=lambda e: -e["eps"])

    @property
    def ratios(self):
        return [e["ratio"] for e in self.entries]

    @property
    def max_ratio(self):
        return max(self.ratios) if self.entries else 0.0

    @property
    def min_ratio(self):
        return min(self.ratios) if self.entries else 0.0

    @property
    def blow_up(self) -> bool:
        if len(self.entries) < 2:
            return False
        first, last = self.entries[0], self.entries[-1]
        if first["ratio"] <= 0:
            return not math.isfinite(last["ratio"])
        decades = math.log10(first["eps"] / last["eps"])
        return last["ratio"] / first["ratio"] > 2.0 ** decades

    def to_json(self) -> dict:
        out = {
            "entries": self.entries,
            "errors": {str(k): v for k, v in self.errors.items()},
            "max_ratio": self.max_ratio,
            "min_ratio": self.min_ratio,
            "blow_up": self.blow_up,
        }
        if self.notes:
            out["notes"] = list(self.notes)
        return out

    def to_csv(self) -> str:
        lines = ["eps,lhs,rhs,ratio"]
        for e in self.entries:
            lines.append(f"{e['eps']!r},{e['lhs']!r},{e['rhs']!r},{e['ratio']!r}")
        return "\n".join(lines) + "\n"


def epsilon_sweep(pp: PotentialPair, lam: float, f_spec, eps_list,
                  grid: RadialGrid, M: float | None = None,
                  delta: float | None = None, tol: float = 1e-10) -> SweepReport:
    """Solve the resolvent problem for each eps and collect estimate
    ratios.  Solver failures are recorded per entry and the sweep
    continues.  lambda, tol, the eps values (at least one, distinct, each
    positive and at most FLOAT32_MAX, see check_resolvent_parameters), M,
    delta and, in 3D, the radial shells the estimate's sphere sup needs
    are checked before any sampling or solve, and the datum's norm (see
    check_datum) before any solve.  The datum is made, and checked for
    support near the boundary, once for the sweep (see make_datum)."""
    check_resolvent_parameters(lam=lam, tol=tol)
    eps_list = list(eps_list)
    if not eps_list or not all(e > 0 for e in eps_list):
        raise ParameterError(
            f"eps values must be positive, at least one, got {eps_list}")
    if len(set(eps_list)) < len(eps_list):
        raise ParameterError(f"eps values must be distinct, got {eps_list}")
    for e in eps_list:
        check_resolvent_parameters(eps=e)
    check_estimate_parameters(M, delta)
    check_lhs_grid(grid)
    floor = epsilon_floor(grid.L, lam)
    for e in eps_list:
        if e < floor:
            warnings.warn(
                f"eps={e} below the truncation floor {floor:.3g} for L={grid.L} "
                f"and lambda={lam}: the box is shorter than one damping length "
                "1/Im sqrt(lambda + i eps), so box truncation error may dominate",
                stacklevel=2)
    disc = Discretization(grid, pp)
    f = make_datum(grid, f_spec)
    check_datum(f)
    dual = dyadic_dual(f)
    adm = admissibility_report(pp)
    report = SweepReport()
    if not adm.admissible:
        report.notes.append(INADMISSIBLE_NOTE)
    if lam == 0:
        report.notes.append(LAMBDA_ZERO_NOTE)
    for eps in sorted(eps_list, reverse=True):
        try:
            u = solve(ResolventProblem(disc, lam, eps, f), tol=tol)
            lhs, rhs, ratio = estimate_report(u, dual, disc, lam, eps, adm,
                                              M=M, delta=delta)
            report.add(eps, lhs.total, rhs.total, ratio,
                       iterations=u.iterations, cycles=u.cycles)
            # free this eps's solution before the next solve
            del u
        except SolverError as exc:
            report.errors[eps] = str(exc)
    return report

