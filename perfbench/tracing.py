"""Spans around calls into morcam's layers, installed from outside the
program.

``install`` replaces each traced function with a wrapper in every
morcam module that binds it, so a name imported at module load (for
example ``solve`` in ``morcam.verify`` and ``morcam.cli``) is traced
as well as its home-module attribute.  Methods are wrapped on their
class.  Spans are kept in memory; ``Tracer.dump`` writes them out.

``layer_metrics`` turns a list of spans into the per-layer metrics the
benchmark reports.  A ``<layer>.<fn>_s`` metric is self time: the
span's duration minus the time its direct child spans cover.
``cli.wall_s``, ``admissibility.report_incl_s`` and
``resolvent.solve_s.eps_<eps>`` are inclusive.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict

# (span name, module, attribute path).  Functions are wrapped wherever a
# morcam module binds them; "Class.method" paths are wrapped on the class.
# Every span feeds a reported metric: an unreported child span would hide
# its time from its parent's self time.
TRACED = [
    ("cli.main", "morcam.cli", "main"),
    ("fields.trapping_component", "morcam.fields", "trapping_component"),
    ("fields.radial_derivative_parts", "morcam.fields", "radial_derivative_parts"),
    ("fields.eval_A", "morcam.fields", "PotentialPair.eval_A"),
    ("fields.eval_V", "morcam.fields", "PotentialPair.eval_V"),
    ("grids.surface_integral", "morcam.grids", "RadialGrid.surface_integral"),
    ("grids.shell_sums", "morcam.grids", "RadialGrid.shell_sums"),
    ("norms.dyadic_dual", "morcam.norms", "dyadic_dual"),
    ("norms.mixed_radial_norm", "morcam.norms", "mixed_radial_norm"),
    ("norms.theorem_lhs", "morcam.norms", "theorem_lhs"),
    ("norms.theorem_rhs", "morcam.norms", "theorem_rhs"),
    ("multipliers.make_phi", "morcam.multipliers", "make_phi"),
    ("multipliers.make_varphi", "morcam.multipliers", "make_varphi"),
    ("admissibility.report", "morcam.admissibility", "admissibility_report"),
    ("admissibility.compute_constants", "morcam.admissibility", "compute_constants"),
    ("resolvent.link_phases", "morcam.resolvent", "link_phases"),
    ("resolvent.op_build", "morcam.resolvent", "DiscreteOperator.__init__"),
    ("resolvent.apply", "morcam.resolvent", "DiscreteOperator.apply"),
    ("resolvent.make_datum", "morcam.resolvent", "make_datum"),
    ("resolvent.solve", "morcam.resolvent", "solve"),
    ("resolvent.covariant_gradient", "morcam.resolvent", "covariant_gradient"),
    ("verify.identity_residual", "morcam.verify", "identity_residual"),
    ("verify.identity_scan", "morcam.verify", "identity_scan"),
    ("verify.estimate_report", "morcam.verify", "estimate_report"),
    ("verify.epsilon_sweep", "morcam.verify", "epsilon_sweep"),
]

# Each call of the callable that DiscreteOperator.preconditioner returns.
PRECOND_SPAN = "resolvent.precond"


class Tracer:
    """Records spans as [name, start, end, parent index, attrs]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs, attrs: dict):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), math.nan, parent, attrs]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p,
                 "run": self.run_id, **a} for n, s, e, p, a in self.spans]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records():
                fh.write(json.dumps(rec) + "\n")


def _points(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 0
    return int(math.prod(shape[:-1]))


def _call_attrs(name: str, args, kwargs) -> dict:
    """Attributes known before the call: epsilon, node and point counts."""
    if name in ("fields.eval_A", "fields.eval_V"):
        return {"points": _points(args[1])}
    if name == "resolvent.apply":
        op = args[0]
        return {"eps": op.eps, "nodes": op.grid.size}
    if name == "resolvent.solve":
        prob = args[0]
        tol = args[1] if len(args) > 1 else kwargs.get("tol", 1e-10)
        return {"eps": prob.eps, "tol": float(tol)}
    return {}


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = _call_attrs(name, args, kwargs)
        result = tracer.call(name, fn, args, kwargs, attrs)
        if name == "resolvent.solve":
            attrs["residual"] = float(getattr(result, "residual", 0.0))
        return result

    return wrapper


def _wrap_preconditioner(tracer: Tracer, factory):
    """Wrap the preconditioner the factory returns, not the factory."""
    @functools.wraps(factory)
    def wrapper(op):
        minv = factory(op)
        attrs = {"eps": op.eps, "nodes": op.grid.size}

        @functools.wraps(minv)
        def traced_minv(v):
            return tracer.call(PRECOND_SPAN, minv, (v,), {}, dict(attrs))

        return traced_minv

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function, and the preconditioner, in place.
    Call once per process."""
    importlib.import_module("morcam.cli")
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "morcam" or k.startswith("morcam."))]
    DiscreteOperator = importlib.import_module("morcam.resolvent").DiscreteOperator
    DiscreteOperator.preconditioner = _wrap_preconditioner(
        tracer, DiscreteOperator.__dict__["preconditioner"])
    for name, modname, path in TRACED:
        home = importlib.import_module(modname)
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, meth, _wrap(tracer, name, cls.__dict__[meth]))
            continue
        original = getattr(home, path)
        wrapped = _wrap(tracer, name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------


def eps_key(eps: float) -> str:
    return f"eps_{eps:g}"


def span_table(spans: list[dict]):
    """Per span name: calls, inclusive seconds and self seconds."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    for i, s in enumerate(spans):
        dur = s["end"] - s["start"]
        calls[s["name"]] += 1
        total[s["name"]] += dur
        self_s[s["name"]] += dur - child_time[i]
    return calls, total, self_s


def layer_metrics(spans: list[dict], eps_ladder) -> dict:
    """The per-layer metrics of one traced execution."""
    calls, total, self_s = span_table(spans)

    def per_eps(name, value):
        out = {eps_key(e): 0 for e in eps_ladder}
        for s in spans:
            key = eps_key(s["eps"]) if s["name"] == name else None
            if key in out:
                out[key] += value(s)
        return out

    def rate(name):
        nodes = sum(s.get("nodes", 0) for s in spans if s["name"] == name)
        return nodes / self_s[name] / 1e6 if self_s[name] > 0 else 0.0

    m = {
        "cli.wall_s": total["cli.main"],
        "cli.self_s": self_s["cli.main"],
        "resolvent.apply.calls": calls["resolvent.apply"],
        "resolvent.apply_s": self_s["resolvent.apply"],
        "resolvent.apply_mnodes_per_s": rate("resolvent.apply"),
        "resolvent.precond.calls": calls[PRECOND_SPAN],
        "resolvent.precond_s": self_s[PRECOND_SPAN],
        "resolvent.precond_mnodes_per_s": rate(PRECOND_SPAN),
        "resolvent.krylov_self_s": self_s["resolvent.solve"],
        "resolvent.krylov_ms_per_iter": (
            1e3 * self_s["resolvent.solve"] / calls["resolvent.apply"]
            if calls["resolvent.apply"] else 0.0),
        "resolvent.solve.calls": calls["resolvent.solve"],
        "resolvent.residual_max": max(
            (s["residual"] for s in spans if s["name"] == "resolvent.solve"),
            default=0.0),
        "resolvent.op_build_s": self_s["resolvent.op_build"],
        "resolvent.link_phases.calls": calls["resolvent.link_phases"],
        "resolvent.link_phases_s": self_s["resolvent.link_phases"],
        "resolvent.covariant_gradient.calls": calls["resolvent.covariant_gradient"],
        "resolvent.covariant_gradient_s": self_s["resolvent.covariant_gradient"],
        "resolvent.make_datum_s": self_s["resolvent.make_datum"],
        "fields.eval_A.points": sum(
            s["points"] for s in spans if s["name"] == "fields.eval_A"),
        "fields.eval_V.points": sum(
            s["points"] for s in spans if s["name"] == "fields.eval_V"),
        "fields.eval_A_s": self_s["fields.eval_A"],
        "fields.eval_V_s": self_s["fields.eval_V"],
        "fields.trapping_component_s": self_s["fields.trapping_component"],
        "fields.radial_derivative_parts_s": self_s["fields.radial_derivative_parts"],
        "verify.identity_residual.calls": calls["verify.identity_residual"],
        "verify.identity_residual_s": self_s["verify.identity_residual"],
        "verify.identity_scan_s": self_s["verify.identity_scan"],
        "verify.estimate_report_s": self_s["verify.estimate_report"],
        "verify.epsilon_sweep_s": self_s["verify.epsilon_sweep"],
        "norms.theorem_lhs_s": self_s["norms.theorem_lhs"],
        "norms.theorem_rhs_s": self_s["norms.theorem_rhs"],
        "norms.dyadic_dual_s": self_s["norms.dyadic_dual"],
        "multipliers.make_phi.calls": calls["multipliers.make_phi"],
        "multipliers.make_varphi.calls": calls["multipliers.make_varphi"],
        "grids.surface_integral_s": self_s["grids.surface_integral"],
        "grids.shell_sums_s": self_s["grids.shell_sums"],
        "admissibility.report_s": self_s["admissibility.report"],
        "admissibility.compute_constants_s": self_s["admissibility.compute_constants"],
        "admissibility.report_incl_s": total["admissibility.report"],
        "norms.mixed_radial_norm_s": self_s["norms.mixed_radial_norm"],
    }
    for key, v in per_eps("resolvent.apply", lambda s: 1).items():
        m[f"resolvent.apply.calls.{key}"] = v
    for key, v in per_eps("resolvent.solve", lambda s: s["end"] - s["start"]).items():
        m[f"resolvent.solve_s.{key}"] = v
    return m
