"""Scenario-driven command line front end.

A scenario is a single YAML file naming a potential pair, a grid, and a
run type; every report embeds the fully resolved scenario (defaults
expanded) so runs can be archived and replayed.

Every number of the scenario is read once, by _number, whatever the run
type; a value that is not a finite number (a YAML boolean included) is a
parameter error naming its key.  main maps errors to exit codes from one
table, _EXITS: 2 for a ScenarioError (a scenario file that cannot be
read or parsed, or is not of its shape), 3 for a ParameterError (a
GridError included) or a DomainError (a potential evaluated where it is
not defined, such as at nodes within 1e-14 of the origin), 4 for a
SolverError, 5 for an AccuracyError; each leaves an error.json in the
output directory.  An --out-dir that cannot be made a directory is a
usage error, exit 2, with no error.json.  Exit 0 is success.  main
catches no other exception: any other exception is a bug in morcam, not
a bad input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .admissibility import admissibility_report
from .errors import AccuracyError, DomainError, ParameterError, SolverError
from .fields import (BUILTIN_POTENTIALS, finite_number, make_potential_pair,
                     radial_derivative_parts, trapping_component)
from .grids import RadialGrid, point_array, save_field
from .multipliers import check_estimate_parameters
from .resolvent import (DATUM_BUILTINS, build_problem, check_datum, check_memory,
                        check_resolvent_parameters, scale_exponent, solve)
from .verify import IDENTITY_BETA, epsilon_sweep, identity_scan

RUN_TYPES = {
    "fields-check": "max and mean |B_tau| over random sample points",
    "admissibility": "constants C1, C2, C3 and the smallness verdict",
    "solve": "solve the resolvent problem once and snapshot the solution",
    "verify-identity": "solve, then evaluate the multiplier identity",
    "sweep": "solve across an eps ladder and report estimate ratios",
}

_DEFAULTS = {
    "lambda": 0.0,
    "eps": 1.0,
    "eps_list": [1.0, 0.1, 0.01],
    "f": {"name": "gaussian"},
    "M": None,
    "beta": IDENTITY_BETA,
    "delta": None,
    "tol": 1e-10,
    "seed": 0,
    "samples": 1000,
}


class ScenarioError(Exception):
    """The scenario file cannot be read or parsed, or is not of its shape."""


#: The exit code and error.json kind of each error class main maps; an
#: exception maps through the first of its classes found here, so a
#: GridError is a parameter error.
_EXITS = {
    ScenarioError: (2, "parse"),
    ParameterError: (3, "parameter"),
    DomainError: (3, "parameter"),
    SolverError: (4, "solver"),
    AccuracyError: (5, "accuracy"),
}


def _plain(doc) -> bool:
    """Whether doc is JSON data: mappings with string keys, lists,
    strings, numbers, booleans and None, as a report can embed it."""
    if isinstance(doc, dict):
        return all(isinstance(k, str) and _plain(v) for k, v in doc.items())
    if isinstance(doc, list):
        return all(map(_plain, doc))
    return doc is None or isinstance(doc, (str, int, float))


def _resolve_scenario(path: str) -> dict:
    """The scenario in the YAML file path with its defaults filled in;
    ScenarioError when the file cannot be read, decoded as UTF-8 or
    parsed, or the scenario is not of its shape."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeError, yaml.YAMLError) as exc:
        raise ScenarioError(exc) from exc
    if not (isinstance(raw, dict) and _plain(raw)):
        raise ScenarioError("scenario must be a mapping of JSON data: string keys, "
                            "lists, strings, numbers, booleans and null")
    keys = {"n", "run", "grid", "potential", *_DEFAULTS}
    if not set(raw) <= keys:
        raise ScenarioError(f"unknown scenario keys {sorted(set(raw) - keys)}; "
                            f"choose from {sorted(keys)}")
    sc = {**_DEFAULTS, **raw}
    for key in ("n", "grid", "run"):
        if key not in sc:
            raise ScenarioError(f"scenario is missing required key '{key}'")
    if not isinstance(sc["run"], str) or sc["run"] not in RUN_TYPES:
        raise ScenarioError(
            f"unknown run type {sc['run']!r}; choose from {sorted(RUN_TYPES)}")
    pot = {} if sc.get("potential") is None else sc["potential"]
    if not isinstance(pot, dict) or not set(pot) <= {"A", "V"}:
        raise ScenarioError(
            f"potential must be a mapping with keys A and V, got {pot!r}")
    sc["potential"] = {"A": pot.get("A"), "V": pot.get("V")}
    if not isinstance(sc["grid"], dict) or set(sc["grid"]) != {"L", "h"}:
        raise ScenarioError(
            f"grid must be a mapping with keys L and h, got {sc['grid']!r}")
    return sc


def _number(value, key: str, least: int | None = None):
    """The scenario value of key as a finite float, or, given least, as
    an int >= least.  A bool, a string, a list, a mapping, None, a value
    that is not finite or a count that is not such an integer raises
    ParameterError naming key (see fields.finite_number).  Other ranges
    are the library's checks."""
    if not finite_number(value):
        raise ParameterError(f"{key} must be a finite number, got {value!r}")
    if least is not None and (value != int(value) or value < least):
        raise ParameterError(f"{key} must be an integer >= {least}, got {value!r}")
    return float(value) if least is None else int(value)


def _read_numbers(sc: dict) -> dict:
    """A copy of the resolved scenario sc for use, with every number read
    by _number, whatever the run type: n, L and h (flattened out of grid),
    lambda, eps, tol, beta, M and delta (both may be None), seed, samples
    and each entry of eps_list.  The reports embed sc itself, so a value
    is reported as written."""
    p = dict(sc, **{k: _number(sc["grid"][k], k) for k in ("L", "h")})
    for key in ("lambda", "eps", "tol", "beta"):
        p[key] = _number(sc[key], key)
    for key in ("M", "delta"):
        p[key] = None if sc[key] is None else _number(sc[key], key)
    for key, least in (("n", 3), ("seed", 0), ("samples", 1)):
        p[key] = _number(sc[key], key, least)
    if not isinstance(sc["eps_list"], list):
        raise ParameterError(f"eps_list must be a list of numbers, got {sc['eps_list']!r}")
    p["eps_list"] = [_number(e, "eps_list entry") for e in sc["eps_list"]]
    return p


def _build(p):
    pp = make_potential_pair(p["n"], p["potential"]["A"], p["potential"]["V"])
    return pp, RadialGrid(p["n"], p["L"], p["h"])


def _run_fields_check(p, out_dir: Path):
    pp, grid = _build(p)
    n, L, samples = grid.n, grid.L, p["samples"]
    check_memory(math.log2(samples * n * 8), f"a fields-check of {samples} points")
    pts = np.random.default_rng(p["seed"]).uniform(-L, L, size=(samples, n))
    pts = pts[np.linalg.norm(pts, axis=1) > 0.5]
    if not pts.size:
        raise ParameterError(f"samples: none of {samples} points lies at |x| > 0.5")
    btn = np.linalg.norm(trapping_component(pp, pts), axis=1)
    return {
        "max_btau": float(btn.max()),
        "mean_btau": float(btn.mean()),
        "samples": int(pts.shape[0]),
    }


def _run_admissibility(p, out_dir: Path):
    pp, _grid = _build(p)
    return admissibility_report(pp).to_json()


def _problem(p):
    # before the grid is sampled
    check_resolvent_parameters(p["lambda"], p["eps"], p["tol"])
    pp, grid = _build(p)
    return build_problem(pp, p["lambda"], p["eps"], p["f"], grid)


def _run_solve(p, out_dir: Path):
    u = solve(_problem(p), tol=p["tol"])
    snap = out_dir / "solution.field"
    save_field(u, snap)
    return {
        "residual": float(u.residual),
        "iterations": u.iterations,
        "cycles": u.cycles,
        "l2_norm": _l2_norm(u),
        "snapshot": str(snap),
    }


def _l2_norm(u) -> float:
    """The L2 norm of the solution u, taken on u scaled by 2^k, k =
    resolvent.scale_exponent(u) (as solve scales its datum), so that the
    squares of a tiny u do not underflow."""
    k = scale_exponent(u)
    if k:
        u = u.scaled(2.0 ** k)
    return math.sqrt(u.l2_norm_sq()) * 2.0 ** -k


def _run_verify_identity(p, out_dir: Path):
    check_estimate_parameters(M=p["M"], beta=p["beta"], n=p["n"])
    prob = _problem(p)
    check_datum(prob.f)
    # the 2^n central nodes, nearest the origin and the z-axis where the
    # built-ins are singular, are tried before the solve, so that a
    # potential undefined there is refused up front: through d_r V, which
    # the identity samples at every node (when there is a V), and through
    # B_tau for every A.  The identity samples no B_tau of a non_trapping
    # A, and the link phases sample A with no domain check, so for such an
    # A this try is the run's one domain check of A before the solve
    pp, grid = prob.disc.pp, prob.grid
    near = point_array([grid.coords_1d[grid.central]] * grid.n)
    if pp.V is not None or pp.dV_r is not None:
        radial_derivative_parts(pp, near)
    if pp.A is not None:
        trapping_component(pp, near)
    u = solve(prob, tol=p["tol"])
    rep = identity_scan(u, prob.f, prob.disc, p["lambda"], p["eps"], M=p["M"], beta=p["beta"])
    return rep.to_json()


def _run_sweep(p, out_dir: Path):
    pp, grid = _build(p)
    rep = epsilon_sweep(pp, p["lambda"], p["f"], p["eps_list"], grid,
                        M=p["M"], delta=p["delta"], tol=p["tol"])
    csv_path = out_dir / "sweep.csv"
    csv_path.write_text(rep.to_csv(), encoding="utf-8", newline="\n")
    return {**rep.to_json(), "csv": str(csv_path)}


#: The runner of each run type: the scenario with its numbers read (see
#: _read_numbers) and the output directory in, the report's result out.
_RUNNERS = {
    "fields-check": _run_fields_check,
    "admissibility": _run_admissibility,
    "solve": _run_solve,
    "verify-identity": _run_verify_identity,
    "sweep": _run_sweep,
}


def list_builtins(as_json: bool) -> str:
    data = {
        "potentials": BUILTIN_POTENTIALS,
        "data": DATUM_BUILTINS,
        "run_types": RUN_TYPES,
    }
    if as_json:
        return json.dumps(data, indent=2, sort_keys=True)
    lines = ["built-in potentials:"]
    for name, info in BUILTIN_POTENTIALS.items():
        lines.append(f"  {name:15s} [{info['kind']}] {info['doc']}"
                     + (f"  params: {info['params']}" if info["params"] else ""))
    lines.append("built-in data (f):")
    for name, params in DATUM_BUILTINS.items():
        lines.append(f"  {name:15s} params: {params}")
    lines.append("run types:")
    for name, doc in RUN_TYPES.items():
        lines.append(f"  {name:15s} {doc}")
    return "\n".join(lines)


def _write_report(out_dir: Path, name: str, payload: dict) -> Path:
    path = out_dir / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="morcam",
        description="Scenario-driven runs: trapping-field checks, "
                    "admissibility verdicts, resolvent solves, multiplier "
                    "identity verification, and eps sweeps.")
    parser.add_argument("scenario", nargs="?", help="scenario YAML file")
    parser.add_argument("--list-builtins", action="store_true",
                        help="print built-in potentials, data and run types")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable --list-builtins output")
    parser.add_argument("--json-only", action="store_true",
                        help="suppress the human-readable summary line")
    parser.add_argument("--out-dir", default=".", help="report directory")
    parser.add_argument("--version", action="version", version=__version__)
    args = parser.parse_args(argv)

    if args.list_builtins:
        print(list_builtins(args.json))
        return 0
    if not args.scenario:
        parser.print_usage(sys.stderr)
        return 2

    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"morcam: usage error: --out-dir: {exc}", file=sys.stderr)
        return 2

    sc = None
    try:
        sc = _resolve_scenario(args.scenario)
        result = _RUNNERS[sc["run"]](_read_numbers(sc), out_dir)
    except tuple(_EXITS) as exc:
        code, kind = next(_EXITS[c] for c in type(exc).__mro__ if c in _EXITS)
        # sc is None for a parse error; vars(exc) holds the error's own
        # attributes, a SolverError's achieved_residual
        _write_report(out_dir, "error.json", {
            "error": kind, "detail": str(exc), "scenario": sc, **vars(exc)})
        print(f"morcam: {kind} error: {exc}", file=sys.stderr)
        return code

    payload = {"scenario": sc, "result": result, "version": __version__}
    path = _write_report(out_dir, f"{sc['run']}.json", payload)
    if not args.json_only:
        print(f"morcam: {sc['run']} report written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
