"""Scenario-driven command line front end.

A scenario is a single YAML file naming a potential pair, a grid, and a
run type; every report embeds the fully resolved scenario (defaults
expanded) so runs can be archived and replayed.

Exit codes: 0 success, 2 parse/usage error, 3 parameter error, 4 solver
error, 5 accuracy error.
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
from .errors import AccuracyError, ParameterError, SolverError
from .fields import BUILTIN_POTENTIALS, make_potential_pair, trapping_component
from .grids import RadialGrid, save_field
from .multipliers import check_estimate_parameters
from .resolvent import (DATUM_BUILTINS, Discretization, ResolventProblem,
                        check_memory, make_datum, solve)
from .verify import epsilon_sweep, identity_scan

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
    "beta": 1e-3,
    "delta": None,
    "tol": 1e-10,
    "seed": 0,
    "samples": 1000,
}


_KEYS = {"n", "run", "grid", "potential", *_DEFAULTS}


class ScenarioError(Exception):
    pass


def _check_keys(mapping: dict, allowed, where: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ScenarioError(
            f"unknown {where} keys {sorted(map(str, unknown))}; "
            f"choose from {sorted(allowed)}")


def _resolve_scenario(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a mapping")
    _check_keys(raw, _KEYS, "scenario")
    sc = dict(_DEFAULTS)
    sc.update(raw)
    for key in ("n", "grid", "run"):
        if key not in sc:
            raise ScenarioError(f"scenario is missing required key '{key}'")
    if not isinstance(sc["run"], str) or sc["run"] not in RUN_TYPES:
        raise ScenarioError(
            f"unknown run type {sc['run']!r}; choose from {sorted(RUN_TYPES)}")
    pot = sc.get("potential") or {}
    if not isinstance(pot, dict):
        raise ScenarioError("potential must be a mapping with keys A and V")
    _check_keys(pot, ("A", "V"), "potential")
    sc["potential"] = {"A": pot.get("A"), "V": pot.get("V")}
    grid = sc["grid"]
    if not isinstance(grid, dict) or "L" not in grid or "h" not in grid:
        raise ScenarioError("grid must be a mapping with keys L and h")
    _check_keys(grid, ("L", "h"), "grid")
    return sc


def _check_seed(seed) -> int:
    """The scenario's random seed as an int; ParameterError unless it is
    a finite, non-negative integer."""
    try:
        value = float(seed)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not (math.isfinite(value) and value >= 0 and value.is_integer()):
        raise ParameterError(
            f"seed must be a non-negative integer, got {seed!r}")
    return int(seed) if isinstance(seed, int) else int(value)


def _build(sc):
    n = sc["n"]
    if not float(n).is_integer():
        raise ParameterError(f"n must be an integer, got {n!r}")
    pp = make_potential_pair(int(n), sc["potential"]["A"], sc["potential"]["V"])
    grid = RadialGrid(int(n), float(sc["grid"]["L"]), float(sc["grid"]["h"]))
    return pp, grid


def _run_fields_check(sc, seed: int):
    pp, grid = _build(sc)
    n, L = grid.n, grid.L
    samples = float(sc["samples"])
    if not (math.isfinite(samples) and samples >= 1 and samples.is_integer()):
        raise ParameterError(
            f"samples must be a positive integer, got {sc['samples']!r}")
    check_memory(samples * n * 8, f"a fields-check of {samples:.0f} points")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-L, L, size=(int(samples), n))
    r = np.linalg.norm(pts, axis=1)
    pts = pts[r > 0.5]
    bt = trapping_component(pp, pts)
    btn = np.linalg.norm(bt, axis=1)
    return {
        "max_btau": float(btn.max()),
        "mean_btau": float(btn.mean()),
        "samples": int(pts.shape[0]),
    }


def _run_admissibility(sc):
    pp, _grid = _build(sc)
    return admissibility_report(pp).to_json()


def _solve(sc):
    pp, grid = _build(sc)
    disc = Discretization(grid, pp)
    f = make_datum(grid, sc["f"])
    prob = ResolventProblem(disc=disc, lam=float(sc["lambda"]),
                            eps=float(sc["eps"]), f=f)
    u = solve(prob, tol=float(sc["tol"]))
    return disc, f, u


def _run_solve(sc, out_dir: Path):
    _disc, _f, u = _solve(sc)
    snap = out_dir / "solution.field"
    save_field(u, snap)
    return {
        "residual": float(u.residual),
        "iterations": u.iterations,
        "cycles": u.cycles,
        "l2_norm": math.sqrt(u.l2_norm_sq()),
        "snapshot": str(snap),
    }


def _run_verify_identity(sc):
    M = float(sc["M"]) if sc["M"] is not None else 1.0
    check_estimate_parameters(M=M, beta=float(sc["beta"]), n=sc["n"])
    disc, f, u = _solve(sc)
    rep = identity_scan(u, f, disc, float(sc["lambda"]), float(sc["eps"]),
                        M=M, beta=float(sc["beta"]))
    return rep.to_json()


def _run_sweep(sc, out_dir: Path):
    pp, grid = _build(sc)
    rep = epsilon_sweep(pp, float(sc["lambda"]), sc["f"],
                        [float(e) for e in sc["eps_list"]], grid,
                        M=sc["M"], delta=sc["delta"], tol=float(sc["tol"]))
    csv_path = out_dir / "sweep.csv"
    csv_path.write_text(rep.to_csv(), encoding="utf-8", newline="\n")
    out = rep.to_json()
    out["csv"] = str(csv_path)
    return out


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
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
        sc = _resolve_scenario(raw)
    except (OSError, yaml.YAMLError, ScenarioError) as exc:
        _write_report(out_dir, "error.json",
                      {"error": "parse", "detail": str(exc)})
        print(f"morcam: scenario error: {exc}", file=sys.stderr)
        return 2

    try:
        run = sc["run"]
        seed = _check_seed(sc["seed"])
        if run == "fields-check":
            result = _run_fields_check(sc, seed)
        elif run == "admissibility":
            result = _run_admissibility(sc)
        elif run == "solve":
            result = _run_solve(sc, out_dir)
        elif run == "verify-identity":
            result = _run_verify_identity(sc)
        else:
            result = _run_sweep(sc, out_dir)
    except (ParameterError, ScenarioError, TypeError, ValueError) as exc:
        _write_report(out_dir, "error.json",
                      {"error": "parameter", "detail": str(exc), "scenario": sc})
        print(f"morcam: parameter error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        _write_report(out_dir, "error.json",
                      {"error": "solver", "detail": str(exc),
                       "achieved_residual": exc.achieved_residual, "scenario": sc})
        print(f"morcam: solver error: {exc}", file=sys.stderr)
        return 4
    except AccuracyError as exc:
        _write_report(out_dir, "error.json",
                      {"error": "accuracy", "detail": str(exc), "scenario": sc})
        print(f"morcam: accuracy error: {exc}", file=sys.stderr)
        return 5

    payload = {"scenario": sc, "result": result, "version": __version__}
    path = _write_report(out_dir, f"{sc['run']}.json", payload)
    if not args.json_only:
        print(f"morcam: {sc['run']} report written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
