import copy
import functools
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import morcam
from morcam import admissibility, verify
from morcam.cli import RUN_TYPES, main
from morcam.grids import load_field


def write_scenario(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


def run(tmp_path, doc, extra=()):
    scenario = write_scenario(tmp_path, doc)
    out = tmp_path / "out"
    code = main([scenario, "--out-dir", str(out), *extra])
    return code, out


def test_fields_check_nontrapping(tmp_path, capsys):
    code, out = run(tmp_path, {
        "n": 3, "run": "fields-check",
        "potential": {"A": {"name": "ex13"}},
        "grid": {"L": 4.0, "h": 0.5},
        "samples": 200,
    })
    assert code == 0
    doc = json.loads((out / "fields-check.json").read_text())
    assert doc["result"]["max_btau"] < 1e-8
    assert doc["scenario"]["eps"] == 1.0  # defaults are embedded
    assert "report written" in capsys.readouterr().out


def test_admissibility_rejects_attractive_coulomb(tmp_path):
    code, out = run(tmp_path, {
        "n": 3, "run": "admissibility",
        "potential": {"V": {"name": "coulomb", "c": -1.0}},
        "grid": {"L": 4.0, "h": 0.5},
    })
    assert code == 0  # a negative verdict is a successful run
    doc = json.loads((out / "admissibility.json").read_text())
    assert doc["result"]["admissible"] is False
    assert doc["result"]["C2"] is None or doc["result"]["C2"] == float("inf") \
        or doc["result"]["C2"] > 1e6


def test_solve_writes_loadable_snapshot(tmp_path):
    code, out = run(tmp_path, {
        "n": 3, "run": "solve",
        "grid": {"L": 4.0, "h": 0.5},
        "lambda": 1.0, "eps": 0.5,
        "f": {"name": "gaussian", "width": 0.6},
        "tol": 1e-8,
    }, extra=["--json-only"])
    assert code == 0
    doc = json.loads((out / "solve.json").read_text())
    assert doc["result"]["residual"] <= 1e-8
    u = load_field(out / "solution.field")
    assert np.isfinite(u.values).all()
    assert np.abs(u.values).max() > 0


def test_point_datum_of_null_width_is_its_default(tmp_path):
    # a null width means the point datum's default, 2h: the same solution,
    # byte for byte, as the datum named without parameters (on a box wide
    # enough for the datum to vanish at its boundary)
    snapshots = []
    for i, f in enumerate(({"name": "point", "width": None}, "point")):
        (tmp_path / str(i)).mkdir()
        doc = {**TINY, "run": "solve", "grid": {"L": 4.0, "h": 0.25}, "f": f}
        code, out = run(tmp_path / str(i), doc, extra=["--json-only"])
        assert code == 0
        snapshots.append((out / "solution.field").read_bytes())
    assert snapshots[0] == snapshots[1]


def test_verify_identity_samples_link_phases_once(tmp_path, link_phase_calls):
    code, _ = run(tmp_path, {
        "n": 3, "run": "verify-identity",
        "potential": {"A": {"name": "ex13"}},
        "grid": {"L": 4.0, "h": 0.5},
        "lambda": 1.0, "eps": 1.0,
        "f": {"name": "gaussian", "width": 0.6},
        "tol": 1e-8,
    }, extra=["--json-only"])
    assert code == 0
    assert len(link_phase_calls) == 1


def test_verify_identity_run(tmp_path):
    code, out = run(tmp_path, {
        "n": 3, "run": "verify-identity",
        "grid": {"L": 8.0, "h": 0.5},
        "lambda": 0.0, "eps": 1.0,
        "f": {"name": "gaussian", "width": 0.8},
        "tol": 1e-8,
    }, extra=["--json-only"])
    assert code == 0
    doc = json.loads((out / "verify-identity.json").read_text())
    assert doc["result"]["residual_rel"] < 0.5
    assert "lhs_terms" in doc["result"]


def test_sweep_writes_csv(tmp_path):
    code, out = run(tmp_path, {
        "n": 3, "run": "sweep",
        "grid": {"L": 4.0, "h": 0.5},
        "lambda": 1.0,
        "eps_list": [1.0, 0.5],
        "f": {"name": "gaussian", "width": 0.6},
        "tol": 1e-8,
    }, extra=["--json-only"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "eps,lhs,rhs,ratio"
    assert len(lines) == 3
    doc = json.loads((out / "sweep.json").read_text())
    assert len(doc["result"]["entries"]) == 2
    assert isinstance(doc["result"]["blow_up"], bool)


@pytest.mark.parametrize("change, notes", [
    # criterion 12's rejected case: the estimate is diagnostic
    ({"potential": {"V": {"name": "coulomb", "c": -1.0}}},
     ["configuration not admissible; estimate run is diagnostic"]),
    ({"lambda": 0.0},
     ["lambda=0 convention: N(f/|lambda|^(1/2)) term undefined, omitted"]),
    ({}, None),
])
def test_sweep_report_carries_the_estimate_notes_once(tmp_path, change, notes):
    code, out = run(tmp_path, {**TINY, "run": "sweep", "lambda": 1.0,
                               "eps_list": [1.0, 0.5], **change})
    assert code == 0
    result = json.loads((out / "sweep.json").read_text())["result"]
    assert len(result["entries"]) == 2
    assert result.get("notes") == notes


@pytest.mark.parametrize("change, notes", [
    ({"potential": {"V": {"name": "coulomb", "c": -1.0}}},
     ["configuration not admissible; estimate run is diagnostic"]),
    ({"lambda": 0.0},
     ["lambda=0 convention: N(f/|lambda|^(1/2)) term undefined, omitted"]),
])
def test_sweep_notes_stand_when_every_solve_fails(tmp_path, monkeypatch, change, notes):
    # the notes follow from the pair's verdict and lambda, not from a solve
    def failing_solve(prob, tol):
        raise morcam.SolverError("no convergence")

    monkeypatch.setattr(verify, "solve", failing_solve)
    code, out = run(tmp_path, {**TINY, "run": "sweep", "lambda": 1.0,
                               "eps_list": [1.0, 0.5], **change})
    assert code == 0
    result = json.loads((out / "sweep.json").read_text())["result"]
    assert result["entries"] == []
    assert set(result["errors"]) == {"1.0", "0.5"}
    assert result["notes"] == notes


def test_solve_and_sweep_report_solver_work(tmp_path, operator_calls):
    # iterations (Arnoldi steps) and restart cycles in the solve report and
    # in every sweep entry, but not in the sweep CSV; each ex13 solve runs
    # at least one cycle, a free one none
    magnetic = {"n": 3, "potential": {"A": {"name": "ex13"}},
                "grid": {"L": 4.0, "h": 0.5}, "lambda": 1.0,
                "f": {"name": "gaussian", "width": 0.6}, "tol": 1e-8}
    code, out = run(tmp_path, {**magnetic, "run": "solve", "eps": 0.5},
                    extra=["--json-only"])
    assert code == 0
    res = json.loads((out / "solve.json").read_text())["result"]
    assert res["iterations"] > 0 and res["cycles"] >= 1
    assert operator_calls["apply"] == 1 + res["iterations"] + res["cycles"]

    for potential, free in ((magnetic["potential"], False), ({}, True)):
        sweep = {**magnetic, "run": "sweep", "eps_list": [1.0, 0.6],
                 "potential": potential}
        (tmp_path / str(free)).mkdir()
        code, out = run(tmp_path / str(free), sweep, extra=["--json-only"])
        assert code == 0
        for e in json.loads((out / "sweep.json").read_text())["result"]["entries"]:
            if free:
                assert (e["iterations"], e["cycles"]) == (0, 0)
            else:
                assert e["iterations"] > 0 and e["cycles"] >= 1
        assert (out / "sweep.csv").read_text().splitlines()[0] == "eps,lhs,rhs,ratio"


def test_malformed_yaml_is_exit_2(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("run: [unterminated\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([str(path), "--out-dir", str(out)]) == 2
    doc = json.loads((out / "error.json").read_text())
    assert doc["error"] == "parse"


def test_missing_keys_is_exit_2(tmp_path):
    code, out = run(tmp_path, {"n": 3, "run": "solve"})
    assert code == 2
    assert json.loads((out / "error.json").read_text())["error"] == "parse"


def test_unknown_run_type_is_exit_2(tmp_path):
    code, _ = run(tmp_path, {
        "n": 3, "run": "frobnicate", "grid": {"L": 4.0, "h": 0.5}})
    assert code == 2


def test_bad_parameter_is_exit_3(tmp_path):
    # an unknown built-in name, a spec without a name, an unknown parameter
    for bad in ({"f": {"name": "no-such-datum"}}, {"f": {"width": 1}},
                {"potential": {"A": {"c": 1}}},
                {"potential": {"A": {"name": "ex13", "strength": 5}}}):
        code, out = run(tmp_path, {
            "n": 3, "run": "solve", "grid": {"L": 4.0, "h": 0.5}, **bad,
        })
        assert code == 3, bad
        doc = json.loads((out / "error.json").read_text())
        assert doc["error"] == "parameter"
        assert "scenario" in doc


@pytest.mark.parametrize("run_type, bad", [
    ("sweep", {"eps_list": [0.0]}),
    ("solve", {"lambda": float("nan")}),
    ("solve", {"eps": float("inf")}),
    ("solve", {"tol": float("nan")}),
    ("solve", {"tol": 0.0}),
    ("solve", {"tol": -1.0}),
    ("solve", {"grid": {"L": float("inf"), "h": 0.5}}),
    ("solve", {"grid": {"L": 4.0, "h": float("inf")}}),
    ("solve", {"n": 3.7}),
    ("sweep", {"delta": float("nan")}),
    ("sweep", {"delta": 0.0}),
    ("sweep", {"M": float("nan")}),
    ("verify-identity", {"M": float("nan")}),
    ("verify-identity", {"M": -1.0}),
    ("verify-identity", {"beta": float("nan")}),
    ("verify-identity", {"beta": 0.0}),
    ("verify-identity", {"beta": 0.5}),
    ("sweep", {"lambda": -1.0}),
    ("sweep", {"lambda": float("nan")}),
    ("sweep", {"tol": -1.0}),
    ("sweep", {"seed": float("inf")}),
    # an empty ladder swept nothing and exited 0
    ("sweep", {"eps_list": []}),
    # a repeated eps ran two identical solves and wrote two entries
    ("sweep", {"eps_list": [1.0, 1.0]}),
])
def test_nonfinite_or_zero_parameter_is_exit_3(tmp_path, monkeypatch, operator_calls,
                                               run_type, bad):
    quadratures = []
    monkeypatch.setattr(admissibility, "compute_constants",
                        lambda *args, **kwargs: quadratures.append(args))
    code, out = run(tmp_path, {
        "n": 3, "run": run_type, "grid": {"L": 4.0, "h": 0.5},
        "f": {"name": "gaussian", "width": 0.6}, **bad,
    })
    assert code == 3
    doc = json.loads((out / "error.json").read_text())
    assert doc["error"] == "parameter"
    # the detail names the parameter: eps for eps_list, L or h for grid
    [(key, value)] = bad.items()
    if key == "eps_list":
        key = "eps"
    elif key == "grid":
        [key] = [k for k, v in value.items() if not math.isfinite(v)]
    assert key in doc["detail"]
    assert operator_calls["apply"] == 0  # rejected before any solve starts
    assert quadratures == []  # and before the admissibility quadrature


@pytest.mark.parametrize("run_type, bad, name", [
    # a NaN coulomb c ran 2000 Arnoldi steps on NaN before exit 3
    ("sweep", {"potential": {"V": {"name": "coulomb", "c": float("nan")}}}, "c"),
    # an infinite amplitude was capped at 1/h^2 and swept to exit 0
    ("sweep", {"potential": {"V": {"name": "gaussian", "amplitude": float("inf")}}},
     "amplitude"),
    # a NaN width gave an admissibility verdict with C2 = C3 = NaN
    ("admissibility", {"potential": {"V": {"name": "gaussian", "width": float("nan")}}},
     "width"),
    ("solve", {"f": {"name": "gaussian", "width": float("nan")}}, "width"),
    ("sweep", {"f": {"name": "wave", "center": [0.0, float("nan"), 0.0]}}, "center"),
    ("solve", {"f": {"name": "wave", "k": float("-inf")}}, "k"),
    # a zero width sampled an all-zero datum that solved to 0, and a
    # negative one was read as its absolute value
    ("solve", {"f": {"name": "gaussian", "width": 0.0}}, "width"),
    ("solve", {"f": {"name": "gaussian", "width": -1.0}}, "width"),
    ("solve", {"f": {"name": "shell", "width": 0.0}}, "width"),
    ("sweep", {"f": {"name": "point", "width": -0.5}}, "width"),
    ("solve", {"f": {"name": "shell", "width": None}}, "width"),
])
def test_nonfinite_builtin_parameter_is_exit_3(tmp_path, monkeypatch, operator_calls,
                                               run_type, bad, name):
    quadratures = []
    monkeypatch.setattr(admissibility, "compute_constants",
                        lambda *args, **kwargs: quadratures.append(args))
    code, out = run(tmp_path, {
        "n": 3, "run": run_type, "grid": {"L": 4.0, "h": 0.5}, "eps_list": [1.0],
        "f": {"name": "gaussian", "width": 0.6}, **bad,
    })
    assert code == 3
    doc = json.loads((out / "error.json").read_text())
    assert doc["error"] == "parameter"
    assert f"parameter {name} " in doc["detail"]
    assert operator_calls["apply"] == 0  # rejected before any solve starts
    assert quadratures == []  # and before the admissibility quadrature


@pytest.mark.parametrize("run_type, bad", [
    ("verify-identity", {"M": float("nan")}),
    ("sweep", {"delta": float("nan"), "eps_list": [1.0]}),
    ("sweep", {"delta": -1.0, "eps_list": [1.0]}),
])
def test_nonfinite_or_negative_estimate_parameter_is_exit_3(tmp_path, run_type, bad):
    code, out = run(tmp_path, {
        "n": 3, "run": run_type, "grid": {"L": 4.0, "h": 0.5},
        "f": {"name": "gaussian", "width": 0.6}, "tol": 1e-8, **bad,
    })
    assert code == 3
    assert json.loads((out / "error.json").read_text())["error"] == "parameter"


@pytest.mark.parametrize("bad, key", [
    ({"potential": [1, 2]}, "potential"),
    ({"run": [1]}, "run"),
    ({"potential": {"v": {"name": "coulomb", "c": -1.0}}}, "'v'"),
    ({"grid": {"L": 4.0, "h": 0.5, "m": 8}}, "'m'"),
])
def test_malformed_scenario_shape_is_exit_2(tmp_path, operator_calls, bad, key):
    # a potential or run that is not of its shape ended in a traceback,
    # and an unknown key inside potential or grid was dropped
    code, out = run(tmp_path, {
        "n": 3, "run": "solve", "grid": {"L": 4.0, "h": 0.5}, **bad})
    assert code == 2
    doc = json.loads((out / "error.json").read_text())
    assert doc["error"] == "parse"
    assert key in doc["detail"]
    assert operator_calls == {"apply": 0, "precond": 0}


def test_zero_datum_solve_reports_zero_residual(tmp_path):
    code, out = run(tmp_path, {
        "n": 3, "run": "solve", "grid": {"L": 4.0, "h": 0.5},
        "f": {"name": "gaussian", "amplitude": 0},
    }, extra=["--json-only"])
    assert code == 0
    assert json.loads((out / "solve.json").read_text())["result"]["residual"] == 0.0


def test_grid_too_large_for_memory_is_exit_3(tmp_path):
    # 1024^4 nodes: over 2 PB of Krylov basis, refused before any sampling
    start = time.perf_counter()
    code, out = run(tmp_path, {
        "n": 4, "run": "solve", "grid": {"L": 64.0, "h": 0.125}})
    assert code == 3
    assert time.perf_counter() - start < 10.0
    doc = json.loads((out / "error.json").read_text())
    assert doc["error"] == "parameter"
    assert "physical memory" in doc["detail"]


@pytest.mark.parametrize("samples", [1.0e13, 0, -5, 2.5])
def test_impossible_sample_count_is_exit_3(tmp_path, samples):
    # 1e13 three-dimensional points need 218 TiB: refused before sampling
    code, out = run(tmp_path, {
        "n": 3, "run": "fields-check", "grid": {"L": 4.0, "h": 0.5},
        "potential": {"A": {"name": "ex13"}}, "samples": samples})
    assert code == 3
    doc = json.loads((out / "error.json").read_text())
    assert doc["error"] == "parameter"
    assert ("physical memory" if samples == 1.0e13 else "samples") in doc["detail"]


@pytest.mark.parametrize("seed", [float("inf"), float("nan"), 1.5, -1, "x"])
def test_bad_seed_is_exit_3(tmp_path, seed):
    code, out = run(tmp_path, {
        "n": 3, "run": "fields-check", "grid": {"L": 4.0, "h": 0.5},
        "potential": {"A": {"name": "ex13"}}, "samples": 200, "seed": seed})
    assert code == 3
    doc = json.loads((out / "error.json").read_text())
    assert doc["error"] == "parameter"
    assert "seed" in doc["detail"]


def test_cli_import_loads_no_scipy():
    src = str(Path(morcam.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, morcam.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_unknown_scenario_key_is_exit_2(tmp_path):
    code, out = run(tmp_path, {
        "n": 3, "run": "solve", "grid": {"L": 4.0, "h": 0.5}, "grid_typo": 1})
    assert code == 2
    doc = json.loads((out / "error.json").read_text())
    assert doc["error"] == "parse"
    assert "grid_typo" in doc["detail"]


def test_missing_scenario_is_exit_2(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_list_builtins_text_and_json(capsys):
    assert main(["--list-builtins"]) == 0
    text = capsys.readouterr().out
    assert "ex13" in text and "ex14" in text and "sweep" in text

    assert main(["--list-builtins", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "potentials" in doc and "data" in doc and "run_types" in doc


def test_runs_are_deterministic(tmp_path):
    doc = {
        "n": 3, "run": "solve",
        "grid": {"L": 4.0, "h": 0.5},
        "lambda": 1.0, "eps": 0.5,
        "f": {"name": "gaussian", "width": 0.6},
        "tol": 1e-8,
    }
    scenario = write_scenario(tmp_path, doc)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main([scenario, "--out-dir", str(out), "--json-only"]) == 0
        outs.append(load_field(out / "solution.field").values)
    assert np.array_equal(outs[0], outs[1])


# A tiny scenario of each run type on an 8^3 grid, for one-key changes.
TINY = {"n": 3, "grid": {"L": 2.0, "h": 0.5}, "eps_list": [1.0], "tol": 1e-6,
        "f": {"name": "gaussian", "width": 0.6}, "samples": 50}
# the benchmark's magnetic pair, whose Jacobians form |x|^4
_MAGNETIC = {"A": {"name": "ex13"}, "V": {"name": "exp_screened", "amplitude": 0.3}}


@pytest.mark.parametrize("run_type, bad, named", [
    # a string reached exit 3 only through a TypeError/ValueError catch-all,
    # with a detail such as "could not convert string to float: 'a'"
    ("solve", {"lambda": "a"}, "lambda must be a finite number"),
    ("solve", {"grid": {"L": "a", "h": 0.5}}, "L must be a finite number"),
    ("solve", {"n": "a"}, "n must be a finite number"),
    ("solve", {"tol": "a"}, "tol must be a finite number"),
    ("verify-identity", {"beta": "a"}, "beta must be a finite number"),
    ("verify-identity", {"M": "a"}, "M must be a finite number"),
    ("fields-check", {"samples": "a"}, "samples must be a finite number"),
    ("solve", {"f": {"name": "gaussian", "center": "a"}}, "parameter center "),
    ("solve", {"f": {"name": "wave", "k": "a"}}, "parameter k "),
    ("admissibility", {"potential": {"V": {"name": "gaussian", "amplitude": "a"}}},
     "parameter amplitude "),
    # "'int' object is not iterable" and "operands could not be broadcast"
    ("sweep", {"eps_list": 5}, "eps_list"),
    ("sweep", {"eps_list": {"a": 1.0}}, "eps_list"),
    ("sweep", {"potential": {"V": {"name": "coulomb", "c": [1, 2]}}}, "parameter c "),
    ("solve", {"f": {"name": "gaussian", "center": [1, 2]}}, "parameter center "),
    ("solve", {"f": {"name": "wave", "center": [0.0, 0.0, 0.0, 0.0]}},
     "parameter center "),
    # a YAML boolean was read as 1 (or 0) and most of these exited 0
    ("solve", {"grid": {"L": 2.0, "h": True}}, "h must be a finite number"),
    ("solve", {"grid": {"L": True, "h": 0.5}}, "L must be a finite number"),
    ("solve", {"lambda": True}, "lambda must be a finite number"),
    ("solve", {"eps": True}, "eps must be a finite number"),
    ("solve", {"tol": True}, "tol must be a finite number"),
    ("solve", {"n": True}, "n must be a finite number"),
    ("solve", {"f": {"name": "gaussian", "width": True}}, "parameter width "),
    ("solve", {"f": {"name": "wave", "center": [0.0, True, 0.0]}},
     "parameter center "),
    ("sweep", {"potential": {"V": {"name": "coulomb", "c": True}}}, "parameter c "),
    ("sweep", {"eps_list": [True]}, "eps_list"),
    ("sweep", {"delta": True}, "delta must be a finite number"),
    ("verify-identity", {"M": True}, "M must be a finite number"),
    ("fields-check", {"samples": True}, "samples must be a finite number"),
    ("fields-check", {"seed": True}, "seed must be a finite number"),
    # None, a list or a mapping where a number is expected
    ("solve", {"eps": None}, "eps must be a finite number"),
    ("solve", {"lambda": [1.0]}, "lambda must be a finite number"),
    ("sweep", {"tol": {"x": 1.0}}, "tol must be a finite number"),
    ("verify-identity", {"beta": None}, "beta must be a finite number"),
    ("sweep", {"M": [1.0]}, "M must be a finite number"),
    ("sweep", {"eps_list": [None]}, "eps_list"),
    ("fields-check", {"seed": None}, "seed must be a finite number"),
    ("solve", {"f": {"name": "shell", "radius": [1.0]}}, "parameter radius "),
    ("solve", {"f": {"name": "gaussian", "amplitude": None}}, "parameter amplitude "),
    # no sample point at |x| > 0.5: a ValueError from max() over none
    ("fields-check", {"grid": {"L": 0.25, "h": 0.25}}, "samples: none of"),
    # an int past the float range ended in an OverflowError traceback
    ("solve", {"lambda": 10 ** 400}, "lambda must be a finite number"),
    # a subnormal h made L/h infinite: OverflowError traceback
    ("solve", {"grid": {"L": 2.0, "h": 5e-324}}, "L/h must be a positive integer"),
    # 8^400 nodes: OverflowError traceback while forming the memory
    # message; 8^(10^12) nodes: m**n never finished
    ("solve", {"n": 400}, "a solve on a grid of 8^400 nodes"),
    ("sweep", {"n": 1.0e12}, "a solve on a grid of 8^1000000000000 nodes"),
    # a block of quadrature points, n coordinates each: MemoryError traceback
    ("admissibility", {"n": 1.0e12, "potential": {"V": {"name": "coulomb"}}},
     "a radial quadrature in 1000000000000 dimensions"),
    # n L^2 past the float range: an OverflowError traceback from 1/h^2
    ("solve", {"grid": {"L": 2.0e200, "h": 1.0e200}}, "L=2e+200 is outside the float range"),
    # h^2 underflowing to 0: a ZeroDivisionError traceback
    ("solve", {"grid": {"L": 1.0e-200, "h": 1.0e-200}}, "L=1e-200 is outside the float range"),
    # 1/h^2 infinite: a solver error, exit 4
    ("solve", {"grid": {"L": 1.0e-160, "h": 1.0e-160}}, "L=1e-160 is outside the float range"),
    # |x|^4 past the float range: an overflow in ex13's Jacobian, and with
    # warnings not errors an all-zero identity report with exit 0
    ("verify-identity", {"grid": {"L": 4.0e100, "h": 1.0e100}, "potential": _MAGNETIC},
     "L=4e+100 is outside the float range"),
    ("verify-identity", {"grid": {"L": 1.0e80, "h": 1.0e80}, "potential": _MAGNETIC},
     "L=1e+80 is outside the float range"),
    # the preconditioner's table squares eigenvalue gaps up to 4n/h^2: an
    # overflow there (n L^2 squared underflows first at 1e-100, at 2e-77
    # it does not)
    ("solve", {"grid": {"L": 1.0e-100, "h": 1.0e-100}}, "L=1e-100 is outside the float range"),
    ("solve", {"grid": {"L": 2.0e-77, "h": 2.0e-77}}, "h=2e-77 is outside the float range of a solve"),
    # 4n/h^2 past float32's largest value: an overflow casting the stencil's
    # diagonal to complex64, and with warnings not errors a solver error
    # with a NaN residual, exit 4.  Refused by the discretization, which
    # every solve builds, before any sampling
    ("verify-identity", {"grid": {"L": 1.0e-70, "h": 1.0e-70}, "potential": _MAGNETIC},
     "h=1e-70 is outside the float range of a solve"),
    ("verify-identity", {"grid": {"L": 3.0e-77, "h": 3.0e-77}, "potential": _MAGNETIC},
     "h=3e-77 is outside the float range of a solve"),
])
def test_malformed_value_is_exit_3_naming_it(tmp_path, operator_calls,
                                              run_type, bad, named):
    code, out = run(tmp_path, {**TINY, "run": run_type, **bad})
    assert code == 3
    doc = json.loads((out / "error.json").read_text())
    assert doc["error"] == "parameter"
    assert doc["detail"].startswith(named)
    assert operator_calls == {"apply": 0, "precond": 0}  # no solve started


@pytest.mark.parametrize("potential, L, detail", [
    ({"V": {"name": "coulomb"}}, 1.0e-15, "evaluation at x = 0 is not defined"),
    ({"A": {"name": "ex14"}}, 1.0e-12, "this potential is singular on the z-axis"),
], ids=["coulomb", "ex14"])
def test_pair_undefined_at_every_node_is_exit_3(tmp_path, operator_calls,
                                                potential, L, detail):
    # grids of 2 nodes an axis (h = L), every node within 1e-14 of the
    # origin, where coulomb's d_r V is not defined, or within 1e-12 of the
    # z-axis, where ex14 is singular.  The coulomb run ended in a traceback
    # with exit 1, then in exit 3 after a whole solve; ex14's B_tau, which
    # the identity samples, was refused after a solve of 3 operator
    # applications.  The discretization tries the 2^n central nodes before
    # any operator exists
    code, out = run(tmp_path, {**TINY, "run": "verify-identity", "potential": potential,
                               "grid": {"L": L, "h": L}})
    assert code == 3
    doc = json.loads((out / "error.json").read_text())
    assert doc["error"] == "parameter"
    assert doc["detail"] == detail
    assert operator_calls == {"apply": 0, "precond": 0}


@pytest.mark.parametrize("run_type", ["solve", "sweep", "verify-identity"])
@pytest.mark.parametrize("potential, L, h, detail", [
    ({"V": {"name": "coulomb"}}, 4.0e-15, 1.0e-15, "evaluation at x = 0 is not defined"),
    ({"A": {"name": "ex13"}}, 4.0e-15, 1.0e-15, "evaluation at x = 0 is not defined"),
    ({"A": {"name": "ex14"}}, 4.0e-13, 1.0e-13, "this potential is singular on the z-axis"),
    ({"A": {"name": "ex14"}, "V": {"name": "coulomb"}}, 4.0e-13, 1.0e-13,
     "this potential is singular on the z-axis"),
], ids=["coulomb", "ex13", "ex14", "ex14+coulomb"])
@pytest.mark.filterwarnings("ignore:eps=")
def test_pair_undefined_on_the_grid_is_refused_before_any_solve(
        tmp_path, operator_calls, run_type, potential, L, h, detail):
    # the central nodes lie within 1e-14 of the origin (coulomb's d_r V,
    # ex13's B_tau) or near the z-axis (ex14's).  A solve was reported
    # with exit 0, an ex14 sweep too (its lhs 8.4e-51), and ex14 + coulomb
    # was refused only after a whole solve; only verify-identity tried the
    # central nodes.  Every run that solves samples the pair through
    # Discretization, which tries them before any operator exists.  The
    # grids have 8 nodes an axis, so the sweep's estimate has the 3
    # radial shells it checks for first
    code, out = run(tmp_path, {**TINY, "run": run_type, "potential": potential,
                               "grid": {"L": L, "h": h}})
    assert code == 3
    doc = json.loads((out / "error.json").read_text())
    assert doc["error"] == "parameter"
    assert doc["detail"] == detail
    assert operator_calls == {"apply": 0, "precond": 0}


@pytest.mark.filterwarnings("ignore:datum is not supported")
def test_datum_whose_squares_underflow_is_solved(tmp_path):
    # the squares of a wave of amplitude 1e-200 underflow, so its norm
    # read 0: the relative residual 0/0 was a RuntimeWarning (a traceback
    # under the suite's warning filters) and otherwise a solver error, exit
    # 4.  The solve scales the datum by a power of two and u back, so u is the
    # unit wave's solution times 1e-200.  Its l2_norm, whose squares
    # underflow too, read 0; it is taken on u scaled by a power of two
    doc = {**TINY, "run": "solve", "lambda": 1.0, "eps": 0.5, "tol": 1e-10}
    fields, norms = [], []
    for amplitude in (1.0, 1.0e-200):
        case = tmp_path / str(amplitude)
        case.mkdir()
        code, out = run(case, {**doc, "f": {"name": "wave", "amplitude": amplitude}})
        assert code == 0
        result = json.loads((out / "solve.json").read_text())["result"]
        assert result["residual"] <= 1e-10
        fields.append(load_field(out / "solution.field").values)
        norms.append(result["l2_norm"])
    unit, tiny = fields
    assert np.abs(tiny).max() > 0
    np.testing.assert_allclose(tiny, 1.0e-200 * unit, rtol=1e-8, atol=0)
    assert norms[1] > 0
    np.testing.assert_allclose(norms[1], 1.0e-200 * norms[0], rtol=1e-8, atol=0)


@pytest.mark.parametrize("run_type", ["sweep", "verify-identity"])
def test_datum_whose_squares_underflow_is_refused_by_estimate_runs(tmp_path, operator_calls,
                                                                   run_type):
    # the estimate and the identity square the solution as it is: a wave
    # of amplitude 1e-200 was solved and reported lhs = rhs = ratio = 0 (a
    # sweep, blow_up false) or lhs_total = rhs_total = residual_rel = 0,
    # with exit 0.  Its norm is below 2^-400, refused before any solve
    code, out = run(tmp_path, {**TINY, "run": run_type, "lambda": 1.0, "eps": 0.5,
                               "eps_list": [1.0, 0.5],
                               "f": {"name": "wave", "amplitude": 1.0e-200}})
    assert code == 3
    doc = json.loads((out / "error.json").read_text())
    assert doc["error"] == "parameter"
    assert "the datum's norm" in doc["detail"] and "2^-400" in doc["detail"]
    assert operator_calls == {"apply": 0, "precond": 0}


def test_grid_past_the_twin_range_is_refused_only_by_solves(tmp_path):
    # 4n/h^2 past float32's largest value is a bound of the complex64
    # twin's diagonal, which only solves build: an admissibility and a
    # fields-check run take such an h (at L = 2, 4e70 nodes an axis, which
    # neither samples)
    grid = {"L": 2.0, "h": 1.0e-70}
    for run_type in ("admissibility", "fields-check"):
        case = tmp_path / run_type
        case.mkdir()
        code, _ = run(case, {**TINY, "run": run_type, "grid": grid,
                             "potential": {"V": {"name": "exp_screened"}}})
        assert code == 0


@pytest.mark.filterwarnings("ignore:datum is not supported")
@pytest.mark.parametrize("key", ["lambda", "eps"])
def test_lambda_and_eps_past_the_float32_range_are_exit_3(tmp_path, operator_calls, key):
    # the complex64 twin holds lambda and eps in its diagonal: lambda 1e300
    # overflowed in the preconditioner's table, eps 1e200 in the twin's
    # cast (each a traceback under the suite's warning filters).  float32's
    # largest value solves; the next float above it, either sign for eps,
    # is refused before any solve
    top = float(np.finfo(np.float32).max)
    doc = {**TINY, "run": "solve", "potential": {"A": {"name": "ex13"}}}
    for i, value in enumerate((top, -top)[:1 + (key == "eps")]):
        case = tmp_path / f"ok{i}"
        case.mkdir()
        code, out = run(case, {**doc, key: value})
        assert code == 0
        assert json.loads((out / "solve.json").read_text())["result"]["residual"] <= 1e-6
    calls = operator_calls["apply"]
    beyond = float(np.nextafter(top, math.inf))
    for i, value in enumerate((beyond, -beyond)[:1 + (key == "eps")]):
        case = tmp_path / f"refused{i}"
        case.mkdir()
        code, out = run(case, {**doc, key: value})
        assert code == 3
        doc_err = json.loads((out / "error.json").read_text())
        assert doc_err["error"] == "parameter" and key in doc_err["detail"]
    assert operator_calls["apply"] == calls


def test_sweep_on_a_grid_of_one_shell_is_exit_3(tmp_path, operator_calls, monkeypatch):
    # L/h = 1 leaves one radial shell, and the sphere sup scans shells 2
    # and up: refused with the sweep's other checks, before the
    # admissibility quadrature or any solve
    def no_admissibility(pp):
        raise AssertionError("the admissibility constants were computed")

    monkeypatch.setattr(verify, "admissibility_report", no_admissibility)
    code, out = run(tmp_path, {**TINY, "run": "sweep", "grid": {"L": 2.0, "h": 2.0}})
    assert code == 3
    doc = json.loads((out / "error.json").read_text())
    assert doc["error"] == "parameter"
    assert "sphere_sup needs 3 radial shells" in doc["detail"]
    assert operator_calls == {"apply": 0, "precond": 0}


@pytest.mark.parametrize("text", [
    b"n: \xff\n",  # not UTF-8: a UnicodeDecodeError traceback
    # a date, and a mapping with a key that is not a string, cannot be
    # embedded in a JSON report: a TypeError traceback writing error.json
    b"n: 3\nrun: solve\ngrid: {L: 2.0, h: 0.5}\nlambda: 2020-01-01\n",
    b"n: 3\nrun: solve\ngrid: {L: 2.0, h: 0.5}\nf: {name: gaussian, 1: 2}\n",
])
def test_unreadable_scenario_is_exit_2(tmp_path, operator_calls, text):
    path = tmp_path / "scenario.yaml"
    path.write_bytes(text)
    out = tmp_path / "out"
    assert main([str(path), "--out-dir", str(out)]) == 2
    doc = json.loads((out / "error.json").read_text())
    assert doc["error"] == "parse"
    assert operator_calls == {"apply": 0, "precond": 0}


@pytest.mark.parametrize("out_dir", ["afile", "afile/sub"])
def test_unusable_out_dir_is_a_usage_error(tmp_path, capsys, operator_calls, out_dir):
    # an existing file raised FileExistsError, a path through one
    # NotADirectoryError, both with exit 1; no error.json can go there
    (tmp_path / "afile").write_text("", encoding="utf-8")
    scenario = write_scenario(tmp_path, {**TINY, "run": "solve"})
    assert main([scenario, "--out-dir", str(tmp_path / out_dir)]) == 2
    assert "morcam: usage error" in capsys.readouterr().err
    assert (tmp_path / "afile").read_text(encoding="utf-8") == ""
    assert operator_calls == {"apply": 0, "precond": 0}


# The places of one scenario value, as paths of keys into TINY with its
# potential; each run type reads a different subset.
_PLACES = [("n",), ("grid", "L"), ("grid", "h"), ("lambda",), ("eps",),
           ("eps_list",), ("eps_list", 0), ("tol",), ("M",), ("beta",),
           ("delta",), ("seed",), ("samples",), ("f",), ("f", "width"),
           ("f", "center"), ("f", "k"), ("f", "amplitude"), ("potential",),
           ("potential", "V"), ("potential", "V", "c"), ("grid",), ("run",)]
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=4))
_YAML_VALUES = (_SCALARS | st.lists(_SCALARS, max_size=3)
                | st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2))


@pytest.fixture
def small_machine(monkeypatch):
    """os.sysconf reporting 16 MiB of physical memory, so that every valid
    run stays small: a larger grid, sample or quadrature is refused as too
    large for memory."""
    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: 2 ** 24 // sysconf("SC_PAGE_SIZE")
                        if name == "SC_PHYS_PAGES" else sysconf(name))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run_type=st.sampled_from(sorted(RUN_TYPES)),
       place=st.sampled_from(_PLACES), value=_YAML_VALUES)
def test_any_value_ends_in_a_documented_exit_code(tmp_path_factory, small_machine,
                                                  run_type, place, value):
    doc = copy.deepcopy({**TINY, "run": run_type, "f": {"name": "wave"},
                         "potential": {"V": {"name": "coulomb", "c": 0.5}}})
    *outer, last = place
    functools.reduce(lambda d, k: d[k], outer, doc)[last] = value
    tmp = tmp_path_factory.mktemp("any")
    # values at the float range's edges overflow numpy arithmetic, which
    # numpy reports by RuntimeWarning; the property is the exit code, so
    # warnings stay warnings here even where the suite makes them errors
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out = run(tmp, doc, extra=["--json-only"])
    assert code in (0, 2, 3, 4)
    assert (code == 0) == (not (out / "error.json").exists())
