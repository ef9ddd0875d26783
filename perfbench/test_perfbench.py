"""Self-test of the benchmark on shrunken scenarios.

    python3 -m pytest -q perfbench

Checks that every expected span is recorded and that the metric names
match BENCHMARK.json, so a layer that stops being traced (for example
zero resolvent.apply calls on a sweep) fails here rather than silently
reporting zeros.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SMALL_GRID = {"sweep": {"L": 6.0, "h": 0.5}, "verify-identity": {"L": 4.0, "h": 0.25}}


@pytest.fixture
def small(monkeypatch):
    base = copy.deepcopy(workloads.BASE)
    for sc in base.values():
        sc["grid"] = dict(SMALL_GRID[sc["run"]])
    monkeypatch.setattr(workloads, "BASE", base)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "REFERENCE", HERE / "no-reference.json")
    monkeypatch.setattr(run, "BASELINE", HERE / "no-baseline.json")


def _benchmark():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", list(workloads.BASE))
def test_traced_run_covers_every_layer(small, workload):
    out = run.run_workload(workload, seed=3, seconds=0, trace=True)
    assert out["correct"], out
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(metrics) == {m["name"] for m in _benchmark()["per_layer"]}
    assert metrics["resolvent.apply.calls"] > 0
    assert metrics["resolvent.precond.calls"] > 0
    assert metrics["fields.eval_V.points"] > 0
    assert metrics["cli.self_s"] < metrics["cli.wall_s"]
    if workload == "magnetic_sweep":
        assert metrics["resolvent.link_phases.calls"] > 0
        assert all(metrics[f"resolvent.apply.calls.{workloads_eps}"] > 0
                   for workloads_eps in ("eps_1", "eps_0.1", "eps_0.01"))
    if workload == "free_sweep":
        assert metrics["fields.eval_A.points"] == 0


def test_untraced_run_reports_end_to_end_metrics(small):
    out = run.run_workload("free_sweep", seed=0, seconds=0, trace=False)
    assert out["correct"], out
    assert set(out["metrics"]) == {m["name"] for m in _benchmark()["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_checks_catch_missing_spans_and_reference_drift(small):
    r = run.Run("identity_80", 0, trace=False)
    rec = r.spawn()
    ops = set(workloads.operations(r.sc))
    report = json.loads((rec["out_dir"] / "verify-identity.json").read_text())["result"]
    reference = {side: dict(report[side]) for side in ("lhs_terms", "rhs_terms")}
    assert run.check(r.sc, rec, None, reference) == (set(), [])

    failed, msgs = run.check(r.sc, rec, [], None)
    assert failed == ops and any("expected span" in m for m in msgs)

    reference["lhs_terms"]["hessian"] *= 1 + 1e-4
    failed, msgs = run.check(r.sc, rec, None, reference)
    assert failed == {"identity"} and any("differs from reference" in m for m in msgs)


def test_seed_changes_only_the_datum():
    a, b = workloads.scenario("magnetic_sweep", 0), workloads.scenario("magnetic_sweep", 7)
    assert a == workloads.BASE["magnetic_sweep"]
    assert b == workloads.scenario("magnetic_sweep", 7)
    assert b["f"]["width"] != a["f"]["width"] and "center" not in b["f"]
    assert {k: v for k, v in a.items() if k != "f"} == \
        {k: v for k, v in b.items() if k != "f"}
