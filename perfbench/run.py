"""morcam benchmark: runs one CLI scenario per workload in fresh processes
and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the repository root; the program is imported from ``src/``.
Each run executes the scenario in a fresh process as often as fits in
``--seconds``, at least once.  An untraced run first starts the
interpreter several times and stops once the scenario is parsed
(``setup_s``, median).  BLAS and OpenMP threads are pinned in the
child's environment, before numpy is imported.

``--trace 0`` reports the end-to-end metrics ``wall_s`` (``cli.main``
from parsed scenario to written report), ``setup_s`` and
``peak_rss_mb``.  ``--trace 1`` executes the scenario once untraced,
then with spans around every layer (see tracing.py), and reports the
per-layer metrics and the tracing overhead.

Every execution is checked: exit code 0, no error.json, no sweep
errors or blow-up, a ratio spread of at most 10, an identity residual of
at most 0.05, every traced solve within its tolerance, every expected
span present, and at seed 0 the report values within a tolerance
derived from the scenario's ``tol`` of reference.json.  An operation
(one eps-solve or one identity evaluation) that misses a check counts as
failed.  The last line of output is one JSON object with the keys
correct, attempted, failed and metrics.  Run artefacts (scenario,
reports, spans, result.json with the machine record) go to
``.perfbench_out/``.  Metric names and units are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
BASELINE = HERE / "baseline.json"
SPEC = ROOT / "BENCHMARK.json"

SETUP_SAMPLES = 4        # setup-only interpreter starts per run
RUN_DEADLINE_S = 165.0   # a run stops starting executions after this
MAX_SPREAD = 10.0        # sweep ratio spread bound (acceptance criterion 10)
MAX_IDENTITY_REL = 0.05  # identity residual bound (acceptance criterion 09)

# BLAS/OpenMP threads per execution.  On a 2-core machine with other load,
# two OpenBLAS threads made single executions 2x to 5x slower than usual;
# one thread stayed within 10 %.
THREADS = 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    n = str(THREADS)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = n
    return env


class Run:
    """One benchmark run of a workload: its directory and its deadline."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.sc = workloads.scenario(workload, seed)
        self.dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.scenario = self.dir / "scenario.yaml"
        self.scenario.write_text(yaml.safe_dump(self.sc, sort_keys=True),
                                 encoding="utf-8")
        self.env = child_env()
        self.started = time.perf_counter()
        self.count = 0

    def left(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, *flags: str) -> dict:
        """Start child.py, wait for it and return its record, with the
        exit code and setup time filled in."""
        self.count += 1
        tag = f"{'setup' if '--setup-only' in flags else 'exec'}{self.count}"
        out_dir = self.dir / tag
        out_dir.mkdir()
        result_path = self.dir / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(self.scenario),
               str(out_dir), str(result_path), *flags]
        spawned = time.perf_counter()
        with open(self.dir / f"{tag}.log", "wb") as log:
            try:
                proc = subprocess.run(cmd, env=self.env, stdout=log, stderr=log,
                                      timeout=max(self.left(), 1.0))
                rc = proc.returncode
            except subprocess.TimeoutExpired:
                rc = "timeout"
        rec = {"out_dir": out_dir, "child_rc": rc}
        if rc == 0 and result_path.exists():
            rec.update(json.loads(result_path.read_text()))
            rec["setup_s"] = rec["parsed_at"] - spawned
        return rec


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _rtol(sc: dict, eps: float) -> float:
    """Tolerance on a seed-0 report value.  A solve to relative residual
    tol leaves a relative error in u of at most tol times the condition
    number of the shifted operator, about (4n/h^2 + lambda)/eps; values
    quadratic in u move by twice that."""
    n, h = int(sc["n"]), float(sc["grid"]["h"])
    return 2.0 * float(sc["tol"]) * (4 * n / h ** 2 + float(sc["lambda"])) / eps


def _close(value: float, ref: float, atol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= atol


def expected_spans(sc: dict) -> list[str]:
    names = ["cli.main", "resolvent.make_datum", "resolvent.op_build",
             "resolvent.solve", "resolvent.apply", tracing.PRECOND_SPAN,
             "resolvent.covariant_gradient", "fields.eval_V"]
    if sc["potential"].get("A"):
        names += ["resolvent.link_phases", "fields.eval_A"]
    if sc["run"] == "sweep":
        names += ["verify.epsilon_sweep", "verify.estimate_report",
                  "norms.theorem_lhs", "norms.theorem_rhs", "norms.dyadic_dual",
                  "admissibility.report", "admissibility.compute_constants"]
    else:
        names += ["verify.identity_scan", "verify.identity_residual",
                  "fields.trapping_component", "fields.radial_derivative_parts",
                  "multipliers.make_phi", "multipliers.make_varphi",
                  "grids.surface_integral"]
    return names


def check(sc: dict, rec: dict, spans, reference) -> tuple[set, list]:
    """Failed operation keys and messages for one execution."""
    ops = workloads.operations(sc)
    if rec["child_rc"] != 0 or rec.get("rc") != 0:
        return set(ops), [f"exit code {rec.get('rc', rec['child_rc'])}"]
    out_dir = rec["out_dir"]
    if (out_dir / "error.json").exists():
        return set(ops), ["error.json written"]
    report_path = out_dir / f"{sc['run']}.json"
    if not report_path.exists():
        return set(ops), ["no report written"]
    result = json.loads(report_path.read_text())["result"]
    failed, msgs = set(), []

    def miss(keys, msg):
        failed.update(keys)
        msgs.append(msg)

    if sc["run"] == "sweep":
        for eps, err in result["errors"].items():
            miss([f"{float(eps):g}"], f"sweep error at eps={eps}: {err}")
        got = {f"{e['eps']:g}" for e in result["entries"]}
        if missing := set(ops) - got:
            miss(missing, f"sweep entries missing for eps {sorted(missing)}")
        if result["blow_up"]:
            miss(ops, "sweep reports blow_up")
        lo, hi = result["min_ratio"], result["max_ratio"]
        if not (lo > 0 and hi / lo <= MAX_SPREAD):
            miss(ops, f"ratio spread {hi}/{lo} exceeds {MAX_SPREAD}")
        if reference is not None:
            ref = {f"{e['eps']:g}": e for e in reference["entries"]}
            for e in result["entries"]:
                key = f"{e['eps']:g}"
                r = ref.get(key)
                tol = _rtol(sc, e["eps"])
                if r is None or not all(_close(e[k], r[k], tol * abs(r[k]))
                                        for k in ("lhs", "rhs", "ratio")):
                    miss([key], f"eps={key} differs from reference beyond rtol {tol:.2g}")
    else:
        if not result["residual_rel"] <= MAX_IDENTITY_REL:
            miss(["identity"], f"identity residual_rel {result['residual_rel']} "
                               f"> {MAX_IDENTITY_REL}")
        if reference is not None:
            scale = sum(abs(v) for side in ("lhs_terms", "rhs_terms")
                        for v in reference[side].values())
            tol = _rtol(sc, float(sc["eps"])) * scale
            for side in ("lhs_terms", "rhs_terms"):
                for k, r in reference[side].items():
                    if not _close(result[side].get(k, math.nan), r, tol):
                        miss(["identity"], f"identity term {k} differs from reference")

    if spans is not None:
        for s in spans:
            if s["name"] == "resolvent.solve" and not s["residual"] <= s["tol"]:
                key = f"{s['eps']:g}" if sc["run"] == "sweep" else "solve"
                miss([key], f"solve at eps={s['eps']:g} residual {s['residual']} > {s['tol']}")
        seen = {s["name"] for s in spans}
        for name in expected_spans(sc):
            if name not in seen:
                miss(ops, f"expected span {name} missing")
    return failed, msgs


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def read_spans(out_dir: Path) -> list[dict]:
    path = out_dir / "spans.jsonl"
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def layer_record(spans: list[dict], out_dir: Path) -> dict:
    """Per-layer metrics of one traced execution (all zero without spans)."""
    m = tracing.layer_metrics(spans, workloads.LADDER)
    m["cli.output_bytes"] = sum(p.stat().st_size for p in out_dir.iterdir()
                                if p.is_file() and p.name != "spans.jsonl")
    m["trace.spans"] = len(spans)
    return m


def metric_units(trace: bool) -> dict:
    spec = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in spec}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed, trace)
    sc = run.sc
    reference = None
    if seed == 0 and REFERENCE.exists():
        reference = json.loads(REFERENCE.read_text()).get(workload)

    setups, executions = [], []
    if trace:
        executions.append(run.spawn())  # untraced, for the tracing overhead
    else:
        run.spawn("--setup-only")  # warm-up, not counted: file cache, bytecode
        setups = [run.spawn("--setup-only") for _ in range(SETUP_SAMPLES)]
    # Execute at least once, then again while the next execution is expected
    # to end within `seconds`.
    measure_from = time.perf_counter()
    for n in itertools.count(1):
        rec = run.spawn("--trace") if trace else run.spawn()
        rec["traced"] = trace
        executions.append(rec)
        took = time.perf_counter() - measure_from
        if "wall_s" not in rec or took * (n + 1) / n > min(seconds, run.left()):
            break

    attempted, failed, messages = 0, 0, []
    layer = []
    for rec in executions:
        spans = read_spans(rec["out_dir"]) if rec.get("traced") else None
        bad, msgs = check(sc, rec, spans, reference)
        attempted += len(workloads.operations(sc))
        failed += len(bad)
        messages += msgs
        if spans is not None:
            layer.append(layer_record(spans, rec["out_dir"]))

    def median(key, recs):
        vals = [r[key] for r in recs if key in r]
        if not vals:
            messages.append(f"no execution measured {key}")
            return 0.0
        return statistics.median(vals)

    untraced = [r for r in executions if not r.get("traced")]
    setup_recs = setups + executions
    machine = next((r["machine"] for r in executions if "machine" in r), None)
    if trace:
        # median_low keeps counts whole with an even number of executions
        metrics = {k: statistics.median_low(m[k] for m in layer) for k in layer[0]}
        metrics["trace.overhead_s"] = metrics["cli.wall_s"] - median("wall_s", untraced)
    else:
        metrics = {"wall_s": median("wall_s", untraced),
                   "setup_s": median("setup_s", setup_recs),
                   "peak_rss_mb": median("peak_rss_mb", untraced)}
    units = metric_units(trace)

    summary = {
        "workload": workload, "seed": seed, "trace": trace,
        "scenario": sc, "machine": machine,
        "executions": len(executions), "setup_samples": len(setup_recs),
        "attempted": attempted, "failed": failed, "messages": messages,
        "metrics": metrics,
        "morcam": executions[-1].get("morcam"),
    }
    (run.dir / "result.json").write_text(json.dumps(summary, indent=2, default=str) + "\n")

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"executions {len(executions)}  setup samples {len(setup_recs)}")
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    for k, v in metrics.items():
        print(f"  {k} = {v if isinstance(v, int) else f'{v:.6g}'} {units[k]}")
    print(f"  operations attempted {attempted}, failed {failed}")
    for msg in messages:
        print(f"  check: {msg}")
    if trace and seed == 0 and BASELINE.exists():
        base = json.loads(BASELINE.read_text())["exact_counts"].get(workload, {})
        same = all(metrics.get(k) == v for k, v in base.items())
        print(f"  exact counts {'match' if same else 'DIFFER from'} baseline.json")
    return {"correct": failed == 0 and not messages, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*workloads.BASE, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "morcam" / "cli.py").is_file():
        print(f"perfbench: no morcam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(workloads.BASE) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{k}": v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
