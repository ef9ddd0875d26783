"""Print one SHA-256 per report file of a fixed set of scenarios.

The scenarios are the seed-0 scenario of each workload of
perfbench/workloads.py and the ten small ones of EXTRA, which reach
what no workload runs: the ex14 built-in, the admissibility,
fields-check and solve run types, ex13's non_trapping declaration and a
radial V's one-ray quadrature in those two run types, the identity's
sampled B_tau density (ex14's; ex13 declares its B_tau zero, so the
workloads sample none), a V capped at 1/h^2 (with the d_r V zeroed
where it is), a datum that is not separable (the shell, which keeps
its values where the others keep 1-D factors) in an identity run and
in a sweep, and a solve on each box (see morcam.resolvent): the whole
box (ex14_identity), the half box (magnetic_sweep), the half-turn box
(turn_identity, a datum on the z-axis off the plane z = 0) and the box
of both (identity_80).  Each is written into a
temporary directory and run through morcam.cli.main with --json-only;
every file it writes is hashed, a solve's binary solution.field
included.  The temporary directory's path is masked in every file
before it is hashed, so two checkouts of code that writes the same
reports print the same lines.  BLAS and OpenMP run on one thread, set before numpy loads,
because GMRES step counts depend on the thread count.  Run from
anywhere:

    python3 tools/report_digests.py
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import yaml  # noqa: E402

import workloads  # noqa: E402
from morcam.cli import main as morcam_main  # noqa: E402

MASK = b"<dir>"

_EX13 = {"A": {"name": "ex13"}}
_EX14 = {"A": {"name": "ex14"}}
#: The scenarios besides the workloads', each about a second or less.
EXTRA = {
    "ex14_admissibility": {
        "n": 3, "run": "admissibility", "grid": {"L": 2.0, "h": 0.5},
        "potential": {**_EX14, "V": {"name": "exp_screened", "amplitude": 0.3}},
    },
    "ex14_fields_check": {
        "n": 3, "run": "fields-check", "grid": {"L": 2.0, "h": 0.5}, "potential": _EX14,
    },
    # the default gaussian (amplitude -1) has C2 = 0.99999999913, just
    # under the threshold
    "ex13_admissibility": {
        "n": 3, "run": "admissibility", "grid": {"L": 2.0, "h": 0.5},
        "potential": {**_EX13, "V": {"name": "gaussian"}},
    },
    "ex13_fields_check": {
        "n": 3, "run": "fields-check", "grid": {"L": 2.0, "h": 0.5}, "potential": _EX13,
    },
    "ex14_solve": {
        "n": 3, "run": "solve", "grid": {"L": 4.0, "h": 0.5},
        "potential": {**_EX14, "V": {"name": "coulomb", "c": 0.5}},
        "lambda": 1.0, "eps": 0.5,
    },
    "ex14_identity": {
        "n": 3, "run": "verify-identity", "grid": {"L": 4.0, "h": 0.5},
        "potential": {**_EX14, "V": {"name": "exp_screened", "amplitude": 0.3}},
        "lambda": 1.0, "eps": 1.0,
        "f": {"name": "gaussian", "width": 1.0, "center": [0.3, 0.2, 0.1]},
    },
    # inverse_square's c/|x|^2 (c = 1) exceeds 1/h^2 = 4 at the 8 central
    # nodes, the one scenario in which the cap bites
    "capped_identity": {
        "n": 3, "run": "verify-identity", "grid": {"L": 4.0, "h": 0.5},
        "potential": {**_EX13, "V": {"name": "inverse_square"}},
        "lambda": 1.0, "eps": 1.0,
    },
    "shell_identity": {
        "n": 3, "run": "verify-identity", "grid": {"L": 5.0, "h": 0.25},
        "potential": {**_EX13, "V": {"name": "exp_screened", "amplitude": 0.3}},
        "lambda": 1.0, "eps": 1.0, "f": {"name": "shell", "radius": 1.5, "width": 0.5},
    },
    "turn_identity": {
        "n": 3, "run": "verify-identity", "grid": {"L": 4.0, "h": 0.5},
        "potential": {**_EX13, "V": {"name": "exp_screened", "amplitude": 0.3}},
        "lambda": 1.0, "eps": 1.0,
        "f": {"name": "gaussian", "width": 1.0, "center": [0.0, 0.0, 0.5]},
    },
    "shell_sweep": {
        "n": 3, "run": "sweep", "grid": {"L": 4.0, "h": 0.5}, "potential": _EX13,
        "lambda": 1.0, "eps_list": [2.0, 1.0], "f": {"name": "shell", "radius": 1.5, "width": 0.5},
    },
}


def main() -> int:
    scenarios = {**{name: workloads.scenario(name, 0) for name in workloads.BASE}, **EXTRA}
    with tempfile.TemporaryDirectory() as tmp:
        for name, sc in scenarios.items():
            run_dir = Path(tmp) / name
            out = run_dir / "out"
            run_dir.mkdir()
            scenario = run_dir / "scenario.yaml"
            scenario.write_text(yaml.safe_dump(sc), encoding="utf-8")
            code = morcam_main([str(scenario), "--out-dir", str(out), "--json-only"])
            if code != 0:
                print(f"{name}: morcam exited with {code}", file=sys.stderr)
                return 1
            for path in sorted(out.iterdir()):
                data = path.read_bytes().replace(tmp.encode(), MASK)
                print(f"{hashlib.sha256(data).hexdigest()}  {name}/{path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
