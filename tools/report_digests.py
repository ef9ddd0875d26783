"""Print one SHA-256 per report file of the benchmark's seed-0 scenarios.

Each workload of perfbench/workloads.py is written as its seed-0
scenario into a temporary directory and run through morcam.cli.main
with --json-only.  The temporary directory's path is masked in every
report file before it is hashed, so two checkouts of code that writes
the same reports print the same lines.  BLAS and OpenMP run on one
thread, set before numpy loads, because GMRES step counts depend on the
thread count.  Run from anywhere:

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


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.BASE:
            run_dir = Path(tmp) / name
            out = run_dir / "out"
            run_dir.mkdir()
            scenario = run_dir / "scenario.yaml"
            scenario.write_text(yaml.safe_dump(workloads.scenario(name, 0)),
                                encoding="utf-8")
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
