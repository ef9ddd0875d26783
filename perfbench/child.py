"""One morcam scenario execution in a fresh interpreter.

    python3 child.py SCENARIO OUT_DIR RESULT_JSON [--trace] [--setup-only]

Records when the scenario is parsed (imports plus YAML parsing, read
against the parent's clock: time.perf_counter is system-wide on Linux),
then runs ``morcam.cli.main`` on it and records its wall time and the
process's peak resident memory.  With --trace the layers are wrapped in
spans first and the spans are written to OUT_DIR/spans.jsonl.  With
--setup-only the process stops after parsing.  Either way it records
the machine.
"""

import json
import os
import resource
import sys
import time


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "threads": int(os.environ.get("OMP_NUM_THREADS", "0")),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> None:
    scenario, out_dir, result_path = sys.argv[1:4]
    flags = set(sys.argv[4:])

    import yaml
    from morcam import cli

    with open(scenario, encoding="utf-8") as fh:
        yaml.safe_load(fh)
    result = {"parsed_at": time.perf_counter(), "morcam": cli.__file__}

    if "--setup-only" not in flags:
        tracer = None
        if "--trace" in flags:
            import tracing

            tracer = tracing.Tracer(os.path.basename(out_dir))
            tracing.install(tracer)
        start = time.perf_counter()
        result["rc"] = cli.main([scenario, "--out-dir", out_dir, "--json-only"])
        result["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.dump(os.path.join(out_dir, "spans.jsonl"))
    result["machine"] = machine()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
