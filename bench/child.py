"""One iteration of one workload, in a fresh program process.

Usage: python3 bench/child.py SPEC.json RESULT.json

SPEC holds ``workload``, ``g``, ``size``, ``out_dir`` and ``trace_dir``
(None for an untraced run).  The process imports crwqed from the
checkout's ``src``, times the pipeline call, checks its outputs and writes
RESULT.  It exits non-zero without writing RESULT only when the harness
itself cannot run (for example, crwqed is not importable); an exception
from the pipeline is a failed iteration, recorded in RESULT.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _import_crwqed():
    import crwqed
    import crwqed.cli  # noqa: F401  (every module the pipeline uses)

    where = os.path.realpath(crwqed.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"crwqed imported from {where}, not from {SRC}")


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    _import_crwqed()
    name, size, out_dir, trace_dir = spec["workload"], spec["size"], spec["out_dir"], spec["trace_dir"]

    tracer = None
    if trace_dir is not None:
        from tracing import Tracer

        tracer = Tracer(worker_dir=trace_dir)
        tracer.install()

    outcome, error = None, None
    with warnings.catch_warnings(record=tracer is not None) as caught:
        if tracer is not None:
            warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            outcome = workloads.run_workload(name, spec["g"], out_dir, size)
        except Exception:  # a failed iteration, reported in the result
            error = traceback.format_exc()
        wall_s = time.perf_counter() - start

    result = {"wall_s": wall_s, "error": error,
              **workloads.score(name, outcome, out_dir, size),
              "csv_sha256": workloads.csv_digests(out_dir)}
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        result["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
