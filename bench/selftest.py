"""Self-test of the benchmark harness on tiny problem sizes (seconds).

Usage (from the root of a checkout): python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit
on every workload, in both modes; that a failing check raises the failure
count; that metrics whose worker spans did not arrive show as missing;
and that the runner refuses to run without the crwqed sources.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_emitted() -> None:
    """Every BENCHMARK.json metric, with its unit, on every workload."""
    traced_runs = {}
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        specs = run._metric_specs(kind)
        for name in workloads.WORKLOADS:
            result = run.measure(name, SEED, 1.0, trace, size="tiny")
            metrics = result["metrics"]
            expect(set(metrics) == set(specs), f"{name} {kind}: exactly the listed metrics")
            missing = [m for m, e in metrics.items()
                       if not isinstance(e["value"], (int, float)) or e["unit"] != specs[m]]
            expect(not missing, f"{name} {kind}: every metric has a value and its unit {missing}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{name} {kind}: all {result['attempted']} checks pass")
            if trace:
                traced_runs[name] = result
    for name, result in traced_runs.items():
        volterra = result["metrics"]["dynamics.solve_volterra.calls"]["value"]
        want = {"fig3": 1, "fig4": 1, "table1": 0, "sweep_dyn": workloads.sweep_tasks(name, "tiny")}
        expect(volterra == want[name], f"{name}: solve_volterra calls {volterra} == {want[name]}"
               " (pool worker spans collected)")


def check_forced_failures(out_root: str) -> None:
    """A failing check raises the failure count; a raise fails every attempt."""
    for name in workloads.WORKLOADS:
        out = tempfile.mkdtemp(dir=out_root)
        outcome = workloads.run_workload(name, workloads.coupling(SEED), out, "tiny")
        base = workloads.score(name, outcome, out, "tiny")
        if name in workloads.SCENARIO_CHECKS:
            checks = [dict(c) for c in outcome["checks"]]
            first = next(c for c in checks if c["passed"] is not None)
            first["passed"] = False
            forced = {**outcome, "checks": checks}
        elif name == "table1":
            forced = [dataclasses.replace(outcome[0], n_bic=outcome[0].n_bic + 1), *outcome[1:]]
        else:
            forced = [{**outcome[0], "n_bic": outcome[0]["n_bic"] + 1}, *outcome[1:]]
        bad = workloads.score(name, forced, out, "tiny")
        expect(bad["failed"] == base["failed"] + 1 and bad["attempted"] == base["attempted"],
               f"{name}: one forced failing check raises fail_frac "
               f"({base['failed']}/{base['attempted']} -> {bad['failed']}/{bad['attempted']})")
        raised = workloads.score(name, None, out, "tiny")
        expect(raised["failed"] == raised["attempted"] > 0,
               f"{name}: a pipeline that raises fails all {raised['attempted']} attempts")


def check_missing(out_root: str) -> None:
    """Worker totals that do not arrive make the metrics missing, not 0."""
    work = tempfile.mkdtemp(dir=out_root)
    g = workloads.coupling(SEED)
    traced = run.run_iteration("sweep_dyn", g, "tiny", work, True, 60.0)
    names = list(run._metric_specs("per_layer"))
    expect(len(traced["workers"]) >= 1, f"sweep_dyn: {len(traced['workers'])} worker files")
    trace = json.loads(json.dumps(traced["trace"]))
    tasks = tracing.merge_worker_stats(trace, traced["workers"][1:])
    complete = tasks == workloads.sweep_tasks("sweep_dyn", "tiny")
    values = tracing.layer_metrics(trace, names, complete)
    expect(not complete and values["dynamics.solve_volterra.calls"] is None,
           "sweep_dyn: a lost worker file makes solve_volterra.calls missing")
    plain = tracing.layer_metrics({"installed": [], "stats": {}, "keys": {}}, names, True)
    expect(all(v is None for v in plain.values()), "an unwrapped function's metrics are missing")


def check_refuses_without_sources(out_root: str) -> None:
    """Only BENCHMARK.json and bench/: exit non-zero, print no result."""
    bare = tempfile.mkdtemp(dir=out_root)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "table1", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           f"without src/: exit {proc.returncode}, no result printed")


def main() -> int:
    os.makedirs(run.OUT_ROOT, exist_ok=True)
    out_root = tempfile.mkdtemp(dir=run.OUT_ROOT)
    sys.path.insert(0, run.SRC)
    try:
        check_emitted()
        check_forced_failures(out_root)
        check_missing(out_root)
        check_refuses_without_sources(out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
