"""crwqed benchmark runner.

Usage (from the root of a checkout):

    python3 bench/run.py --workload fig3 --seed 0 --seconds 20 --trace 0

Closed loop, one client: every iteration is one fresh program process
(``bench/child.py``) that runs one pipeline call; the runner waits for it
before starting the next.  With ``--trace 0`` the runner first times
``SETUP_RUNS`` bare start-ups (process start + ``import crwqed.cli`` + a
first small ``eigh``), then repeats the workload until the next iteration
would overrun ``--seconds`` (at least one), and reports medians of the
``end_to_end`` metrics of BENCHMARK.json.  With ``--trace 1`` it runs one
traced and one untraced iteration and reports the ``per_layer`` metrics.

Lines before the last one describe the run (settings, checks, headroom
values, CSV digests); the last line is the JSON result.  Exits non-zero
without a result when the harness cannot run, e.g. without ``src/crwqed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 9
# Every run must end within 180 s; iterations stop being started after this.
RUN_DEADLINE_S = 150.0
SETUP_CODE = ("import numpy as np, crwqed.cli; "
              "np.linalg.eigh(np.eye(8) + np.diag(np.ones(7), 1) + np.diag(np.ones(7), -1))")


class HarnessError(RuntimeError):
    """The benchmark could not run (as opposed to the program failing)."""


def _env(name: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(var, None)
    if workloads.BLAS_THREADS[name] is not None:
        env["OPENBLAS_NUM_THREADS"] = workloads.BLAS_THREADS[name]
    return env


def _kill_group(pgid):
    try:
        os.killpg(pgid, 9)
    except ProcessLookupError:  # already exited
        pass


def _spawn(argv, env, log_path, timeout):
    """Run argv to completion; returns (exit code, duration, rusage).

    The rusage of a waited-for child covers it and its reaped children (the
    pool workers), so ru_maxrss is the peak RSS of the whole tree.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        duration = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, duration, usage


def _tail(path, lines=20):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])


def time_setup(name: str, work: str) -> float:
    log = os.path.join(work, "setup.log")
    code, duration, _ = _spawn([sys.executable, "-c", SETUP_CODE], _env(name), log, 60.0)
    if code != 0:
        raise HarnessError(f"start-up probe failed (exit {code}):\n{_tail(log)}")
    return duration


def run_iteration(name: str, g: float, size: str, work: str, traced: bool, timeout: float) -> dict:
    """One fresh program process running the workload once."""
    it = tempfile.mkdtemp(dir=work)
    trace_dir = os.path.join(it, "trace") if traced else None
    if trace_dir:
        os.mkdir(trace_dir)
    spec = {"workload": name, "g": g, "size": size, "out_dir": os.path.join(it, "out"),
            "trace_dir": trace_dir}
    spec_path, result_path, log = (os.path.join(it, f) for f in ("spec.json", "result.json", "log"))
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    code, duration, usage = _spawn(
        [sys.executable, os.path.join(HERE, "child.py"), spec_path, result_path],
        _env(name), log, timeout)
    if not os.path.exists(result_path):
        if code == -9:  # killed at the deadline: the program hung, every check fails
            n = workloads.expected_attempts(name, size)
            return {"wall_s": duration, "attempted": n, "failed": n, "error": "timeout",
                    "failures": ["timeout"], "err": {}, "csv_sha256": {}, "duration": duration,
                    "rss_mb": usage.ru_maxrss / 1024.0, "cpu_s": usage.ru_utime + usage.ru_stime}
        raise HarnessError(f"program process exited {code} without a result:\n{_tail(log)}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if result["error"]:
        print(f"# {name}: pipeline raised:\n{result['error']}", file=sys.stderr)
    result.update(duration=duration, rss_mb=usage.ru_maxrss / 1024.0,
                  cpu_s=usage.ru_utime + usage.ru_stime)
    if traced:
        result["workers"] = tracing.read_worker_stats(trace_dir)
    shutil.rmtree(it)
    return result


def _machine(name: str, seed: int, g: float) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy without mode="dicts"
        pass
    commit = "unknown (not a git repository)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True, check=False)
        commit = probe.stdout.strip() or commit
    return {"workload": name, "seed": seed, "g": g, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads": workloads.BLAS_THREADS[name] or "default",
            "sweep_workers": workloads.SWEEP_WORKERS if name == "sweep_dyn" else None,
            "commit": commit}


def _metric_specs(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one benchmark measurement; returns the result object plus the
    descriptive fields (``info``, ``iterations``)."""
    if not os.path.isfile(os.path.join(SRC, "crwqed", "__init__.py")):
        raise HarnessError(f"crwqed sources not found under {SRC}")
    g = workloads.coupling(seed)
    os.makedirs(OUT_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(dir=OUT_ROOT)
    began = time.perf_counter()

    def left():
        return max(10.0, RUN_DEADLINE_S - (time.perf_counter() - began))

    try:
        if trace:
            specs = _metric_specs("per_layer")
            traced = run_iteration(name, g, size, work, True, left())
            plain = run_iteration(name, g, size, work, False, left())
            iterations = [traced, plain]
            tasks = tracing.merge_worker_stats(traced["trace"], traced["workers"])
            complete = tasks == workloads.sweep_tasks(name, size)
            values = {"proc.cpu_s": plain["cpu_s"],
                      "proc.cpu_util": plain["cpu_s"] / plain["duration"],
                      "warnings.count": len(traced["warnings"]),
                      "trace.overhead_s": traced["wall_s"] - plain["wall_s"]}
            values.update(tracing.layer_metrics(
                traced["trace"], [m for m in specs if m not in values], complete))
        else:
            specs = _metric_specs("end_to_end")
            setup = [time_setup(name, work) for _ in range(SETUP_RUNS)]
            iterations = []
            loop_start = time.perf_counter()
            while True:
                iterations.append(run_iteration(name, g, size, work, False, left()))
                elapsed = time.perf_counter() - loop_start
                if (elapsed + iterations[-1]["duration"] > seconds
                        or time.perf_counter() - began + iterations[-1]["duration"] > RUN_DEADLINE_S):
                    break
            values = {"wall_s": statistics.median(r["wall_s"] for r in iterations),
                      "setup_s": statistics.median(setup),
                      "peak_rss_mb": statistics.median(r["rss_mb"] for r in iterations)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(r["attempted"] for r in iterations)
    failed = sum(r["failed"] for r in iterations)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values.get(m), "unit": unit} for m, unit in specs.items()},
        "info": _machine(name, seed, g),
        "iterations": iterations,
    }


def report(result: dict) -> None:
    """Describe the run on stdout, then print the JSON result line."""
    info, iterations = result["info"], result["iterations"]
    print("settings " + json.dumps(info, sort_keys=True))
    print(f"iterations {len(iterations)}")
    print(f"fail_frac {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} checks)")
    for failure in sorted({f for r in iterations for f in r["failures"]}):
        print(f"failed_check {failure}")
    for metric in sorted({m for r in iterations for m in r["err"]}):
        values = [r["err"][metric] for r in iterations if metric in r["err"]]
        print(f"{metric} {statistics.median(values):.6g} ratio")
    for warning in iterations[0].get("warnings", ()):
        print(f"warning {warning}")
    digests = iterations[-1]["csv_sha256"]
    for path, digest in sorted(digests.items()):
        print(f"csv_sha256 {path} {digest}")
    if any(r["csv_sha256"] != digests for r in iterations if not r["error"]):
        print("csv_sha256 differ between iterations")
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"metric {metric} {shown} {entry['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
