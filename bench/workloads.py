"""Workload definitions, seeded inputs and output checks.

A workload calls one public crwqed pipeline function with inputs drawn
from the seed.  Everything here that touches crwqed runs inside the fresh
program process started for one iteration (``bench/child.py``); the
runner (``bench/run.py``) only needs the names and thread settings.

Seed 0 gives the exact presets (g = 0.1 xi).  Any other seed draws the
shared coupling g_1 = g_2 uniformly from ``G_RANGE``; geometry, dt, t_max
and n_c stay fixed, so the work per run does not depend on the seed.
Over that range fig3 keeps two bound states (Rabi period well inside the
horizon), fig4 keeps one, and the census counts match the reference.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import random

G_PRESET = 0.1
G_RANGE = (0.095, 0.105)

# Environment of the program process.  None leaves OpenBLAS at its default
# (one thread per core); sweep_dyn runs two pool workers, each held to one
# BLAS thread, so no run asks for more threads than there are cores.
BLAS_THREADS = {"fig3": None, "fig4": None, "table1": None, "sweep_dyn": "1"}
SWEEP_WORKERS = 2

# Closed-form thresholds the manifest uses for the root residual.
ROOT_RESIDUAL_TOL = 1e-8

# Thresholded manifest checks each scenario must report, by name prefix
# (some names carry the time they were evaluated at).
_COMMON_CHECKS = ("bic_root_residual", "bic_count_matches_lattice", "population_bound",
                  "trace_determinant_identity", "trace_nondecaying_count",
                  "exact_norm_deficit", "volterra_vs_exact_pop_diff", "field_norm_deficit")
SCENARIO_CHECKS = {
    "fig3": _COMMON_CHECKS + ("rabi_period_rel_err", "late_population_sum"),
    "fig4": _COMMON_CHECKS + ("plateau_balance", "plateau_vs_projection_rel_err"),
}
EXPECTED_ROOTS = {"fig3": 2, "fig4": 1}

# Headroom metrics: manifest value / threshold, by check-name prefix.
ERR_CHECKS = {
    "err.volterra_exact": "volterra_vs_exact_pop_diff",
    "err.field_norm": "field_norm_deficit",
    "err.rabi_period": "rabi_period_rel_err",
    "err.plateau": "plateau_vs_projection_rel_err",
    "err.bic_root": "bic_root_residual",
}

# Problem sizes.  "full" is the benchmark; "tiny" is the harness self-test
# (same code paths, seconds instead of minutes).
SIZES = {
    "full": {
        "fig3": {"dt": None, "t_max": None, "n_c": None},
        "fig4": {"dt": None, "t_max": None, "n_c": None},
        "table1": {"census": ((6, (1, 2, 3, 4, 5)), (8, (1, 2, 3, 4, 5, 6, 7)))},
        "sweep_dyn": {"size": 8, "deltas": (1, 2, 3, 4, 5, 6, 7), "t_max": 200.0},
    },
    "tiny": {
        "fig3": {"dt": 0.1, "t_max": 600.0, "n_c": 200},
        "fig4": {"dt": 0.1, "t_max": 300.0, "n_c": 200},
        "table1": {"census": ((6, (1, 3)), (8, (2, 3)))},
        "sweep_dyn": {"size": 8, "deltas": (2, 3), "t_max": 20.0},
    },
}

WORKLOADS = tuple(BLAS_THREADS)


def coupling(seed: int) -> float:
    """The shared atom-waveguide coupling g for a seed."""
    if seed == 0:
        return G_PRESET
    return random.Random(seed).uniform(*G_RANGE)


def reference_n_bic(size: int, delta: int) -> int:
    """Census reference (acceptance criterion 1): two bound states for every
    offset at N = 6; at N = 8 one for even offsets and none for odd."""
    if size == 6:
        return 2
    if size == 8:
        return 1 if delta % 2 == 0 else 0
    raise ValueError(f"no census reference for N={size}")


def expected_attempts(name: str, size: str = "full") -> int:
    """Number of checks one iteration of a workload attempts."""
    if name in SCENARIO_CHECKS:
        return len(SCENARIO_CHECKS[name]) + 1  # + closed-form root count
    params = SIZES[size][name]
    if name == "table1":
        return sum(len(deltas) for _, deltas in params["census"])
    return len(params["deltas"])


def sweep_tasks(name: str, size: str = "full") -> int:
    """Number of tasks the workload hands to the sweep's process pool."""
    return len(SIZES[size][name]["deltas"]) if name == "sweep_dyn" else 0


def run_workload(name: str, g: float, out_dir: str, size: str = "full"):
    """Call the workload's pipeline function; returns its raw outcome."""
    from dataclasses import replace

    from crwqed import cli

    params = SIZES[size][name]
    if name in SCENARIO_CHECKS:
        scn = cli.load_scenario(name, dt=params["dt"], t_max=params["t_max"],
                                n_c=params["n_c"])
        scn = replace(scn, cfg=replace(scn.cfg, g_1=g, g_2=g))
        return cli.run_scenario(scn, out_dir)
    if name == "table1":
        return cli.run_census(out_dir, sizes=params["census"], g=g)
    return cli.run_sweep(out_dir, "delta", list(params["deltas"]), size=params["size"],
                         g=g, workers=SWEEP_WORKERS, with_dynamics=True,
                         t_max=params["t_max"])


def _prefixed(checks, prefix):
    return [c for c in checks if c["name"].startswith(prefix)]


def score(name: str, outcome, out_dir: str, size: str = "full") -> dict:
    """Checks of one iteration against the reference outcomes.

    Returns ``attempted``, ``failed``, the names of failed checks and the
    headroom (``err.*``) values.  ``outcome`` None means the pipeline
    raised, which fails every attempt.
    """
    attempted = expected_attempts(name, size)
    if outcome is None:
        return {"attempted": attempted, "failed": attempted,
                "failures": ["pipeline raised"], "err": {}}
    failures: list[str] = []
    err: dict[str, float] = {}
    if name in SCENARIO_CHECKS:
        checks = [c for c in outcome["checks"] if c["passed"] is not None]
        for prefix in SCENARIO_CHECKS[name]:
            found = _prefixed(checks, prefix)
            if not found:
                failures.append(f"{prefix} missing")
            failures.extend(c["name"] for c in found if not c["passed"])
        extra = [c for c in checks
                 if not any(c["name"].startswith(p) for p in SCENARIO_CHECKS[name])]
        attempted += len(extra)
        failures.extend(c["name"] for c in extra if not c["passed"])
        with open(os.path.join(out_dir, "bic.json"), encoding="utf-8") as fh:
            roots = json.load(fh)["roots"]
        n_roots = sum(r["multiplicity"] for r in roots)
        if n_roots != EXPECTED_ROOTS[name]:
            failures.append(f"bic_root_count {n_roots} != {EXPECTED_ROOTS[name]}")
        for metric, prefix in ERR_CHECKS.items():
            found = _prefixed(checks, prefix)
            if found:
                err[metric] = found[0]["value"] / found[0]["threshold"]
    elif name == "table1":
        worst = 0.0
        for row in outcome:
            residual = max((r.residual for r in row.roots), default=0.0)
            worst = max(worst, residual)
            if row.n_bic != reference_n_bic(row.size, row.delta):
                failures.append(f"census N={row.size} delta={row.delta}: n_bic={row.n_bic}")
            elif residual > ROOT_RESIDUAL_TOL:
                failures.append(f"census N={row.size} delta={row.delta}: residual={residual:.3g}")
        failures.extend(["census row missing"] * (attempted - len(outcome)))
        err["err.bic_root"] = worst / ROOT_RESIDUAL_TOL
    else:
        sweep_size = SIZES[size][name]["size"]
        for row in outcome:
            delta = int(row["value"])
            pops = (row["plateau_pop1"], row["plateau_pop2"])
            if row["n_bic"] != reference_n_bic(sweep_size, delta):
                failures.append(f"sweep delta={delta}: n_bic={row['n_bic']}")
            elif not all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in pops):
                failures.append(f"sweep delta={delta}: plateau {pops}")
        failures.extend(["sweep row missing"] * (attempted - len(outcome)))
    return {"attempted": attempted, "failed": min(len(failures), attempted),
            "failures": failures, "err": err}


def csv_digests(out_dir: str) -> dict[str, str]:
    """sha256 of every CSV artifact, by file name."""
    digests = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "*.csv"))):
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return digests
