"""Command-line front end: presets, scenario runs, census, sweeps.

Artifacts are plain CSV (comma separator, header row, 15 significant
digits, no locale) and JSON; reruns with identical configuration produce
byte-identical CSV bodies.  Exit codes: 0 success, 1 configuration error,
2 solver error, 3 tolerance-check failure (with ``--check``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__, bic, dynamics, spectrum
from .model import (
    ConfigError,
    SystemConfig,
    TimeGrid,
    config_from_mapping,
    initial_state,
    parse_config_file,
    validate_config,
)

OUTPUT_DIR_ENV = "CRWQED_OUT"
FIELD_WINDOW_PAD = 20
NORM_CHECK_PAD = 30


@dataclass(frozen=True)
class Scenario:
    name: str
    cfg: SystemConfig
    grid: TimeGrid
    n_c: int
    psi0: str = "atom1"
    snapshot_times: tuple[float, ...] = ()
    checks: tuple[str, ...] = ()


def _snapshot_stops(grid: TimeGrid) -> tuple[float, ...]:
    """Field snapshot times: the grid nodes nearest 0, 1/4, 1/2, 3/4 and 1
    of the horizon."""
    return tuple(round(f * grid.t_end / grid.dt) * grid.dt for f in (0.0, 0.25, 0.5, 0.75, 1.0))


def _preset(name, legs, t_max, n_c, checks=(), dt=0.02):
    cfg = SystemConfig(n_1=legs[0], n_2=legs[1], m_1=legs[2], m_2=legs[3])
    grid = TimeGrid(t_max=t_max, dt=dt)
    return Scenario(name=name, cfg=cfg, grid=grid, n_c=n_c,
                    snapshot_times=_snapshot_stops(grid), checks=tuple(checks))


PRESETS = {
    "fig2a": _preset("fig2a", (1, 7, 4, 10), 200.0, 600),
    "fig2b": _preset("fig2b", (1, 7, 3, 9), 200.0, 600),
    "fig2c": _preset("fig2c", (1, 9, 4, 12), 200.0, 600),
    "fig2d": _preset("fig2d", (1, 9, 3, 11), 200.0, 600),
    "fig3": _preset("fig3", (1, 7, 4, 10), 700.0, 600, checks=("rabi",)),
    "fig4": _preset("fig4", (1, 9, 3, 11), 600.0, 1400, checks=("fractional",)),
}

TABLE_CENSUS = ((6, (1, 2, 3, 4, 5)), (8, (1, 2, 3, 4, 5, 6, 7)))


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.15g}"
    return str(x)


def _cells(column) -> list[str]:
    """Formatted cells of one column; an array is read once, as a list, and
    str cells (such as the empty ones of a sparse column) pass unchanged."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            return ["%.15g" % x for x in column.tolist()]
        column = column.tolist()
    return [x if type(x) is str else _fmt(x) for x in column]


# Rows formatted and written per block by ``write_csv``.
_CSV_ROWS = 4096


def write_csv(path, header, columns):
    """Write a CSV file from whole columns (arrays or sequences, one per
    header field, all of one length).

    Ragged columns raise ValueError before the file is opened.  Rows are
    formatted and written in blocks of ``_CSV_ROWS``, so the formatted
    cells of the whole file are never held at once.
    """
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns of unequal length {lengths} for {path}")
    n_rows = lengths[0] if lengths else 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n_rows, _CSV_ROWS):
            cells = [_cells(c[lo:lo + _CSV_ROWS]) for c in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _prepare_out_dir(out_dir) -> str:
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write-probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"output directory {out_dir!r} is not writable: {exc}") from exc
    return out_dir


def load_scenario(target: str, dt=None, t_max=None, n_c=None) -> Scenario:
    """A preset name or a key=value config file, with CLI overrides.

    Raises ConfigError when the grid is too coarse for the kernel tables or
    the lattice too small for the legs.
    """
    if target in PRESETS:
        scn = PRESETS[target]
    elif os.path.exists(target):
        values = parse_config_file(target)
        cfg, grid, file_n_c = config_from_mapping(values)
        if grid is None:
            grid = TimeGrid(t_max=200.0, dt=0.02)
        scn = Scenario(
            name=os.path.splitext(os.path.basename(target))[0],
            cfg=cfg, grid=grid, n_c=file_n_c if file_n_c is not None else 600,
            snapshot_times=_snapshot_stops(grid))
    else:
        raise ConfigError(f"{target!r} is neither a preset {sorted(PRESETS)} nor a config file")
    if dt is not None or t_max is not None:
        grid = TimeGrid(t_max=t_max if t_max is not None else scn.grid.t_max,
                        dt=dt if dt is not None else scn.grid.dt)
        scn = replace(scn, grid=grid, snapshot_times=_snapshot_stops(grid))
    if n_c is not None:
        scn = replace(scn, n_c=n_c)
    dynamics.check_kernel_grid(scn.cfg, scn.grid)
    spectrum.check_lattice_size(scn.cfg, scn.n_c)
    return scn


def _config_payload(scn: Scenario) -> dict:
    return {"config": asdict(scn.cfg), "t_max": scn.grid.t_max, "dt": scn.grid.dt,
            "n_c": scn.n_c, "initial_state": scn.psi0}


def _roots_payload(cfg, roots):
    payload = {
        "config": asdict(cfg),
        "roots": [{"energy": r.energy, "branch": r.branch, "multiplicity": r.multiplicity,
                   "width": r.width} for r in roots],
    }
    try:
        period = bic.rabi_period(roots)
        payload["rabi_period"] = None if math.isinf(period) else period
        payload["divergent_period"] = math.isinf(period)
    except ValueError:
        pass
    return payload


def _lattice(cfg, n_c):
    """The chain sites, the eigenbasis and the classified states.  The
    dense Hamiltonian is freed once diagonalized."""
    ham = spectrum.build_hamiltonian(cfg, n_c)
    basis = spectrum.eigendecompose(ham)
    return ham.sites, basis, spectrum.classify_bound_states(basis, cfg)


def _field_window(cfg):
    """Sites of the photon-field plot window around the legs."""
    return np.arange(cfg.n_1 - FIELD_WINDOW_PAD, cfg.m_2 + FIELD_WINDOW_PAD + 1)


# ---- artifact writers, shared by run_scenario and the partial commands ----

def _write_spectrum(out_dir, sites, profiles):
    """spectrum.csv, plus profile_<index>.csv for every BIC and BOC."""
    write_csv(os.path.join(out_dir, "spectrum.csv"),
              ("index", "energy", "class", "ipr", "a1_sq", "a2_sq"),
              (range(len(profiles)), [p.energy for p in profiles],
               [p.label for p in profiles], [p.ipr for p in profiles],
               [p.amp_1 ** 2 for p in profiles], [p.amp_2 ** 2 for p in profiles]))
    for i, p in enumerate(profiles):
        if p.label in ("BIC", "BOC"):
            write_csv(os.path.join(out_dir, f"profile_{i}.csv"), ("site", "prob"),
                      (sites, p.photon))


def _write_dynamics(out_dir, trajectory, deficits=None):
    """dynamics.csv; ``deficits`` maps grid nodes to field-norm deficits,
    the other rows leave that column empty."""
    times = trajectory.grid.times()
    deficit_col = [""] * times.size
    for n, value in (deficits or {}).items():
        deficit_col[n] = value
    a1, a2 = trajectory.alpha_1, trajectory.alpha_2
    write_csv(os.path.join(out_dir, "dynamics.csv"),
              ("t", "re_alpha1", "im_alpha1", "re_alpha2", "im_alpha2",
               "pop1", "pop2", "norm_deficit"),
              (times, a1.real, a1.imag, a2.real, a2.imag,
               trajectory.pop_1, trajectory.pop_2, deficit_col))


def _write_mtrace(out_dir, trace):
    write_csv(os.path.join(out_dir, "mtrace.csv"),
              ("t", "re_lambda1", "im_lambda1", "re_lambda2", "im_lambda2"),
              (trace.grid.times(), trace.lambda_1.real, trace.lambda_1.imag,
               trace.lambda_2.real, trace.lambda_2.imag))


def _write_field(out_dir, snapshots):
    times, sites, probs = [], [], []
    for snap in snapshots:
        times += [snap.time] * snap.sites.size
        sites += snap.sites.tolist()
        probs += snap.probabilities.tolist()
    write_csv(os.path.join(out_dir, "field.csv"), ("t", "site", "prob"), (times, sites, probs))


def oscillation_period(times: np.ndarray, signal: np.ndarray) -> float:
    """Period from rising crossings of the signal midline (mean of extrema);
    nan when fewer than two crossings exist."""
    mid = 0.5 * (signal.max() + signal.min())
    s = signal - mid
    rising = np.flatnonzero((s[:-1] < 0.0) & (s[1:] >= 0.0))
    if rising.size < 2:
        return float("nan")
    # linear interpolation of each crossing instant
    frac = -s[rising] / (s[rising + 1] - s[rising])
    crossings = times[rising] + frac * (times[rising + 1] - times[rising])
    return float(np.mean(np.diff(crossings)))


def _native(x):
    return x.item() if isinstance(x, np.generic) else x


def _check(name, value, threshold, ok) -> dict:
    return {"name": name, "value": _native(value), "threshold": _native(threshold),
            "passed": bool(ok)}


def _info(name, value) -> dict:
    return {"name": name, "value": _native(value), "threshold": None, "passed": None}


def run_scenario(scn: Scenario, out_dir) -> dict:
    """Full pipeline for one scenario; returns the manifest dict.

    Every stage runs once: the lattice is diagonalized a single time and its
    eigenbasis and classified states feed the exact propagation, the
    steady-state projection and the count the closed-form roots are checked
    against (the roots themselves need no lattice).  Every warning raised by
    the stages is recorded in ``manifest["warnings"]`` (category and
    message) and then re-emitted.  ``manifest["stages"]`` lists the stages
    in order with their wall time, problem sizes and the process peak RSS
    at their end.
    """
    started = time.monotonic()
    out_dir = _prepare_out_dir(out_dir)
    stages: list[dict] = []
    with warnings.catch_warnings(record=True) as caught:
        checks = _scenario_stages(scn, out_dir, stages)
    # recorded for the manifest, then shown as if never caught
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)

    manifest = {
        "scenario": scn.name,
        **_config_payload(scn),
        "versions": {"crwqed": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
        "wall_time_s": time.monotonic() - started,
        "stages": stages,
        "checks": checks,
        "warnings": [{"category": w.category.__name__, "message": str(w.message)}
                     for w in caught],
        "all_passed": all(c["passed"] for c in checks if c["passed"] is not None),
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


@contextmanager
def _stage(stages: list, name: str, **sizes):
    """Append the record of one pipeline stage to ``stages``: its name, wall
    time, problem sizes and the process high-water RSS read at its end."""
    start = time.perf_counter()
    yield
    wall = time.perf_counter() - start
    stages.append({"name": name, "wall_s": wall, "sizes": sizes,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})


def _scenario_stages(scn: Scenario, out_dir, stages: list) -> list[dict]:
    """Every stage of ``run_scenario`` up to the manifest: writes the
    artifacts, appends one record per stage to ``stages`` and returns the
    checks."""
    cfg = validate_config(scn.cfg)
    grid = scn.grid
    checks: list[dict] = []

    with _stage(stages, "lattice", n_c=scn.n_c, dim=scn.n_c + 2):
        sites, basis, profiles = _lattice(cfg, scn.n_c)
        bics = spectrum.bound_states(profiles, "BIC")

    # closed-form bound states (symmetric resonant geometries only)
    roots = None
    if cfg.symmetric_resonant and cfg.g_1 > 0.0:
        with _stage(stages, "bic_roots"):
            roots = bic.find_bic_roots(cfg)
            worst = max((r.residual for r in roots), default=0.0)
            checks.append(_check("bic_root_residual", worst, 1e-8 * cfg.xi,
                                 worst <= 1e-8 * cfg.xi))
            n_closed = sum(r.multiplicity for r in roots)
            checks.append(_check("bic_count_matches_lattice", n_closed, len(bics),
                                 n_closed == len(bics)))

    # beyond-Markovian dynamics
    with _stage(stages, "volterra", n_steps=grid.n_steps):
        kernels = dynamics.build_kernels(cfg, grid)
        psi0 = initial_state(scn.psi0, cfg)
        trajectory = dynamics.solve_volterra(cfg, psi0, grid, kernels)
        trace = dynamics.m_eigenvalues_trace(cfg, grid, kernels)
        pop_bound = max(trajectory.pop_1.max(), trajectory.pop_2.max())
        bound_lim = 1.0 + 10.0 * grid.dt * cfg.xi
        checks.append(_check("population_bound", pop_bound, bound_lim, pop_bound <= bound_lim))
        tdr = trace.trace_determinant_residual()
        checks.append(_check("trace_determinant_identity", tdr, 1e-10, tdr <= 1e-10))
        # non-decaying eigenvalue traces <-> bound states in the continuum;
        # needs the memory integrals to have settled, so gate on the horizon
        if grid.t_end >= 150.0 / cfg.xi:
            non_decaying = sum(abs(lam[-1].imag) <= 1e-3 * cfg.xi
                               for lam in (trace.lambda_1, trace.lambda_2))
            checks.append(_check("trace_nondecaying_count", non_decaying, len(bics),
                                 non_decaying == len(bics)))

    # numerically exact propagation on the finite lattice
    with _stage(stages, "exact_propagate", dim=scn.n_c + 2, n_steps=grid.n_steps,
                snapshots=len(scn.snapshot_times)):
        exact_traj, exact_snaps = spectrum.exact_propagate(
            cfg, psi0, grid, basis, snapshot_times=scn.snapshot_times)
        deficits = [abs(abs(exact_traj.alpha_1[grid.node(s.time)]) ** 2
                        + abs(exact_traj.alpha_2[grid.node(s.time)]) ** 2
                        + np.sum(s.probabilities) - 1.0) for s in exact_snaps]
        worst_exact = max(deficits, default=0.0)
        checks.append(_check("exact_norm_deficit", worst_exact, 1e-10, worst_exact <= 1e-10))

        # Volterra vs exact, restricted to times free of edge reflections
        span = cfg.m_2 - cfg.n_1
        t_valid = min(grid.t_end, (scn.n_c - span - spectrum.LATTICE_MARGIN) / (4.0 * cfg.xi))
        n_valid = int(t_valid / grid.dt)
        diff = max(np.abs(trajectory.pop_1[:n_valid + 1] - exact_traj.pop_1[:n_valid + 1]).max(),
                   np.abs(trajectory.pop_2[:n_valid + 1] - exact_traj.pop_2[:n_valid + 1]).max())
        checks.append(_check(f"volterra_vs_exact_pop_diff_t<={t_valid:g}", diff, 1e-2,
                             diff <= 1e-2))

    # photon field over the plot window, plus a wide-window unitarity check
    window = _field_window(cfg)
    with _stage(stages, "photon_field", sites=int(window.size),
                order_max=dynamics.field_order_max(cfg, window),
                arg_max=2.0 * cfg.xi * max(scn.snapshot_times, default=0.0)):
        snapshots = dynamics.photon_field(cfg, trajectory, window, scn.snapshot_times)
    t_check = min(200.0, grid.t_end)
    t_check = round(t_check / grid.dt) * grid.dt
    reach = int(math.ceil(2.0 * cfg.xi * t_check)) + NORM_CHECK_PAD
    wide = np.arange(cfg.n_1 - reach, cfg.m_2 + reach + 1)
    with _stage(stages, "field_norm_check", sites=int(wide.size),
                order_max=dynamics.field_order_max(cfg, wide), arg_max=2.0 * cfg.xi * t_check):
        wide_snap = dynamics.photon_field(cfg, trajectory, wide, [t_check])[0]
        deficit = dynamics.norm_check(trajectory, wide_snap, cfg)
        checks.append(_check(f"field_norm_deficit_t={t_check:g}", deficit, 1e-2,
                             deficit <= 1e-2))

    with _stage(stages, "scenario_checks"):
        if "rabi" in scn.checks and roots is not None and len(roots) == 2:
            expected = bic.rabi_period(roots)
            if grid.t_end >= 1.5 * expected:
                period = oscillation_period(grid.times(), trajectory.pop_1)
                rel = abs(period - expected) / expected
                checks.append(_check("rabi_period_rel_err", rel, 0.02, rel <= 0.02))
            else:
                checks.append(_info("rabi_period_skipped_horizon", grid.t_end / expected))
            avg = float(np.mean(trajectory.pop_1[grid.n_steps // 2:]
                                + trajectory.pop_2[grid.n_steps // 2:]))
            checks.append(_check("late_population_sum", avg, 0.9, avg >= 0.9))
        if "fractional" in scn.checks and len(bics) == 1:
            p1, p2, settled = dynamics.plateau(trajectory)
            pred1, pred2 = dynamics.steady_state_prediction(psi0, profiles)
            checks.append(_check("plateau_balance", abs(p1 - p2), 1e-2, abs(p1 - p2) <= 1e-2))
            rel = max(abs(p1 - pred1) / pred1, abs(p2 - pred2) / pred2)
            checks.append(_check("plateau_vs_projection_rel_err", rel, 0.05, rel <= 0.05))
            checks.append(_info("plateau_settled", settled))

    with _stage(stages, "write_artifacts"):
        if roots is not None:
            write_json(os.path.join(out_dir, "bic.json"), _roots_payload(cfg, roots))
        _write_spectrum(out_dir, sites, profiles)
        _write_dynamics(out_dir, trajectory, {grid.node(t_check): deficit})
        _write_mtrace(out_dir, trace)
        _write_field(out_dir, snapshots)
    return checks


def _census_columns(rows):
    return ([r.size for r in rows], [r.delta for r in rows], [r.n_bic for r in rows],
            [";".join(f"{e:.15g}" for e in r.energies) for r in rows])


def run_census(out_dir, sizes=TABLE_CENSUS, g=0.1) -> list:
    out_dir = _prepare_out_dir(out_dir)
    all_rows = []
    for size, deltas in sizes:
        all_rows.extend(bic.bic_census(size, deltas, g=g))
    write_csv(os.path.join(out_dir, "census.csv"),
              ("N", "delta", "n_bic", "energies"), _census_columns(all_rows))
    return all_rows


def _sweep_int(value) -> int:
    """``int(value)``, refusing to truncate a non-integral number."""
    n = int(value)
    if not isinstance(value, str) and n != value:
        raise ValueError(f"{value!r} is not an integer")
    return n


# Sweep keys and the parser of each key's values.
_SWEEP_KEYS = {"delta": _sweep_int, "N": _sweep_int, "g": float, "dt": float}


def _sweep_one(args):
    params, key, value, with_dynamics, t_max = args
    size, delta, g, dt = params["N"], params["delta"], params["g"], params["dt"]
    rows = bic.bic_census(size, [delta], g=g)
    row = rows[0]
    out = {"key": key, "value": value, "n_bic": row.n_bic,
           "energies": ";".join(f"{e:.15g}" for e in row.energies)}
    if with_dynamics:
        cfg = SystemConfig(n_1=1, n_2=1 + size, m_1=1 + delta, m_2=1 + delta + size,
                           g_1=g, g_2=g)
        grid = TimeGrid(t_max=t_max, dt=dt)
        traj = dynamics.solve_volterra(cfg, initial_state("atom1", cfg), grid)
        p1, p2, settled = dynamics.plateau(traj)
        out.update({"plateau_pop1": p1, "plateau_pop2": p2, "plateau_settled": settled})
    return out


def run_sweep(out_dir, key, values, size=6, delta=3, g=0.1, dt=0.02,
              workers=1, with_dynamics=False, t_max=200.0) -> list:
    """One census (and optionally one Volterra plateau) per value of ``key``,
    run on up to ``workers`` processes, capped at ``os.cpu_count()``.

    Every value is parsed by its key (an integer for delta and N, a float
    for g and dt) before any task starts; one that does not parse is a
    ConfigError, and so is, with dynamics, a time grid ``TimeGrid`` rejects.
    The ``value`` column keeps each value as given.
    """
    if key not in _SWEEP_KEYS:
        raise ConfigError(f"sweep key must be one of {tuple(_SWEEP_KEYS)}, got {key!r}")
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    parse = _SWEEP_KEYS[key]
    base = {"N": size, "delta": delta, "g": g, "dt": dt}
    tasks = []
    for v in values:
        try:
            params = {**base, key: parse(v)}
        except (TypeError, ValueError):
            raise ConfigError(f"sweep value {v!r} does not parse as a {key} value") from None
        if with_dynamics:
            TimeGrid(t_max=t_max, dt=params["dt"])  # ConfigError before any task
        tasks.append((params, key, v, with_dynamics, t_max))
    workers = min(workers, os.cpu_count() or 1)
    out_dir = _prepare_out_dir(out_dir)
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one, tasks))
    else:
        results = [_sweep_one(t) for t in tasks]
    header = ["key", "value", "n_bic", "energies"]
    if with_dynamics:
        header += ["plateau_pop1", "plateau_pop2", "plateau_settled"]
    write_csv(os.path.join(out_dir, "sweep.csv"), header,
              [[r[h] for r in results] for h in header])
    return results


def _default_out() -> str:
    return os.environ.get(OUTPUT_DIR_ENV, "out")


def _add_common(parser):
    parser.add_argument("--out", default=None, help="output directory "
                        f"(default $%s or ./out)" % OUTPUT_DIR_ENV)
    parser.add_argument("--dt", type=float, default=None)
    parser.add_argument("--tmax", type=float, default=None)
    parser.add_argument("--nc", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crwqed",
        description="Bound states in the continuum and beyond-Markovian dynamics "
                    "of two giant atoms coupled to a coupled-resonator waveguide.")
    parser.add_argument("--version", action="version", version=f"crwqed {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="full pipeline for a preset or config file")
    run_p.add_argument("target", help=f"preset ({', '.join(sorted(PRESETS))}, table1) or config file")
    run_p.add_argument("--check", action="store_true",
                       help="exit 3 when any tolerance check fails")
    _add_common(run_p)

    for name, blurb in (("spectrum", "lattice spectrum and bound-state classification"),
                        ("bic", "closed-form bound-state roots"),
                        ("dynamics", "atomic populations and M(t) eigenvalue trace"),
                        ("field", "real-space photon snapshots")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("target")
        _add_common(p)

    census_p = sub.add_parser("census", help="bound-state census over the standard geometries")
    census_p.add_argument("--g", type=float, default=0.1)
    _add_common(census_p)

    sweep_p = sub.add_parser("sweep", help="one-parameter sweep of the census")
    sweep_p.add_argument("--vary", required=True, metavar="{delta,N,g,dt}")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values for the varied key")
    sweep_p.add_argument("--size", type=int, default=6)
    sweep_p.add_argument("--delta", type=int, default=3)
    sweep_p.add_argument("--g", type=float, default=0.1)
    sweep_p.add_argument("--workers", type=int, default=1)
    sweep_p.add_argument("--dynamics", action="store_true",
                         help="also report the steady-state plateau per value")
    _add_common(sweep_p)
    return parser


def _cmd_partial(scn: Scenario, out_dir, which: str):
    cfg = validate_config(scn.cfg)
    out_dir = _prepare_out_dir(out_dir)
    if which == "bic":
        roots = bic.find_bic_roots(cfg)
        write_json(os.path.join(out_dir, "bic.json"), _roots_payload(cfg, roots))
        return
    if which == "spectrum":
        sites, _, profiles = _lattice(cfg, scn.n_c)
        _write_spectrum(out_dir, sites, profiles)
        return
    if which not in ("dynamics", "field"):
        raise ValueError(which)
    kernels = dynamics.build_kernels(cfg, scn.grid)
    psi0 = initial_state(scn.psi0, cfg)
    trajectory = dynamics.solve_volterra(cfg, psi0, scn.grid, kernels)
    if which == "dynamics":
        _write_dynamics(out_dir, trajectory)
        _write_mtrace(out_dir, dynamics.m_eigenvalues_trace(cfg, scn.grid, kernels))
    else:
        _write_field(out_dir, dynamics.photon_field(cfg, trajectory, _field_window(cfg),
                                                    scn.snapshot_times))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = getattr(args, "out", None) or _default_out()
    try:
        if args.command == "run":
            if args.target == "table1":
                rows = run_census(out_dir)
                for r in rows:
                    print(f"N={r.size} delta={r.delta}: {r.n_bic} BIC(s) "
                          + (f"at {', '.join(f'{e:+.4f}' for e in r.energies)}" if r.n_bic else ""))
                return 0
            scn = load_scenario(args.target, dt=args.dt, t_max=args.tmax, n_c=args.nc)
            manifest = run_scenario(scn, out_dir)
            for c in manifest["checks"]:
                status = {True: "PASS", False: "FAIL", None: "info"}[c["passed"]]
                print(f"[{status}] {c['name']}: {c['value']:.6g}"
                      + (f" (threshold {c['threshold']:.6g})" if c["threshold"] is not None else ""))
            if args.check and not manifest["all_passed"]:
                return 3
            return 0
        if args.command in ("spectrum", "bic", "dynamics", "field"):
            scn = load_scenario(args.target, dt=args.dt, t_max=args.tmax, n_c=args.nc)
            _cmd_partial(scn, out_dir, args.command)
            return 0
        if args.command == "census":
            rows = run_census(out_dir, g=args.g)
            for r in rows:
                print(f"N={r.size} delta={r.delta}: n_bic={r.n_bic}")
            return 0
        if args.command == "sweep":
            values = [v for v in args.values.split(",") if v != ""]
            results = run_sweep(out_dir, args.vary, values, size=args.size,
                                delta=args.delta, g=args.g,
                                dt=0.02 if args.dt is None else args.dt,
                                workers=args.workers, with_dynamics=args.dynamics,
                                t_max=200.0 if args.tmax is None else args.tmax)
            for r in results:
                print(f"{args.vary}={r['value']}: n_bic={r['n_bic']}")
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (dynamics.SolverError, RuntimeError, ValueError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
