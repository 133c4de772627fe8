"""Command-line front end: presets, scenario runs, census, sweeps.

Every scenario command (``run``, ``spectrum``, ``bic``, ``dynamics``,
``field``) is one ``run_scenario`` call with the command's stage set from
``COMMAND_STAGES``; it, ``run_census`` and ``run_sweep`` run in one frame
(``_run_pipeline``) that writes ``manifest.json`` with the stages, checks
and warnings.  Artifacts are plain CSV (comma separator, header
row, 15 significant digits, no locale) and JSON; reruns with identical
configuration produce byte-identical CSV bodies.  Every float cell reads
exactly as Python's ``"%.15g" % x``: float-array columns are formatted a
block of rows at a time by one numpy kernel (``_float_cells``), which
leaves non-finite values, |x| outside [1e-250, 1e250) other than zero,
and values near a rounding tie to Python itself.  Exit codes: 0 success,
1 configuration or usage error, 2 solver error (a ``SolverError`` only;
any other exception is a bug and propagates), 3 tolerance-check failure
(with ``--check``, which every command takes).
"""

from __future__ import annotations

import argparse
import functools
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

from . import __version__, bic, dynamics, specfun, spectrum
from .model import (
    MAX_GRID_NODES,
    ConfigError,
    SolverError,
    SystemConfig,
    TimeGrid,
    config_from_mapping,
    initial_state,
    parse_config_file,
)

OUTPUT_DIR_ENV = "CRWQED_OUT"
FIELD_WINDOW_PAD = 20


# Every scenario starts with the excitation in atom 1.
INITIAL_STATE = "atom1"


@dataclass(frozen=True)
class Scenario:
    name: str
    cfg: SystemConfig
    grid: TimeGrid
    n_c: int
    checks: tuple[str, ...] = ()

    @property
    def snapshot_times(self) -> tuple[float, ...]:
        """Field snapshot times: the grid nodes nearest 0, 1/4, 1/2, 3/4
        and 1 of the horizon."""
        grid = self.grid
        return tuple(round(f * grid.t_end / grid.dt) * grid.dt
                     for f in (0.0, 0.25, 0.5, 0.75, 1.0))


def _preset(name, legs, t_max, n_c, checks=()):
    cfg = SystemConfig(n_1=legs[0], n_2=legs[1], m_1=legs[2], m_2=legs[3])
    return Scenario(name=name, cfg=cfg, grid=TimeGrid(t_max=t_max, dt=0.02), n_c=n_c,
                    checks=tuple(checks))


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
    """Formatted cells of one column that is not a float array; an array
    is read once, as a list, and str cells pass unchanged."""
    if isinstance(column, np.ndarray):
        column = column.tolist()
    return [x if type(x) is str else _fmt(x) for x in column]


# ---- float cells: "%.15g" for whole arrays ----
# Powers of ten 10**k in the table, and the |v| range the kernel rounds:
# every scaled value, split and partial product stays a normal double.
_K_MIN, _K_MAX = -237, 266
_KERNEL_RANGE = (1e-250, 1e250)
# Distance from a rounding tie (in units of the 15th digit) below which a
# cell is left to Python; the double-double error is below 1e-15 there.
_TIE_TOL = 1e-6


def _word(text: str, right: bool = False) -> int:
    """Up to 8 ASCII bytes as a little-endian word, NUL-padded."""
    raw = text.encode()
    return int.from_bytes(raw.rjust(8, b"\0") if right else raw.ljust(8, b"\0"), "little")


@functools.cache
def _kernel_tables() -> dict:
    """Tables of ``_float_cells``, built by its first call (about 0.5 ms).

    ``pow10[:, k - _K_MIN]`` = (hi, hh, hl, lo): hi the double nearest
    10**k, hh + hl == hi its Dekker split, lo the double nearest
    10**k - hi, from exact integer arithmetic.  ``prefix[5 * neg + z]``:
    the sign and, for z = -E > 0, "0." and z - 1 zeros, right-aligned.
    ``suffix[E + 252]``: "e+XX" (index 0: none).  ``low[j]``: the low j
    bytes of a word.  ``dot[:, j]``: '.' at byte j of a two-word body
    (j = 16: none).
    """
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        den = 10 ** max(-k, 0)
        h = 10 ** max(k, 0) / den
        num, pow2 = h.as_integer_ratio()
        hi.append(h)
        lo.append((10 ** max(k, 0) * pow2 - num * den) / (pow2 * den))
    hi = np.array(hi)
    split = hi * 134217729.0  # 2**27 + 1
    hh = split - (split - hi)
    prefix = [_word(sign + ("0." + "0" * (z - 1) if z else ""), right=True)
              for sign in ("", "-") for z in range(5)]
    return {
        "pow10": np.array([hi, hh, hi - hh, lo]),
        "prefix": np.array(prefix, dtype=np.uint64),
        "suffix": np.array([0] + [_word(f"e{e:+03d}") for e in range(-251, 252)],
                           dtype=np.uint64),
        "low": np.array([(1 << 8 * j) - 1 for j in range(9)], dtype=np.uint64),
        "dot": np.array([[0x2E << 8 * j if j < 8 else 0 for j in range(17)],
                         [0x2E << 8 * (j - 8) if 8 <= j < 16 else 0 for j in range(17)]],
                        dtype=np.uint64),
    }


def _scaled(a, k, pow10):
    """a * 10**k as an unevaluated sum p + s: p = fl(a * hi), s = the exact
    error of that product (Dekker) plus a * lo.  Relative error < 1e-30."""
    hi, hh, hl, lo = pow10.take(k - _K_MIN, axis=1)
    p = a * hi
    split = a * 134217729.0
    ah = split - (split - a)
    al = a - ah
    return p, (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo


def _digits8(x):
    """The 8 decimal digits of each x < 10**8 (uint64), one per byte of a
    little-endian word, most significant first: x // 10**4 and x % 10**4
    go to the two 32-bit lanes, then // 100 and // 10 by multiply-shift
    inside 32- and 16-bit lanes."""
    q = (x * 109951163) >> 40
    x = q | ((x - q * 10000) << 32)
    q = ((x * 5243) >> 19) & 0x0000007F0000007F
    x = q | ((x - q * 100) << 16)
    q = ((x * 103) >> 10) & 0x000F000F000F000F
    return q | ((x - q * 10) << 8)


def _digit_count(w):
    """Bytes up to the last nonzero one of words of digit values 0..9."""
    flags = (w + 0x7F7F7F7F7F7F7F7F) & 0x8080808080808080
    return np.frexp(flags.astype(float))[1] >> 3


def _float_cells(v):
    """``"%.15g" % x`` for every x of a float64 array, as (v.size, 4)
    '<u8' words per cell: sign and "0.000" prefix (right-aligned), 16-byte
    body (digits and decimal point), "e+XX" suffix; NUL bytes are padding.

    |x| in ``_KERNEL_RANGE`` is scaled to 15 integer digits by a
    double-double product and rounded half-even; zeros are "0" and "-0".
    Non-finite values, the rest of the range and values within
    ``_TIE_TOL`` of a rounding tie are formatted by Python instead.
    """
    tab = _kernel_tables()
    a = np.abs(v)
    zero = a == 0.0
    kept = (a >= _KERNEL_RANGE[0]) & (a < _KERNEL_RANGE[1])
    a[~kept] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    p, s = _scaled(a, 14 - e, tab["pow10"])
    # log10 misses by one next to a power of ten; a miss by less than the
    # rounding step comes out the same after the carry below
    miss = np.flatnonzero((p < 1e14) | (p >= 1e15))
    if miss.size:
        e[miss] += np.where(p[miss] < 1e14, -1, 1)
        p[miss], s[miss] = _scaled(a[miss], 14 - e[miss], tab["pow10"])
    n = np.rint(p)
    d = (p - n) + s
    n += d > 0.5
    n -= d < -0.5
    python = np.flatnonzero(~(kept | zero) | (np.abs(np.abs(d) - 0.5) < _TIE_TOL))
    del a, p, s, d
    carry = n == 1e15
    n[carry] = 1e14
    e += carry
    n[zero] = 0.0
    e[zero] = 0

    upper = np.floor(n / 1e8)
    hi8 = _digits8(upper.astype(np.uint64))  # leading byte 0: upper < 10**7
    lo8 = _digits8((n - upper * 1e8).astype(np.uint64))
    del n, upper
    d0 = (hi8 >> 8) | (lo8 << 56)  # digit values of bytes 0..7 and 8..14
    d1 = lo8 >> 8
    del hi8, lo8
    last = _digit_count(d1)
    n_sig = np.where(last > 0, last + 8, _digit_count(d0))  # 0 for zero

    # %g: fixed notation for -4 <= E < 15, h digits before the point
    fixed = (e >= -4) & (e < 15)
    h = np.where(fixed, np.where(e >= 0, e + 1, n_sig), 1)
    n_dig = np.maximum(n_sig, h)
    low = tab["low"]
    d0 = (d0 | 0x3030303030303030) & low.take(np.minimum(n_dig, 8))
    d1 = (d1 | 0x3030303030303030) & low.take(np.clip(n_dig - 8, 0, 8))
    m0, m1 = low.take(np.minimum(h, 8)), low.take(np.clip(h - 8, 0, 8))
    tail0 = d0 & ~m0
    at = np.where(n_sig > h, h, 16)
    out = np.empty((v.size, 4), dtype="<u8")
    out[:, 0] = tab["prefix"].take(5 * np.signbit(v) + np.where(fixed & (e < 0), -e, 0))
    out[:, 1] = (d0 & m0) | (tail0 << 8) | tab["dot"][0].take(at)
    out[:, 2] = (d1 & m1) | ((d1 & ~m1) << 8) | (tail0 >> 56) | tab["dot"][1].take(at)
    out[:, 3] = tab["suffix"].take(np.where(fixed, 0, e + 252))
    if python.size:
        text = ["%.15g" % x for x in v[python].tolist()]
        out[python] = np.array(text, dtype="S32").view("<u8").reshape(-1, 4)
    return out


# Scratch of one ``write_csv`` block, and the bytes of it one float cell
# takes: the kernel's temporaries peak at about 150 (the NUL-padded block,
# its mask and the bytes kept, about 100, come after them).
_CSV_BLOCK_BYTES = 3 << 19
_CSV_CELL_BYTES = 150


def _float_columns(columns) -> list[int]:
    return [i for i, c in enumerate(columns) if isinstance(c, np.ndarray) and c.dtype.kind == "f"]


def _block(columns) -> np.ndarray:
    """One block of rows as a (rows, width) uint8 array: a fixed-width,
    NUL-padded slot per cell, each ending in its ',' or '\\n'."""
    floats = _float_columns(columns)
    slots = {}
    if floats:
        values = np.stack([columns[i] for i in floats], axis=1).astype(np.float64, copy=False)
        cells = _float_cells(values.ravel()).view(np.uint8).reshape(len(values), len(floats), 32)
        slots = {i: cells[:, j] for j, i in enumerate(floats)}
    for i, c in enumerate(columns):
        if i not in slots:
            encoded = np.array([x.encode("utf-8") for x in _cells(c)], dtype=bytes)
            slots[i] = encoded.view(np.uint8).reshape(len(encoded), -1)
    widths = np.cumsum([slots[i].shape[1] + 1 for i in range(len(columns))])
    block = np.zeros((len(columns[0]), widths[-1]), dtype=np.uint8)
    for i, end in enumerate(widths):
        block[:, end - 1 - slots[i].shape[1]:end - 1] = slots[i]
        block[:, end - 1] = ord(",")
    block[:, -1] = ord("\n")
    return block


def write_csv(path, header, columns):
    """Write a CSV file from whole columns (arrays or sequences, one per
    header field, all of one length).

    Ragged columns raise ValueError before the file is opened.  Rows are
    formatted and written in blocks of ``_CSV_BLOCK_BYTES`` over
    ``_CSV_CELL_BYTES`` per float-array column (1497 rows of 7 float
    columns; as if one for a file without any).  The cells of every
    float-array column of a block go through one ``_float_cells`` call,
    whose bytes equal ``"%.15g" % float(x)``; the cells it cannot decide
    (non-finite, nonzero |x| outside [1e-250, 1e250), within 1e-6 of a
    rounding tie) are formatted by exactly that.  Other cells go through
    ``_fmt``, str cells unchanged, and are written as UTF-8.  A block is
    one NUL-padded uint8 array (33 bytes per float cell, the widest cell
    plus one of every other column); its NULs are removed by one boolean
    mask and the rest written in binary mode.  Block and kernel scratch
    peak at about 150 bytes per float cell, so a block stays within
    about 1.5 MB whatever the row count.  A file with no
    float-array column builds no kernel table.
    """
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns of unequal length {lengths} for {path}")
    n_rows = lengths[0] if lengths else 0
    rows = max(1, _CSV_BLOCK_BYTES // (_CSV_CELL_BYTES * max(1, len(_float_columns(columns)))))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for lo in range(0, n_rows, rows):
            block = _block([c[lo:lo + rows] for c in columns])
            fh.write(block[block != 0])
            del block


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_native)
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

    Only parses: ``run_scenario`` checks the inputs its stages read.
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
            cfg=cfg, grid=grid, n_c=file_n_c if file_n_c is not None else 600)
    else:
        raise ConfigError(f"{target!r} is neither a preset {sorted(PRESETS)} nor a config file")
    if dt is not None or t_max is not None:
        grid = TimeGrid(t_max=t_max if t_max is not None else scn.grid.t_max,
                        dt=dt if dt is not None else scn.grid.dt)
        scn = replace(scn, grid=grid)
    if n_c is not None:
        scn = replace(scn, n_c=n_c)
    return scn


def _runnable_stages(scn: Scenario, stages) -> tuple[str, ...]:
    """``stages``, or a ConfigError, from sizes alone, for an input they read
    and cannot take: the lattice size, the closed form's range, the kernel
    grid, the leg span, a time grid over ``MAX_GRID_NODES``, and any Bessel
    table (memory kernels, plot window) that would send Miller's recurrence
    an argument above ``specfun.MILLER_X_MAX``.  ``run`` drops
    ``bic_roots``, with a warning, wherever ``bic.check_closed_form``
    refuses the config (unequal atoms, or beyond ``bic.MAX_LEG_DISTANCE``)."""
    cfg, two_xi = scn.cfg, 2.0 * scn.cfg.xi
    if "bic_roots" in stages:
        try:
            bic.check_closed_form(cfg)
        except ConfigError as exc:
            if stages != STAGES:
                raise
            warnings.warn(f"bic_roots skipped: {exc}", stacklevel=2)
            stages = tuple(name for name in STAGES if name != "bic_roots")
    if "lattice" in stages:
        spectrum.check_lattice_size(cfg, scn.n_c)
    if {"exact_propagate", "volterra"} & set(stages) and scn.grid.n_steps + 1 > MAX_GRID_NODES:
        nodes = scn.grid.n_steps + 1
        count = nodes if nodes < 10 ** 15 else f"{nodes:.3g}"  # not hundreds of digits
        raise ConfigError(f"time grid of {count} nodes (t_max={scn.grid.t_max}, "
                          f"dt={scn.grid.dt}) exceeds {MAX_GRID_NODES}, the largest")
    tables = []  # (what, highest order, latest time) of the Bessel tables
    if "volterra" in stages:
        dynamics.check_kernel_grid(cfg, scn.grid)
        # the lattice's bound on the legs, which caps the Bessel orders too
        if cfg.span + spectrum.LATTICE_MARGIN > spectrum.MAX_LATTICE_SITES:
            raise ConfigError(f"leg span {cfg.span} + margin {spectrum.LATTICE_MARGIN} "
                              f"exceeds {spectrum.MAX_LATTICE_SITES}, the largest lattice")
        tables.append(("memory kernel", dynamics.kernel_order_max(cfg), scn.grid.t_end))
    if "photon_field" in stages:
        tables.append(("field window", cfg.span + FIELD_WINDOW_PAD,
                       max(scn.snapshot_times, default=0.0)))
    for what, order, t in tables:
        if specfun.miller_reach(order, two_xi * t) > specfun.MILLER_X_MAX:
            raise ConfigError(
                f"{what} needs Bessel orders up to {order} at arguments up to "
                f"{two_xi * t:g}; Miller's recurrence would see arguments above "
                f"{specfun.MILLER_X_MAX:g}, beyond its validated range")
    return stages


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


# ---- artifact writers of the run_scenario stages ----

def _write_spectrum(out_dir, sites, classified):
    """spectrum.csv, plus profile_<index>.csv for every BIC and BOC."""
    energies, atoms = classified.energies, classified.atoms
    write_csv(os.path.join(out_dir, "spectrum.csv"),
              ("index", "energy", "class", "ipr", "a1_sq", "a2_sq"),
              (range(energies.size), energies, classified.labels, classified.ipr,
               atoms[0] * atoms[0], atoms[1] * atoms[1]))
    for i, photon in classified.photon.items():
        write_csv(os.path.join(out_dir, f"profile_{i}.csv"), ("site", "prob"), (sites, photon))


def _write_dynamics(out_dir, trajectory, trace):
    """dynamics.csv and mtrace.csv."""
    times = trajectory.grid.times()
    a1, a2 = trajectory.alpha_1, trajectory.alpha_2
    write_csv(os.path.join(out_dir, "dynamics.csv"),
              ("t", "re_alpha1", "im_alpha1", "re_alpha2", "im_alpha2", "pop1", "pop2"),
              (times, a1.real, a1.imag, a2.real, a2.imag, trajectory.pop_1, trajectory.pop_2))
    write_csv(os.path.join(out_dir, "mtrace.csv"),
              ("t", "re_lambda1", "im_lambda1", "re_lambda2", "im_lambda2"),
              (trace.grid.times(), trace.lambda_1.real, trace.lambda_1.imag,
               trace.lambda_2.real, trace.lambda_2.imag))


def _write_field(out_dir, snapshots):
    sizes = [snap.sites.size for snap in snapshots]
    times = np.repeat(np.array([snap.time for snap in snapshots], dtype=float), sizes)
    sites = np.concatenate([snap.sites for snap in snapshots] or [np.zeros(0, dtype=int)])
    probs = np.concatenate([snap.probabilities for snap in snapshots] or [np.zeros(0)])
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


def _check(name, value, threshold, ok=None) -> dict:
    """A check that passes when ``ok``, by default when value <= threshold."""
    return {"name": name, "value": _native(value), "threshold": _native(threshold),
            "passed": bool(value <= threshold if ok is None else ok)}


def _info(name, value) -> dict:
    return {"name": name, "value": _native(value), "threshold": None, "passed": None}


# The stages of a scenario run, in pipeline order, and the stages each
# scenario command runs: the partial commands are subsets of ``run``.
STAGES = ("lattice", "exact_propagate", "bic_roots", "volterra", "photon_field",
          "field_norm_check", "scenario_checks", "write_artifacts")
COMMAND_STAGES = {
    "run": STAGES,
    "spectrum": ("lattice", "write_artifacts"),
    "bic": ("bic_roots", "write_artifacts"),
    "dynamics": ("volterra", "write_artifacts"),
    "field": ("volterra", "photon_field", "write_artifacts"),
}


def run_scenario(scn: Scenario, out_dir, stages=STAGES) -> dict:
    """The stages of one scenario command, one of the ``COMMAND_STAGES``
    sets (``STAGES``, the default, for ``run``); returns the manifest dict.

    Every stage runs once: the lattice is diagonalized a single time and
    its eigenbasis and classified states feed the exact propagation, the
    steady-state projection and the count the closed-form roots are
    checked against (the roots themselves need no lattice).  The exact
    propagation runs right after the lattice, so the eigenbasis is freed
    before the dynamics.  A check is
    recorded only when every stage it reads ran, and ``write_artifacts``
    writes the files of the stages that ran.  The inputs those stages read
    are checked (``_runnable_stages``) before the output directory is made.
    """
    if stages not in COMMAND_STAGES.values():
        raise ValueError(f"{stages!r} is not the stage set of a scenario command")
    return _run_pipeline(
        out_dir, {"scenario": scn.name, "config": asdict(scn.cfg), "t_max": scn.grid.t_max,
                  "dt": scn.grid.dt, "n_c": scn.n_c, "initial_state": INITIAL_STATE},
        lambda out, records, runnable: _scenario_stages(scn, out, runnable, records),
        lambda: _runnable_stages(scn, stages))


def _run_pipeline(out_dir, payload: dict, run_stages, check_inputs) -> dict:
    """Every command's frame: ``check_inputs()`` raises before the output
    directory is made, ``run_stages(out_dir, records, <what it returned>)``
    writes the artifacts, appends a ``_stage`` record per stage and returns
    the checks.  Every warning raised is recorded in the manifest, then
    re-emitted (also when a stage raises).  Writes ``payload`` plus the
    versions, wall time, stages, checks, warnings and ``all_passed`` to
    ``manifest.json``; returns it."""
    started = time.monotonic()
    records: list[dict] = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            checked = check_inputs()
            out_dir = _prepare_out_dir(out_dir)
            checks = run_stages(out_dir, records, checked)
    finally:  # recorded for the manifest, then shown as if never caught
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)

    manifest = {
        **payload,
        "versions": {"crwqed": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
        "wall_time_s": time.monotonic() - started,
        "stages": records,
        "checks": checks,
        "warnings": [{"category": w.category.__name__, "message": str(w.message)}
                     for w in caught],
        "all_passed": all(c["passed"] for c in checks if c["passed"] is not None),
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def _residual_check(residuals, xi=SystemConfig.xi) -> dict:
    """``bic_root_residual``: the worst |f| of the closed-form roots, against
    ``bic.RESIDUAL_TOL`` xi (by default the hopping of the
    ``bic.braided_config`` geometries)."""
    return _check("bic_root_residual", max(residuals, default=0.0), bic.RESIDUAL_TOL * xi)


@contextmanager
def _stage(records: list, name: str, **sizes):
    """Append the record of one pipeline stage to ``records``: its name,
    wall time, problem sizes and the process high-water RSS read at its
    end.  Yields the sizes dict, so the stage can add sizes it learns."""
    start = time.perf_counter()
    yield sizes
    wall = time.perf_counter() - start
    records.append({"name": name, "wall_s": wall, "sizes": sizes,
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})


def _scenario_stages(scn: Scenario, out_dir, stages, records: list) -> list[dict]:
    """The ``stages`` of ``run_scenario`` up to the manifest: writes the
    artifacts, appends one record per stage to ``records`` and returns the
    checks."""
    cfg, grid = scn.cfg, scn.grid
    psi0 = initial_state(INITIAL_STATE)
    first, last = cfg.outer_legs
    window = np.arange(first - FIELD_WINDOW_PAD, last + FIELD_WINDOW_PAD + 1)
    checks: list[dict] = []

    if "lattice" in stages:
        with _stage(records, "lattice", n_c=scn.n_c, dim=scn.n_c + 2) as sizes:
            basis = spectrum.lattice_eigenbasis(cfg, scn.n_c)
            solve = basis.report
            sizes.update(leg_system_dim=solve.leg_system_dim, count_steps=solve.count_steps,
                         close_pairs=solve.close_pairs)
            checks.append(_check("lattice_residual", solve.residual,
                                 spectrum.RESIDUAL_TOL * solve.h_norm))
            checks.append(_check("lattice_orthonormality_bound", solve.orthonormality,
                                 spectrum.ORTHONORMALITY_TOL))
            sites = basis.sites
            classified = spectrum.classify_bound_states(basis, cfg)
            n_bics = int(np.count_nonzero(classified.labels == "BIC"))

    # numerically exact propagation on the finite lattice, the last reader
    # of the eigenvectors
    if "exact_propagate" in stages:
        with _stage(records, "exact_propagate", dim=scn.n_c + 2, n_steps=grid.n_steps,
                    snapshots=len(scn.snapshot_times)):
            exact_traj, exact_snaps = spectrum.exact_propagate(
                cfg, psi0, grid, basis, snapshot_times=scn.snapshot_times)
            deficits = [abs(abs(exact_traj.alpha_1[grid.node(s.time)]) ** 2
                            + abs(exact_traj.alpha_2[grid.node(s.time)]) ** 2
                            + np.sum(s.probabilities) - 1.0) for s in exact_snaps]
            worst_exact = max(deficits, default=0.0)
            checks.append(_check("exact_norm_deficit", worst_exact, 1e-10))
            # the exact populations over the times free of edge reflections,
            # which the Volterra stage is compared against
            t_free = spectrum.reflection_free_time(cfg, scn.n_c, grid.dt)
            t_valid = min(grid.t_end, t_free)
            n_valid = grid.node(t_valid)
            exact_pops = [np.abs(a[:n_valid + 1]) ** 2
                          for a in (exact_traj.alpha_1, exact_traj.alpha_2)]
            # and the exact field on the plot window after t = 0, where
            # reflections come back FIELD_WINDOW_PAD / (2 xi) earlier than at
            # the legs
            exact_fields = {s.time: s.beta[window - sites[0]] for s in exact_snaps
                            if 0.0 < s.time <= t_free - FIELD_WINDOW_PAD / (2.0 * cfg.xi)}
        del basis, exact_traj, exact_snaps  # no later stage reads the eigenvectors

    # closed-form bound states (symmetric resonant geometries only)
    if "bic_roots" in stages:
        with _stage(records, "bic_roots", leg_distance=max(cfg.size_1, *cfg.cross_distances)):
            roots = bic.find_bic_roots(cfg)
            checks.append(_residual_check((r.residual for r in roots), cfg.xi))
            if "lattice" in stages:
                n_closed = sum(r.multiplicity for r in roots)
                checks.append(_check("bic_count_matches_lattice", n_closed, n_bics,
                                     n_closed == n_bics))

    # beyond-Markovian dynamics
    if "volterra" in stages:
        with _stage(records, "volterra", n_steps=grid.n_steps,
                    order_max=dynamics.kernel_order_max(cfg),
                    arg_max=2.0 * cfg.xi * grid.t_end) as sizes:
            kernels = dynamics.build_kernels(cfg, grid)
            sizes["components"] = dynamics.volterra_components(cfg, psi0, grid, kernels)
            trajectory = dynamics.solve_volterra(cfg, psi0, grid, kernels)
            trace = dynamics.m_eigenvalues_trace(cfg, grid, kernels)
            pop_bound = max(trajectory.pop_1.max(), trajectory.pop_2.max())
            bound_lim = 1.0 + 10.0 * grid.dt * cfg.xi
            checks.append(_check("population_bound", pop_bound, bound_lim))
            tdr = trace.trace_determinant_residual()
            checks.append(_check("trace_determinant_identity", tdr, 1e-10))
            # non-decaying eigenvalue traces <-> bound states in the continuum;
            # needs the memory integrals to have settled, so gate on the
            # horizon.  A photon-free state's trace is exactly real; it is
            # not counted, as the lattice does not label it
            if "lattice" in stages and grid.t_end >= 150.0 / cfg.xi:
                non_decaying = sum(abs(lam[-1].imag) <= 1e-3 * cfg.xi for lam in (
                    trace.lambda_1, trace.lambda_2)) - cfg.photon_free_states
                checks.append(_check("trace_nondecaying_count", non_decaying, n_bics,
                                     non_decaying == n_bics))
            if "exact_propagate" in stages:
                diff = max(np.abs(pop[:n_valid + 1] - exact).max() for pop, exact in
                           zip((trajectory.pop_1, trajectory.pop_2), exact_pops))
                checks.append(_check(f"volterra_vs_exact_pop_diff_t<={t_valid:g}", diff, 1e-2))
        del kernels  # no later stage reads the kernel tables

    # photon field over the plot window, plus a unitarity check
    if "photon_field" in stages:
        with _stage(records, "photon_field", sites=int(window.size),
                    order_max=dynamics.field_order_max(cfg, window),
                    arg_max=2.0 * cfg.xi * max(scn.snapshot_times, default=0.0)):
            snapshots = dynamics.photon_field(cfg, trajectory, window, scn.snapshot_times)
            if "exact_propagate" in stages and exact_fields:
                diff = max(np.abs(s.beta - exact_fields[s.time]).max()
                           for s in snapshots if s.time in exact_fields)
                checks.append(_check(f"volterra_vs_exact_field_diff_t<={max(exact_fields):g}",
                                     diff, 1e-3))
    if "field_norm_check" in stages:
        t_check = round(min(200.0 / cfg.xi, grid.t_end) / grid.dt) * grid.dt
        extent = dynamics.field_extent(cfg, t_check)
        n_check = grid.node(t_check)
        with _stage(records, "field_norm_check", sites=extent,
                    k_points=dynamics.field_k_points(extent), nodes=n_check + 1):
            pops = abs(trajectory.alpha_1[n_check]) ** 2 + abs(trajectory.alpha_2[n_check]) ** 2
            deficit = abs(1.0 - pops - dynamics.photon_norm(cfg, trajectory, t_check))
            checks.append(_check(f"field_norm_deficit_t={t_check:g}", deficit, 1e-2))

    if "scenario_checks" in stages:
        with _stage(records, "scenario_checks"):
            if "rabi" in scn.checks and "bic_roots" in stages and len(roots) == 2:
                expected = bic.rabi_period(roots)
                period = (oscillation_period(grid.times(), trajectory.pop_1)
                          if grid.t_end >= 1.5 * expected else math.nan)
                if math.isnan(period):  # pop1 crosses its midline rising twice by ~1.75 periods
                    checks.append(_info("rabi_period_skipped_horizon", grid.t_end / expected))
                else:
                    rel = abs(period - expected) / expected
                    checks.append(_check("rabi_period_rel_err", rel, 0.02))
                avg = float(np.mean(trajectory.pop_1[grid.n_steps // 2:]
                                    + trajectory.pop_2[grid.n_steps // 2:]))
                checks.append(_check("late_population_sum", avg, 0.9, avg >= 0.9))
            if "fractional" in scn.checks and n_bics == 1:
                p1, p2, settled = dynamics.plateau(trajectory, cfg.xi)
                pred1, pred2 = dynamics.steady_state_prediction(psi0, classified)
                checks.append(_check("plateau_balance", abs(p1 - p2), 1e-2))
                rel = max(abs(p1 - pred1) / pred1, abs(p2 - pred2) / pred2)
                checks.append(_check("plateau_vs_projection_rel_err", rel, 0.05))
                checks.append(_info("plateau_settled", settled))

    with _stage(records, "write_artifacts"):
        if "bic_roots" in stages:
            write_json(os.path.join(out_dir, "bic.json"), _roots_payload(cfg, roots))
        if "lattice" in stages:
            _write_spectrum(out_dir, sites, classified)
        if "volterra" in stages:
            _write_dynamics(out_dir, trajectory, trace)
        if "photon_field" in stages:
            _write_field(out_dir, snapshots)
    return checks


def run_census(out_dir, sizes=TABLE_CENSUS, g=0.1) -> list:
    """The closed-form census of the ``bic.braided_config`` geometries, one
    (size, deltas) pair of ``sizes`` at a time, to ``census.csv``; returns
    its rows.  Every geometry is built and checked as ``run_scenario``
    checks its ``bic_roots`` stage (``_runnable_stages``) before the output
    directory is made.  The manifest records the worst root residual."""
    sizes = [(size, list(deltas)) for size, deltas in sizes]
    rows: list = []

    def check_inputs():
        for size, deltas in sizes:
            for delta in deltas:
                cfg = bic.braided_config(size, delta, g)
                _runnable_stages(Scenario("census", cfg, None, n_c=0), ("bic_roots",))

    def stages(out_dir, records, _):
        with _stage(records, "bic_roots", geometries=sum(len(d) for _, d in sizes)):
            for size, deltas in sizes:
                rows.extend(bic.bic_census(size, deltas, g=g))
        with _stage(records, "write_artifacts"):
            write_csv(os.path.join(out_dir, "census.csv"), ("N", "delta", "n_bic", "energies"),
                      ([r.size for r in rows], [r.delta for r in rows],
                       [r.n_bic for r in rows], [_joined(r.energies) for r in rows]))
        return [_residual_check(x.residual for r in rows for x in r.roots)]

    _run_pipeline(out_dir, {"census": {"sizes": sizes, "g": g}}, stages, check_inputs)
    return rows


def _joined(energies) -> str:
    return ";".join(f"{e:.15g}" for e in energies)


# Sweep keys and the type of each key's values.
_SWEEP_KEYS = {"delta": int, "N": int, "g": float, "dt": float}


def _sweep_one(task):
    """One sweep task: its row, with the worst root residual, and the
    warnings it raised, which a pool worker could not show itself."""
    key, value, cfg, grid = task
    with warnings.catch_warnings(record=True) as caught:
        roots = bic.find_bic_roots(cfg)
        row = {"key": key, "value": value, "n_bic": sum(r.multiplicity for r in roots),
               "energies": _joined(r.energy for r in roots),
               "residual": max((r.residual for r in roots), default=0.0)}
        if grid is not None:
            p1, p2, settled = dynamics.plateau(
                dynamics.solve_volterra(cfg, initial_state(INITIAL_STATE), grid), cfg.xi)
            row.update({"plateau_pop1": p1, "plateau_pop2": p2, "plateau_settled": settled})
    return row, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def run_sweep(out_dir, key, values, size=6, delta=3, g=0.1, dt=0.02,
              workers=1, with_dynamics=False, t_max=200.0) -> list:
    """One census (and optionally one Volterra plateau) per value of ``key``,
    run on up to ``workers`` processes, capped at ``os.cpu_count()``;
    returns the rows of ``sweep.csv``, each with its worst root residual.

    Every value is parsed by its key (an integer for delta and N, a float
    for g and dt; a number must keep its value, so 7.5 is no N), and its
    ``bic.braided_config`` geometry and, with dynamics, its time grid are
    built and checked as ``run_scenario`` checks its ``bic_roots`` and
    ``volterra`` stages (``_runnable_stages``) before any task starts; a
    value that does not parse, or a geometry or grid that is invalid or out
    of range, is a ConfigError.  The ``value`` column keeps each value as
    given.
    """
    values = list(values)
    base = {"N": size, "delta": delta, "g": g, "dt": dt}
    stages = ("bic_roots", "volterra") if with_dynamics else ("bic_roots",)
    rows: list = []

    def check_inputs():
        if key not in _SWEEP_KEYS:
            raise ConfigError(f"sweep key must be one of {tuple(_SWEEP_KEYS)}, got {key!r}")
        if workers < 1:
            raise ConfigError(f"workers must be at least 1, got {workers}")
        tasks = []
        for v in values:
            try:
                params = {**base, key: _SWEEP_KEYS[key](v)}
                if not isinstance(v, str) and params[key] != v:
                    raise ValueError  # the key's type would truncate it
            except (TypeError, ValueError):
                raise ConfigError(f"sweep value {v!r} does not parse as a {key} value") from None
            grid = TimeGrid(t_max=t_max, dt=params["dt"]) if with_dynamics else None
            cfg = bic.braided_config(params["N"], params["delta"], params["g"])
            _runnable_stages(Scenario(f"{key}={v}", cfg, grid, n_c=0), stages)
            tasks.append((key, v, cfg, grid))
        return tasks

    def run_stages(out_dir, records, tasks):
        pool_size = min(workers, os.cpu_count() or 1) if len(tasks) > 1 else 1
        with _stage(records, "sweep", tasks=len(tasks), workers=pool_size):
            if pool_size > 1:
                with ProcessPoolExecutor(max_workers=pool_size) as pool:
                    results = list(pool.map(_sweep_one, tasks))
            else:
                results = [_sweep_one(t) for t in tasks]
        for row, caught in results:
            rows.append(row)
            for w in caught:
                warnings.warn_explicit(*w)
        header = ["key", "value", "n_bic", "energies"]
        if with_dynamics:
            header += ["plateau_pop1", "plateau_pop2", "plateau_settled"]
        with _stage(records, "write_artifacts"):
            write_csv(os.path.join(out_dir, "sweep.csv"), header,
                      [[r[h] for r in rows] for h in header])
        return [_residual_check(r["residual"] for r in rows)]

    _run_pipeline(out_dir, {"sweep": {**base, "key": key, "values": values,
                                      "dynamics": with_dynamics, "t_max": t_max}},
                  run_stages, check_inputs)
    return rows


def _add_flags(parser, *grid_flags):
    """``--out``, ``--check``, and those of ``--dt``, ``--tmax``, ``--nc``
    the command reads."""
    parser.add_argument("--out", default=None, help="output directory "
                        f"(default $%s or ./out)" % OUTPUT_DIR_ENV)
    parser.add_argument("--check", action="store_true",
                        help="exit 3 when any tolerance check fails")
    for flag in grid_flags:
        parser.add_argument(flag, type=int if flag == "--nc" else float, default=None)


class _Parser(argparse.ArgumentParser):
    """A usage error is a ConfigError (exit 1), not argparse's exit 2;
    subparsers inherit the class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _scenario_command(args, out_dir) -> list[str]:
    """A scenario command; ``run table1`` is the census at g = 0.1."""
    if args.command == "run" and args.target == "table1":
        if (args.dt, args.tmax, args.nc) != (None, None, None):
            raise ConfigError("run table1 takes no --dt, --tmax or --nc")
        return _census_command(out_dir)
    scn = load_scenario(args.target, dt=args.dt, t_max=args.tmax, n_c=args.nc)
    run_scenario(scn, out_dir, COMMAND_STAGES[args.command])
    return []


def _census_command(out_dir, g=0.1) -> list[str]:
    return [f"N={r.size} delta={r.delta}: {r.n_bic} BIC(s) "
            + (f"at {', '.join(f'{e:+.4f}' for e in r.energies)}" if r.n_bic else "")
            for r in run_census(out_dir, g=g)]


def _sweep_command(args, out_dir) -> list[str]:
    values = [v for v in args.values.split(",") if v != ""]
    rows = run_sweep(out_dir, args.vary, values, size=args.size, delta=args.delta,
                     g=args.g, dt=args.dt, workers=args.workers,
                     with_dynamics=args.dynamics, t_max=args.tmax)
    return [f"{args.vary}={r['value']}: n_bic={r['n_bic']}" for r in rows]


def build_parser() -> argparse.ArgumentParser:
    """The command line; each command's ``execute(args, out_dir)`` runs it
    and returns the lines it prints before its checks."""
    parser = _Parser(
        prog="crwqed",
        description="Bound states in the continuum and beyond-Markovian dynamics "
                    "of two giant atoms coupled to a coupled-resonator waveguide.")
    parser.add_argument("--version", action="version", version=f"crwqed {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, blurb in (("run", "full pipeline for a preset or config file"),
                        ("spectrum", "lattice spectrum and bound-state classification"),
                        ("bic", "closed-form bound-state roots"),
                        ("dynamics", "atomic populations and M(t) eigenvalue trace"),
                        ("field", "real-space photon snapshots")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("target", help=f"preset ({', '.join(sorted(PRESETS))}"
                       + (", table1)" if name == "run" else ")") + " or config file")
        _add_flags(p, "--dt", "--tmax", "--nc")
        p.set_defaults(execute=_scenario_command)

    census_p = sub.add_parser("census", help="bound-state census over the standard geometries")
    census_p.add_argument("--g", type=float, default=0.1)
    _add_flags(census_p)
    census_p.set_defaults(execute=lambda args, out_dir: _census_command(out_dir, args.g))

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
    _add_flags(sweep_p, "--dt", "--tmax")
    sweep_p.set_defaults(execute=_sweep_command, dt=0.02, tmax=200.0)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        out_dir = args.out or os.environ.get(OUTPUT_DIR_ENV, "out")
        for line in args.execute(args, out_dir):
            print(line)
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        for c in manifest["checks"]:
            status = {True: "PASS", False: "FAIL", None: "info"}[c["passed"]]
            print(f"[{status}] {c['name']}: {c['value']:.6g}"
                  + (f" (threshold {c['threshold']:.6g})" if c["threshold"] is not None else ""))
        return 3 if args.check and not manifest["all_passed"] else 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
