import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crwqed import cli
from crwqed.model import MAX_GRID_NODES, ConfigError
from crwqed.cli import (
    load_scenario,
    main,
    oscillation_period,
    run_census,
    run_scenario,
    run_sweep,
)
from oracles import traced_peak

TABLE = {
    (6, 1): 2, (6, 2): 2, (6, 3): 2, (6, 4): 2, (6, 5): 2,
    (8, 1): 0, (8, 2): 1, (8, 3): 0, (8, 4): 1, (8, 5): 0, (8, 6): 1, (8, 7): 0,
}


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    out = tmp_path_factory.mktemp("census")
    return run_census(out), out


def test_census_counts_for_all_standard_geometries(census):
    rows, _ = census
    got = {(r.size, r.delta): r.n_bic for r in rows}
    assert got == TABLE


def test_census_split_energies(census):
    rows, _ = census
    for r in rows:
        if r.size == 6 and r.delta in (1, 3, 5):
            assert sorted(r.energies) == pytest.approx([-0.0097, 0.0097], abs=1e-3)
        elif r.n_bic >= 1:
            assert all(abs(e) <= 1e-6 for e in r.energies)


def test_census_csv_written(census):
    _, out = census
    lines = (out / "census.csv").read_text().splitlines()
    assert lines[0] == "N,delta,n_bic,energies"
    assert len(lines) == 1 + len(TABLE)


def test_run_scenario_artifacts_and_determinism(tmp_path):
    scn = load_scenario("fig3", t_max=40.0)
    out1 = tmp_path / "a"
    manifest = run_scenario(scn, out1)
    for name in ("bic.json", "spectrum.csv", "dynamics.csv", "mtrace.csv",
                 "field.csv", "manifest.json"):
        assert (out1 / name).exists()
    failed = [c for c in manifest["checks"] if c["passed"] is False]
    assert failed == []
    out2 = tmp_path / "b"
    run_scenario(scn, out2)
    for name in ("spectrum.csv", "dynamics.csv", "mtrace.csv", "field.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    stages = json.loads((out1 / "manifest.json").read_text())["stages"]
    assert [s["name"] for s in stages] == [
        "lattice", "exact_propagate", "bic_roots", "volterra", "photon_field",
        "field_norm_check", "scenario_checks", "write_artifacts"]
    assert all(s["wall_s"] >= 0.0 for s in stages)
    peaks = [s["peak_rss_mb"] for s in stages]
    assert peaks[0] > 0.0 and peaks == sorted(peaks)
    sizes = {s["name"]: s["sizes"] for s in stages}
    # fig3's leg system: two tail amplitudes, the three stretches between
    # its four distinct leg sites, two atoms
    assert sizes["lattice"] == {"n_c": scn.n_c, "dim": scn.n_c + 2, "leg_system_dim": 7,
                                "count_steps": sizes["lattice"]["count_steps"],
                                "close_pairs": sizes["lattice"]["close_pairs"]}
    assert 5 <= sizes["lattice"]["count_steps"] <= 25
    # fig3's kernels reach order 9 (the leg distances) and 2 xi t = 80 at t = 40;
    # on resonance the solve runs as a real 2-component system
    assert sizes["volterra"] == {"n_steps": scn.grid.n_steps, "order_max": 9,
                                 "arg_max": pytest.approx(80.0), "components": 2}
    assert sizes["bic_roots"] == {"leg_distance": 9}
    # the field reaches 80 + 4.5 * 80^(1/3) = 99.4 sites beyond the legs at
    # t = 40, plus the leg span 9; the k-grid is the power of two at or above
    # its 210 sites
    assert sizes["field_norm_check"] == {"sites": 2 * 100 + 9 + 1, "k_points": 256,
                                         "nodes": 2001}


def test_manifest_contents(tmp_path):
    scn = load_scenario("fig2a", t_max=20.0)
    run_scenario(scn, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["scenario"] == "fig2a"
    assert manifest["config"]["n_2"] == 7
    assert "crwqed" in manifest["versions"]
    names = {c["name"] for c in manifest["checks"]}
    assert "trace_determinant_identity" in names
    assert manifest["all_passed"] is True


def test_sweep_delta_alternation(tmp_path):
    results = run_sweep(tmp_path, "delta", list(range(1, 8)), size=8)
    counts = [r["n_bic"] for r in results]
    assert counts == [0, 1, 0, 1, 0, 1, 0]


def test_sweep_coupling_growth(tmp_path):
    results = run_sweep(tmp_path, "g", [0.05, 0.1, 0.2], size=6, delta=3)
    splittings = []
    for r in results:
        assert r["n_bic"] == 2
        energies = [float(e) for e in r["energies"].split(";")]
        splittings.append(max(energies) - min(energies))
    assert splittings[0] < splittings[1] < splittings[2]


def test_sweep_empty_values(tmp_path):
    results = run_sweep(tmp_path, "delta", [])
    assert results == []
    assert (tmp_path / "sweep.csv").read_text().splitlines() == ["key,value,n_bic,energies"]


def test_sweep_workers_deterministic(tmp_path):
    serial = run_sweep(tmp_path / "s", "delta", [1, 2, 3], size=6, workers=1)
    parallel = run_sweep(tmp_path / "p", "delta", [1, 2, 3], size=6, workers=3)
    assert serial == parallel


def test_main_exit_codes(tmp_path, capsys):
    assert main(["sweep", "--vary", "nope", "--values", "1",
                 "--out", str(tmp_path / "x")]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    assert main(["run", str(bad), "--out", str(tmp_path / "y")]) == 1
    assert "unknown key" in capsys.readouterr().err
    assert main(["run", "not-a-preset", "--out", str(tmp_path / "z")]) == 1


@pytest.mark.parametrize("argv, message", [
    (["census", "--bogus"], "crwqed: unrecognized arguments: --bogus"),
    (["run"], "crwqed run: the following arguments are required: target"),
    (["run", "fig3", "--nc", "abc"], "argument --nc: invalid int value: 'abc'"),
    (["nope"], "argument command: invalid choice: 'nope'"),
    (["census", "--dt", "0.01"], "unrecognized arguments: --dt 0.01"),
    (["census", "--tmax", "5"], "unrecognized arguments: --tmax 5"),
    (["census", "--nc", "100"], "unrecognized arguments: --nc 100"),
    (["sweep", "--vary", "delta", "--values", "1", "--nc", "100"],
     "unrecognized arguments: --nc 100"),
    (["run", "table1", "--dt", "0.01"], "run table1 takes no --dt, --tmax or --nc"),
    (["run", "table1", "--tmax", "5"], "run table1 takes no --dt, --tmax or --nc"),
    (["run", "table1", "--nc", "100"], "run table1 takes no --dt, --tmax or --nc"),
], ids=["unknown_flag", "no_target", "bad_int", "unknown_command",
        "census_dt", "census_tmax", "census_nc", "sweep_nc", "table1_dt", "table1_tmax",
        "table1_nc"])
def test_usage_errors_and_unread_flags_exit_1(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "usage:" not in captured.err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["census", "--help"]])
def test_help_and_version_still_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 0
    assert capsys.readouterr().out


def test_main_unwritable_output(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = main(["census", "--out", str(blocker / "sub")])
    assert code == 1
    assert "not writable" in capsys.readouterr().err


def test_main_run_table1(tmp_path, capsys):
    out = tmp_path / "t1"
    assert main(["run", "table1", "--out", str(out)]) == 0
    assert (out / "census.csv").exists()
    printed = capsys.readouterr().out
    assert "N=8 delta=7: 0 BIC(s)" in printed
    # `census` at its default coupling is the same census, printed alike
    assert main(["census", "--out", str(tmp_path / "census")]) == 0
    assert capsys.readouterr().out == printed
    assert (tmp_path / "census" / "census.csv").read_bytes() == (out / "census.csv").read_bytes()


def test_failed_check_exits_3_only_with_check(tmp_path, capsys):
    # at g = 0.05 a 600-site lattice labels resonances as BICs: the
    # closed form finds 0 bound states where the lattice counts 2
    cfgfile = tmp_path / "weak.cfg"
    cfgfile.write_text("n_1 = 1\nn_2 = 5\nm_1 = 4\nm_2 = 8\ng_1 = 0.05\ng_2 = 0.05\n"
                       "n_c = 600\nt_max = 20\ndt = 0.02\n")
    fail = "[FAIL] bic_count_matches_lattice: 0 (threshold 2)\n"
    assert main(["run", str(cfgfile), "--check", "--out", str(tmp_path / "a")]) == 3
    printed = capsys.readouterr().out
    assert fail in printed
    assert main(["run", str(cfgfile), "--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == printed


def test_main_config_file_run(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "n_1 = 1\nn_2 = 7\nm_1 = 4\nm_2 = 10\nt_max = 20\ndt = 0.02\nn_c = 200\n")
    out = tmp_path / "out"
    assert main(["run", str(cfgfile), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()


def test_cli_bic_subcommand(tmp_path):
    assert main(["bic", "fig4", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "bic.json").read_text())
    assert len(payload["roots"]) == 1
    assert payload["roots"][0]["multiplicity"] == 1
    assert "rabi_period" not in payload  # one non-degenerate root: no period


def test_oscillation_period_on_synthetic_signal():
    t = np.linspace(0.0, 100.0, 5001)
    signal = 0.5 + 0.5 * np.cos(2 * np.pi * t / 12.5)
    assert oscillation_period(t, signal) == pytest.approx(12.5, rel=1e-3)
    assert np.isnan(oscillation_period(t[:100], signal[:100]))


def test_output_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "envout"))
    assert main(["bic", "fig4"]) == 0
    assert (tmp_path / "envout" / "bic.json").exists()


def test_write_csv_cells_match_fixed_format(tmp_path):
    floats = np.array([-0.0, 5e-324, 1e16, 0.1, np.nan])
    path = tmp_path / "cells.csv"
    cli.write_csv(path, ("x", "n", "flag", "text"),
                  (floats, np.arange(5, dtype=np.int64) - 2,
                   np.array([True, False, True, False, True]), ["", "a", "", "", "b"]))
    lines = path.read_text().splitlines()
    assert lines[0] == "x,n,flag,text"
    assert [line.split(",")[0] for line in lines[1:]] == [f"{x:.15g}" for x in floats]
    assert lines[1:] == ["-0,-2,true,", "4.94065645841247e-324,-1,false,a", "1e+16,0,true,",
                         "0.1,1,false,", "nan,2,true,b"]


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        cli.write_csv(tmp_path / "ragged.csv", ("a", "b"), (np.zeros(3), np.zeros(2)))
    assert not (tmp_path / "ragged.csv").exists()


def test_write_csv_blocks_are_seamless(tmp_path, monkeypatch):
    cols = (np.arange(11) * 0.1, range(11), ["x"] * 11)
    cli.write_csv(tmp_path / "one.csv", ("a", "b", "c"), cols)
    monkeypatch.setattr(cli, "_CSV_BLOCK_BYTES", 4 * cli._CSV_CELL_BYTES)  # 4 rows of 1 float
    cli.write_csv(tmp_path / "blocks.csv", ("a", "b", "c"), cols)
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "blocks.csv").read_bytes()
    assert (tmp_path / "one.csv").read_text().count("\n") == 12


def test_write_csv_scratch_does_not_grow_with_rows(tmp_path):
    # 100 000 x 7 float cells take about 50 MB as formatted strings
    cols = [np.linspace(0.0, 1.0, 100_000) * (k + 1) for k in range(7)]
    peak = traced_peak(cli.write_csv, tmp_path / "big.csv", [f"c{k}" for k in range(7)], cols)
    assert peak < 10 * 2 ** 20


@pytest.mark.parametrize("rows", [1, 35_001])
def test_write_csv_block_scratch_stays_within_2_mb(tmp_path, rows):
    # fig3's dynamics.csv: 35 001 rows of 7 float columns; one block of
    # 4096 rows at 220 bytes per cell took 6.3 MB
    cols = [np.linspace(0.0, 1.0, rows) * (k + 1) + 1e-3 * np.sin(np.arange(rows) * k)
            for k in range(7)]
    cli._kernel_tables()
    peak = traced_peak(cli.write_csv, tmp_path / "dyn.csv", [f"c{k}" for k in range(7)], cols)
    assert peak <= 2 * 2 ** 20


def _float_cell_mismatches(path, values) -> list:
    """(value, written, expected) for every cell that ``write_csv`` writes
    differently from ``"%.15g" % value``."""
    values = np.asarray(values, dtype=float)
    cli.write_csv(path, ("x",), (values,))
    written = path.read_bytes().decode().split("\n")[1:-1]
    expected = ["%.15g" % x for x in values.tolist()]
    assert len(written) == len(expected)
    return [(x, w, e) for x, w, e in zip(values.tolist(), written, expected) if w != e]


def _log_uniform(rng, size):
    signs = rng.choice([-1.0, 1.0], size)
    return signs * np.exp(rng.uniform(math.log(1e-320), math.log(1e308), size))


def test_float_cells_match_python_format_on_a_million_doubles(tmp_path):
    rng = np.random.default_rng(20261018)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    ints = np.floor(rng.uniform(0.0, 1e17, 150_000))
    values = np.concatenate([
        rng.integers(0, 2 ** 64, 300_000, dtype=np.uint64).view(np.float64),  # both signs
        _log_uniform(rng, 300_000),
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers,
        ints, np.floor(rng.uniform(0.0, 1e15, 150_000)) + 0.5,
        np.arange(100_000) * 0.02,
        [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e15, 999999999999999.5,
         1e-4, 1e-5, 1e16, 1e250, 1e-250, 9.999999999999995e14, 0.30000000000000004],
    ])
    assert values.size >= 1_000_000
    assert _float_cell_mismatches(tmp_path / "sweep.csv", values) == []


def test_float_cell_sweep_catches_a_dropped_low_part(tmp_path, monkeypatch):
    # the same log-uniform sweep must fail when 10**k loses its low part
    tables = dict(cli._kernel_tables())
    tables["pow10"] = tables["pow10"].copy()
    tables["pow10"][3] = 0.0
    monkeypatch.setattr(cli, "_kernel_tables", lambda: tables)
    values = _log_uniform(np.random.default_rng(20261018), 200_000)
    assert len(_float_cell_mismatches(tmp_path / "mutant.csv", values)) > 100


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), max_size=50))
def test_float_cells_match_python_format_property(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("prop") / "cells.csv"
    assert _float_cell_mismatches(path, values) == []


MIXED_COLUMNS = (
    np.array([0.1, -2.5e-300, np.inf, 3.0, 1e22, -0.0, 7e-5, np.nan, 1.0, 2.0, 0.02]),
    np.arange(11, dtype=np.int64) - 5,
    np.array([True, False] * 5 + [True]),
    ["", "٣", "a,b", "", "é", "x", "", "", "y", "", "z"],
    [0.5, 1, "s", True, 2.5e-8, None, -3, 1e300, "", 4.0, 0.1],
    range(11),
    np.linspace(-1.0, 1.0, 11, dtype=np.float32),
)


@pytest.mark.parametrize("rows", [0, 1, 4, 5, 11])
def test_mixed_blocks_match_the_reference_writer(tmp_path, monkeypatch, rows):
    from oracles import write_csv_reference
    # 4 rows of the two float-array columns per block
    monkeypatch.setattr(cli, "_CSV_BLOCK_BYTES", 4 * 2 * cli._CSV_CELL_BYTES)
    header = [f"c{k}" for k in range(len(MIXED_COLUMNS))]
    columns = [c[:rows] for c in MIXED_COLUMNS]
    cli.write_csv(tmp_path / "kernel.csv", header, columns)
    write_csv_reference(tmp_path / "reference.csv", header, columns)
    assert (tmp_path / "kernel.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert (tmp_path / "kernel.csv").read_bytes().count(b"\n") == rows + 1


def test_files_without_float_arrays_never_call_the_kernel(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_float_cells", None)  # must not be reached
    run_census(tmp_path)
    run_sweep(tmp_path, "delta", [1, 2], with_dynamics=True, t_max=20.0)
    assert (tmp_path / "census.csv").exists() and (tmp_path / "sweep.csv").exists()


def test_sweep_csv_keeps_a_non_ascii_value(tmp_path):
    assert main(["sweep", "--vary", "delta", "--values", "٣,2", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_bytes().decode("utf-8").splitlines()
    assert lines[1].startswith("delta,٣,2,") and lines[2].startswith("delta,2,")


@pytest.mark.parametrize("preset, n_c", [("fig3", 80), ("fig4", 200)])
def test_every_csv_matches_the_reference_writer(tmp_path, monkeypatch, preset, n_c):
    from oracles import write_csv_reference
    scn = load_scenario(preset, t_max=40.0, n_c=n_c)
    def wavefront():  # fig3 at n_c = 80 warns; fig4 at 200 is reflection-free
        return (pytest.warns(UserWarning, match="wavefront") if preset == "fig3"
                else contextlib.nullcontext())
    with wavefront():
        run_scenario(scn, tmp_path / "kernel")
    run_census(tmp_path / "kernel")
    run_sweep(tmp_path / "kernel", "delta", [1, 2], with_dynamics=True, t_max=20.0)
    monkeypatch.setattr(cli, "write_csv", write_csv_reference)
    with wavefront():
        run_scenario(scn, tmp_path / "reference")
    run_census(tmp_path / "reference")
    run_sweep(tmp_path / "reference", "delta", [1, 2], with_dynamics=True, t_max=20.0)
    names = sorted(p.name for p in (tmp_path / "kernel").glob("*.csv"))
    assert names == sorted(p.name for p in (tmp_path / "reference").glob("*.csv"))
    assert {"spectrum.csv", "dynamics.csv", "mtrace.csv", "field.csv", "census.csv",
            "sweep.csv"} <= set(names)
    for name in names:
        assert (tmp_path / "kernel" / name).read_bytes() == \
            (tmp_path / "reference" / name).read_bytes(), name


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)
    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_run_scenario_diagonalizes_once(tmp_path, monkeypatch):
    from crwqed import bic, dynamics, spectrum
    solves = _counting(monkeypatch, spectrum, "lattice_eigenbasis")
    projections = _counting(monkeypatch, dynamics, "steady_state_prediction")
    root_scans = _counting(monkeypatch, bic, "find_bic_roots")
    # the dense oracle is never the pipeline's diagonalizer
    monkeypatch.setattr(spectrum, "build_hamiltonian", None)
    monkeypatch.setattr(spectrum, "eigendecompose", None)
    # n_c=200 is reflection-free for t_max=40 (up to t = 81.68): no warning
    run_scenario(load_scenario("fig4", t_max=40.0, n_c=200), tmp_path)
    assert len(projections) == 1 and len(root_scans) == 1  # both consumers ran
    assert len(solves) == 1
    assert main(["spectrum", "fig4", "--nc", "200", "--out", str(tmp_path / "s")]) == 0
    assert len(solves) == 2


def test_census_sweep_and_bic_build_no_lattice(tmp_path, monkeypatch):
    from crwqed import spectrum
    solves = _counting(monkeypatch, spectrum, "lattice_eigenbasis")
    eigh_calls = _counting(monkeypatch, spectrum, "eigendecompose")
    builds = _counting(monkeypatch, spectrum, "build_hamiltonian")
    run_census(tmp_path / "census")
    run_sweep(tmp_path / "sweep", "delta", [1, 2, 3], size=8, workers=1)
    assert main(["bic", "fig4", "--out", str(tmp_path / "bic")]) == 0
    assert solves == [] and eigh_calls == [] and builds == []
    roots = json.loads((tmp_path / "bic" / "bic.json").read_text())["roots"]
    assert [(r["multiplicity"], r["width"]) for r in roots] == [(1, 0.0)]


def test_resonance_geometry_matches_lattice_count(tmp_path):
    # one E = 0 BIC next to a -0.0202 xi resonance of half width 0.0194 xi
    cfgfile = tmp_path / "resonance.cfg"
    cfgfile.write_text(
        "n_1 = 1\nn_2 = 4\nm_1 = 3\nm_2 = 6\nt_max = 20\ndt = 0.02\nn_c = 200\n")
    manifest = run_scenario(load_scenario(str(cfgfile)), tmp_path / "out")
    check = {c["name"]: c for c in manifest["checks"]}["bic_count_matches_lattice"]
    assert check["value"] == 1 and check["threshold"] == 1 and check["passed"]
    payload = json.loads((tmp_path / "out" / "bic.json").read_text())
    assert len(payload["roots"]) == 1 and "rabi_period" not in payload


def test_profile_csv_holds_the_bound_state_photon_probabilities(tmp_path):
    from crwqed import spectrum
    from oracles import basis_matrix, photon_profile
    scn = load_scenario("fig3", n_c=200)
    assert main(["spectrum", "fig3", "--nc", "200", "--out", str(tmp_path)]) == 0
    vectors = basis_matrix(spectrum.lattice_eigenbasis(scn.cfg, 200))
    written = sorted(tmp_path.glob("profile_*.csv"))
    assert len(written) == 2  # the two quasi-BICs, each a non-degenerate state
    for path in written:
        index = int(path.stem.split("_")[1])
        probs = ["%.15g" % x for x in photon_profile(vectors[:, index]).tolist()]
        lines = path.read_text().splitlines()[1:]
        assert [line.split(",")[1] for line in lines] == probs


@pytest.mark.parametrize("key, value, size", [("N", "abc", 6), ("delta", "2.5", 6),
                                             ("delta", "9", 8)])
def test_sweep_input_errors_are_config_errors(tmp_path, capsys, key, value, size):
    argv = ["sweep", "--vary", key, "--values", value, "--size", str(size)]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    with pytest.raises(ConfigError):
        run_sweep(tmp_path / "api", key, [value], size=size)


@pytest.mark.parametrize("flag", ["--dt", "--tmax"])
def test_sweep_zero_dt_or_tmax_is_config_error(tmp_path, capsys, monkeypatch, flag):
    # 0 is a given value, not "use the default"
    tasks = _counting(monkeypatch, cli, "_sweep_one")
    argv = ["sweep", "--vary", "delta", "--values", "3", "--dynamics", flag, "0",
            "--out", str(tmp_path / "cli")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert tasks == [] and not (tmp_path / "cli").exists()


def test_unreadable_config_target_is_config_error(tmp_path, capsys):
    # a directory, and a file that is not UTF-8
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"n_1 = 1\n\xff\n")
    for target in (tmp_path, binary):
        assert main(["bic", str(target), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file") and "Traceback" not in err
        with pytest.raises(ConfigError):
            load_scenario(str(target))


def test_bic_on_asymmetric_config_is_config_error(tmp_path, capsys):
    cfgfile = tmp_path / "asym.cfg"
    cfgfile.write_text("n_1 = 1\nn_2 = 7\nm_1 = 4\nm_2 = 10\ng_1 = 0.1\ng_2 = 0.2\n")
    assert main(["bic", str(cfgfile), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "g_1 = g_2" in err and "Traceback" not in err


def test_sweep_parses_every_value_before_any_task(tmp_path, monkeypatch):
    tasks = _counting(monkeypatch, cli, "_sweep_one")
    with pytest.raises(ConfigError, match="'x'"):
        run_sweep(tmp_path, "delta", [1, 2, "x"], size=6)
    with pytest.raises(ConfigError):
        run_sweep(tmp_path, "N", [6, 7.5])
    assert tasks == []
    results = run_sweep(tmp_path, "g", ["0.1", 0.05], size=6, delta=3)
    assert [r["value"] for r in results] == ["0.1", 0.05]
    assert (tmp_path / "sweep.csv").read_text().splitlines()[1].startswith("g,0.1,2,")


def test_photon_field_builds_one_table_per_call(tmp_path, monkeypatch):
    from crwqed import dynamics
    bessel_calls = _counting(monkeypatch, dynamics, "bessel_j_table")
    field_calls = []
    original = dynamics.photon_field
    def field(cfg, trajectory, sites, times):
        before = len(bessel_calls)
        out = original(cfg, trajectory, sites, times)
        n_last = max(trajectory.grid.node(t) for t in times)
        blocks = math.ceil((n_last + 1) / dynamics._FIELD_CHUNK)
        field_calls.append((len(bessel_calls) - before, blocks))
        return out
    monkeypatch.setattr(dynamics, "photon_field", field)
    run_scenario(load_scenario("fig3", t_max=40.0), tmp_path)
    assert len(field_calls) == 1  # the plot window; the norm check sums over momenta
    for made, blocks in field_calls:
        assert made <= blocks


SMALL_CFG = "n_1 = 1\nn_2 = 7\nm_1 = 4\nm_2 = 10\nt_max = 20\ndt = 0.02\nn_c = 200\n"


def test_partial_commands_write_the_same_artifacts(tmp_path):
    cfgfile = tmp_path / "small.cfg"
    cfgfile.write_text(SMALL_CFG)
    full = tmp_path / "full"
    part = tmp_path / "part"
    run_scenario(load_scenario(str(cfgfile)), full)
    for command in ("spectrum", "dynamics", "field"):
        assert main([command, str(cfgfile), "--out", str(part)]) == 0
    written = sorted(p.name for p in part.glob("*.csv"))
    assert written == sorted(p.name for p in full.glob("*.csv"))
    for name in written:
        assert (part / name).read_bytes() == (full / name).read_bytes(), name
    # the manifest of the last command, field
    stages = json.loads((part / "manifest.json").read_text())["stages"]
    assert [s["name"] for s in stages] == ["volterra", "photon_field", "write_artifacts"]


@pytest.fixture(scope="module")
def long_small_run(tmp_path_factory):
    """A full run of the small config to t = 160, where the M(t) trace
    check (which also reads the lattice) is recorded."""
    base = tmp_path_factory.mktemp("long_small")
    cfgfile = base / "long.cfg"
    cfgfile.write_text(SMALL_CFG.replace("t_max = 20", "t_max = 160"))
    with pytest.warns(UserWarning, match="wavefront"):
        manifest = run_scenario(load_scenario(str(cfgfile)), base / "run")
    return cfgfile, manifest


@pytest.mark.parametrize("command, checks", [
    ("spectrum", ["lattice_residual", "lattice_orthonormality_bound"]),
    ("bic", ["bic_root_residual"]),
    ("dynamics", ["population_bound", "trace_determinant_identity"]),
    ("field", ["population_bound", "trace_determinant_identity"]),
])
def test_partial_command_manifest_is_a_subset_of_the_run(tmp_path, long_small_run, command,
                                                         checks):
    cfgfile, full = long_small_run
    run_stages = [s["name"] for s in full["stages"]]
    assert run_stages == list(cli.STAGES)
    assert {"bic_count_matches_lattice", "trace_nondecaying_count"} <= {
        c["name"] for c in full["checks"]}
    assert main([command, str(cfgfile), "--out", str(tmp_path)]) == 0
    part = json.loads((tmp_path / "manifest.json").read_text())
    stages = [s["name"] for s in part["stages"]]
    assert stages == list(cli.COMMAND_STAGES[command])
    assert [name for name in run_stages if name in stages] == stages
    # only the checks of the stages that ran, each as the full run records it
    by_name = {c["name"]: c for c in full["checks"]}
    assert part["checks"] == [by_name[name] for name in checks]
    assert part["warnings"] == [] and part["all_passed"] is True


# no command reaches the dense oracle (spectrum.build_hamiltonian and
# spectrum.eigendecompose); only run and spectrum reach the lattice
_DENSE = ("spectrum.build_hamiltonian", "spectrum.eigendecompose")
_NOT_REACHED = {
    "run": _DENSE,
    "spectrum": _DENSE + ("dynamics.build_kernels", "dynamics.solve_volterra",
                          "bic.find_bic_roots"),
    "bic": _DENSE + ("spectrum.lattice_eigenbasis",),
    "dynamics": _DENSE + ("spectrum.lattice_eigenbasis", "bic.find_bic_roots",
                          "spectrum.exact_propagate"),
    "field": _DENSE + ("spectrum.lattice_eigenbasis", "bic.find_bic_roots",
                       "spectrum.exact_propagate"),
}


@pytest.mark.parametrize("command", sorted(_NOT_REACHED))
def test_partial_commands_call_only_their_layers(tmp_path, monkeypatch, command):
    from crwqed import bic, dynamics, spectrum
    modules = {"bic": bic, "dynamics": dynamics, "spectrum": spectrum}
    for target in _NOT_REACHED[command]:
        module, name = target.split(".")
        monkeypatch.setattr(modules[module], name, None)  # must not be reached
    cfgfile = tmp_path / "small.cfg"
    cfgfile.write_text(SMALL_CFG)
    assert main([command, str(cfgfile), "--out", str(tmp_path / "out")]) == 0


def test_zero_coupling_bic_command_and_run(tmp_path):
    cfgfile = tmp_path / "decoupled.cfg"
    cfgfile.write_text(SMALL_CFG + "g_1 = 0\ng_2 = 0\n")
    assert main(["bic", str(cfgfile), "--out", str(tmp_path / "bic")]) == 0
    assert json.loads((tmp_path / "bic" / "bic.json").read_text())["roots"] == []
    assert main(["run", str(cfgfile), "--out", str(tmp_path / "run")]) == 0
    assert json.loads((tmp_path / "run" / "bic.json").read_text())["roots"] == []
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert [s["name"] for s in manifest["stages"]] == list(cli.STAGES)
    checks = {c["name"]: c for c in manifest["checks"]}
    assert checks["bic_root_residual"]["value"] == 0.0
    assert checks["bic_count_matches_lattice"]["value"] == 0
    assert checks["bic_count_matches_lattice"]["passed"]


@pytest.mark.parametrize("case, n_bic", [
    # the dark branch g_2 A_1 - g_1 A_2 of two atoms on the same two sites
    ("n_1 = 1\nn_2 = 7\nm_1 = 1\nm_2 = 7\n", 1),
    # fig3's legs, both atoms decoupled
    ("n_1 = 1\nn_2 = 7\nm_1 = 4\nm_2 = 10\ng_1 = 0\ng_2 = 0\n", 0),
], ids=["same_sites", "decoupled"])
def test_photon_free_traces_are_not_counted(tmp_path, case, n_bic):
    # their eigenvalue traces are exactly real, but the lattice labels no BIC
    cfgfile = tmp_path / "case.cfg"
    cfgfile.write_text(case + "t_max = 200\ndt = 0.02\nn_c = 1000\n")
    assert main(["run", str(cfgfile), "--check", "--out", str(tmp_path / "out")]) == 0
    checks = {c["name"]: c for c in _strict_json(tmp_path / "out" / "manifest.json")["checks"]}
    for name in ("trace_nondecaying_count", "bic_count_matches_lattice"):
        assert (checks[name]["value"], checks[name]["threshold"]) == (n_bic, n_bic)


def test_rabi_check_skipped_where_the_period_cannot_be_measured(tmp_path):
    # 500 is 1.55 Rabi periods: past the horizon gate's 1.5, short of pop1's
    # second rising midline crossing (about 1.75 periods, as it starts at
    # its maximum)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # n_c below the wavefront criterion
        assert main(["run", "fig3", "--tmax", "500", "--nc", "200", "--check",
                     "--out", str(out)]) == 0
    checks = {c["name"]: c for c in _strict_json(out / "manifest.json")["checks"]}
    assert "rabi_period_rel_err" not in checks
    assert checks["rabi_period_skipped_horizon"]["value"] == pytest.approx(1.5457, abs=1e-4)


def _strict_json(path):
    """The JSON document at ``path``, refusing the NaN and Infinity tokens
    that a strict parser rejects."""
    def refuse(token):
        raise ValueError(f"{path}: {token} is not JSON")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=refuse)


def test_every_manifest_and_bic_json_is_strict_json(tmp_path):
    runs = [["run", preset] for preset in sorted(cli.PRESETS)] + [
        ["run", "table1"], ["run", "fig3", "--tmax", "500", "--nc", "200"], ["census"],
        ["sweep", "--vary", "delta", "--values", "1,2", "--dynamics", "--tmax", "20"]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # n_c below the wavefront criterion
        for i, args in enumerate(runs):
            assert main(args + ["--out", str(tmp_path / str(i))]) == 0
    paths = sorted(tmp_path.glob("*/manifest.json")) + sorted(tmp_path.glob("*/bic.json"))
    assert len(paths) == 2 * len(runs) - 3  # table1, census and sweep write no bic.json
    for path in paths:
        _strict_json(path)


@pytest.mark.parametrize("case, roots", [
    # both roots of f_s sit 4.3e-4 xi below the band top, inside the guard
    ("n_1 = 0\nn_2 = 1\nm_1 = -3\nm_2 = -2\ng_1 = 0.05\ng_2 = 0.05\n"
     "omega_1 = 1.9970666957921912\nomega_2 = 1.9970666957921912\n", []),
    # two atoms on the same two sites: the antisymmetric branch is photon-free
    ("n_1 = 1\nn_2 = 7\nm_1 = 1\nm_2 = 7\n", [(0.0, "+", 1)]),
], ids=["near_edge", "same_sites"])
def test_closed_form_count_follows_the_lattice_rules(tmp_path, case, roots):
    cfgfile = tmp_path / "case.cfg"
    cfgfile.write_text(case + "t_max = 20\ndt = 0.02\nn_c = 600\n")
    assert main(["run", str(cfgfile), "--check", "--out", str(tmp_path / "out")]) == 0
    found = json.loads((tmp_path / "out" / "bic.json").read_text())["roots"]
    assert [(r["energy"], r["branch"], r["multiplicity"]) for r in found] == roots
    checks = json.loads((tmp_path / "out" / "manifest.json").read_text())["checks"]
    count = next(c for c in checks if c["name"] == "bic_count_matches_lattice")
    assert (count["value"], count["threshold"], count["passed"]) == (len(roots), len(roots), True)


def test_run_scenario_rejects_an_unknown_stage_set(tmp_path):
    with pytest.raises(ValueError, match="stage set"):
        run_scenario(load_scenario("fig3", t_max=20.0), tmp_path, ("exact_propagate",))


def test_internal_errors_are_not_solver_errors(tmp_path, monkeypatch):
    def broken(path, payload):
        raise ValueError("internal fault")
    monkeypatch.setattr(cli, "write_json", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["bic", "fig4", "--out", str(tmp_path)])


def test_eigensolver_failure_is_a_solver_error(tmp_path, capsys, monkeypatch):
    # the SVD of the leg systems fails
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(np.linalg, "svd", fail)
    assert main(["spectrum", "fig3", "--nc", "200", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver error: eigensolver failed on 202x202 lattice "
                          "(7x7 leg system)")
    assert "did not converge" in err


@pytest.mark.parametrize("line", ["g_1 = nan\ng_2 = nan\n", "omega_1 = inf\n",
                                  "omega_c = -inf\n", "t_max = nan\ndt = 0.02\n",
                                  "t_max = 20\ndt = inf\n"])
def test_non_finite_config_is_a_config_error(tmp_path, capsys, line):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("n_1 = 1\nn_2 = 7\nm_1 = 4\nm_2 = 10\n" + line)
    assert main(["run", str(cfgfile), "--out", str(tmp_path / "out")]) == 1
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_non_finite_cli_override_is_a_config_error(tmp_path, capsys):
    assert main(["dynamics", "fig3", "--tmax", "nan", "--out", str(tmp_path)]) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config, message", [
    (["dynamics", "fig3", "--dt", "0.5"], None, "too coarse"),
    (["spectrum", "fig3", "--nc", "10"], None, "lattice too small"),
    (["dynamics"], "t_max = 20\ndt = 0.5\n", "too coarse"),
    (["spectrum"], "n_c = 10\n", "lattice too small"),
], ids=["dt_override", "nc_override", "dt_in_file", "nc_in_file"])
def test_coarse_grid_and_small_lattice_are_config_errors(tmp_path, capsys, argv, config,
                                                          message):
    if config is not None:
        cfgfile = tmp_path / "limits.cfg"
        cfgfile.write_text("n_1 = 1\nn_2 = 7\nm_1 = 4\nm_2 = 10\n" + config)
        argv = argv + [str(cfgfile)]
        with pytest.raises(ConfigError, match=message):
            run_scenario(load_scenario(str(cfgfile)), tmp_path / "out",
                         cli.COMMAND_STAGES[argv[0]])
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


_G_BOUND = "error: |g_1| must be at most 1000 xi, got {} at xi = 1.0"
_XI_BOUND = "error: hopping strength xi must lie in [1e-100, 1e+100], got {}"


@pytest.mark.parametrize("argv, config, line", [
    (["census", "--g", "1e300"], None, _G_BOUND.format("1e+300")),
    (["run"], "g_1 = 1e200\ng_2 = 1e200\n", _G_BOUND.format("1e+200")),
    (["bic"], "xi = 1e300\n", _XI_BOUND.format("1e+300")),
    (["spectrum"], "xi = 1e300\n", _XI_BOUND.format("1e+300")),
    (["run"], "xi = 1e-150\ng_1 = 1e-151\ng_2 = 1e-151\nt_max = 2e151\ndt = 2e148\n",
     _XI_BOUND.format("1e-150")),
    (["run"], "omega_c = 1e9\nomega_1 = 1e9\nomega_2 = 1e9\n",
     "error: |omega_c| must be at most 1e+07 xi, got 1000000000.0 at xi = 1.0"),
    (["bic", "--check"], "g_1 = 1e4\ng_2 = 1e4\n", _G_BOUND.format("10000.0")),
], ids=["census_g_1e300", "run_g_1e200", "bic_xi_1e300", "spectrum_xi_1e300",
        "run_xi_1e-150", "run_omega_1e9", "bic_check_g_1e4"])
def test_scales_beyond_the_bounds_exit_1_with_one_error_line(tmp_path, capsys, argv, config,
                                                             line):
    # each of these ended in a traceback (overflow, a LinAlgError), a
    # solver error (exit 2) or a failed root residual (exit 3)
    if config is not None:
        cfgfile = tmp_path / "scale.cfg"
        cfgfile.write_text("n_1 = 1\nn_2 = 7\nm_1 = 4\nm_2 = 10\nn_c = 200\n" + config)
        argv = argv + [str(cfgfile)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [line]
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["bic", "fig3", "--nc", "10"],
    ["bic", "fig3", "--dt", "0.5"],
    ["spectrum", "fig3", "--dt", "0.5"],
    ["dynamics", "fig3", "--nc", "10", "--tmax", "20"],
], ids=["bic_nc", "bic_dt", "spectrum_dt", "dynamics_nc"])
def test_commands_check_only_the_inputs_they_read(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 0


def test_hand_built_scenarios_get_the_stage_checks(tmp_path):
    from dataclasses import replace
    small = replace(load_scenario("fig3", t_max=20.0), n_c=10)
    with pytest.raises(ConfigError, match="lattice too small"):
        run_scenario(small, tmp_path / "out", cli.COMMAND_STAGES["spectrum"])
    assert not (tmp_path / "out").exists()
    run_scenario(small, tmp_path / "out", cli.COMMAND_STAGES["dynamics"])


@pytest.mark.parametrize("command", ["bic", "spectrum"])
def test_commands_without_dynamics_build_no_field_window_at_a_large_xi(tmp_path, command):
    # At xi = 1e4 and the default t_max = 200 the norm-check window would
    # hold 8e6 sites (64 MB, 128 MB with its distances); at xi = 1e6, GBs.
    cfgfile = tmp_path / "stiff.cfg"
    cfgfile.write_text("n_1 = 1\nn_2 = 7\nm_1 = 4\nm_2 = 10\nxi = 1e4\n")
    argv = [command, str(cfgfile), "--out", str(tmp_path / "out")]
    codes = []
    assert traced_peak(lambda: codes.append(main(argv))) < 32e6 and codes == [0]
    assert main(["run", str(cfgfile), "--out", str(tmp_path / "run")]) == 1


@pytest.mark.parametrize("command", ["dynamics", "field"])
def test_legs_beyond_the_largest_lattice_exit_1_before_any_table(tmp_path, capsys,
                                                                monkeypatch, command):
    from crwqed import dynamics
    monkeypatch.setattr(dynamics, "bessel_j_table", None)  # must not be reached
    cfgfile = tmp_path / "far.cfg"
    cfgfile.write_text("n_1 = 0\nn_2 = 1\nm_1 = 100000000\nm_2 = 100000001\n"
                       "t_max = 1\ndt = 0.02\n")
    assert main([command, str(cfgfile), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "leg span 100000001 + margin 40 exceeds 8000" in err
    assert not (tmp_path / "out").exists()


def test_closed_form_range_limit(tmp_path, capsys, monkeypatch):
    from crwqed import bic
    monkeypatch.setattr(bic, "MAX_LEG_DISTANCE", 8)  # fig3's largest leg distance is 9
    monkeypatch.setattr(bic, "_branch_roots", None)  # must not be reached
    assert main(["bic", "fig3", "--out", str(tmp_path / "bic")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "leg distance 9 exceeds 8" in err
    assert not (tmp_path / "bic").exists()
    with pytest.warns(UserWarning, match="bic_roots skipped: leg distance 9 exceeds 8"):
        manifest = run_scenario(load_scenario("fig3", t_max=20.0, n_c=200), tmp_path / "run")
    assert "bic_roots" not in [s["name"] for s in manifest["stages"]]
    assert not (tmp_path / "run" / "bic.json").exists()
    assert any(w["message"].startswith("bic_roots skipped") for w in manifest["warnings"])


def test_bic_command_passes_the_residual_check_where_bisection_failed(tmp_path, capsys):
    cfgfile = tmp_path / "residual.cfg"
    cfgfile.write_text("n_1 = -20\nn_2 = 6\nm_1 = 28\nm_2 = 54\n"
                       "g_1 = 0.4126241543625412\ng_2 = 0.4126241543625412\n"
                       "omega_c = 0.6171273270628221\nomega_1 = -1.0660945726617705\n"
                       "omega_2 = -1.0660945726617705\nxi = 0.5774124868625323\n")
    assert main(["bic", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
    assert "[PASS] bic_root_residual" in capsys.readouterr().out


def test_population_abort_is_a_solver_error(tmp_path, capsys):
    cfgfile = tmp_path / "unstable.cfg"
    cfgfile.write_text("n_1 = 1\nn_2 = 3\nm_1 = 2\nm_2 = 4\ng_1 = 20\ng_2 = 20\n"
                       "t_max = 5\ndt = 0.1\n")
    assert main(["dynamics", str(cfgfile), "--out", str(tmp_path / "out")]) == 2
    assert "population exceeded 1.001 at t=0.1 " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "spectrum"])
def test_lattice_over_the_cap_exits_1_before_any_work(tmp_path, capsys, monkeypatch, command):
    from crwqed import spectrum
    monkeypatch.setattr(spectrum, "lattice_eigenbasis", None)  # must not be reached
    monkeypatch.setattr(spectrum, "build_hamiltonian", None)
    assert main([command, "fig3", "--nc", "8001", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "lattice too large: n_c=8001 > 8000" in err and "8003x8003" in err
    cfgfile = tmp_path / "large.cfg"
    cfgfile.write_text("n_1 = 1\nn_2 = 7\nm_1 = 4\nm_2 = 10\nn_c = 8001\n")
    assert main([command, str(cfgfile), "--out", str(tmp_path / "out")]) == 1
    assert "lattice too large" in capsys.readouterr().err


@pytest.mark.parametrize("workers", [0, -2])
def test_sweep_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    with pytest.raises(ConfigError, match="workers must be at least 1"):
        run_sweep(tmp_path / "api", "delta", [1], workers=workers)
    argv = ["sweep", "--vary", "delta", "--values", "1", "--workers", str(workers),
            "--out", str(tmp_path / "cli")]
    assert main(argv) == 1
    assert "workers must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "cli").exists()


def test_sweep_workers_clamped_to_cpu_count(tmp_path, monkeypatch):
    pools = []

    class RecordingPool:
        """Stands in for the process pool: records its size, maps in-process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    run_sweep(tmp_path / "a", "delta", [1, 2], size=6, workers=64)
    run_sweep(tmp_path / "b", "delta", [1, 2], size=6, workers=2)
    assert pools == [3, 2]
    # an unknown core count runs serially
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    run_sweep(tmp_path / "c", "delta", [1, 2], size=6, workers=64)
    assert pools == [3, 2]


def test_manifest_records_and_reemits_warnings(tmp_path):
    # n_c=80 is below the wavefront criterion for t_max=40
    with pytest.warns(UserWarning, match="wavefront") as shown:
        manifest = run_scenario(load_scenario("fig3", t_max=40.0, n_c=80), tmp_path / "w")
    assert len(shown) == 1
    assert manifest["warnings"] == [{"category": "UserWarning", "message": str(shown[0].message)}]
    saved = json.loads((tmp_path / "w" / "manifest.json").read_text())
    assert saved["warnings"] == manifest["warnings"]
    quiet = run_scenario(load_scenario("fig3", t_max=40.0), tmp_path / "q")
    assert quiet["warnings"] == []


def test_bessel_arguments_beyond_miller_range_exit_1_before_any_work(tmp_path, capsys,
                                                                    monkeypatch):
    from crwqed import dynamics, spectrum
    monkeypatch.setattr(spectrum, "lattice_eigenbasis", None)  # must not be reached
    monkeypatch.setattr(spectrum, "build_hamiltonian", None)
    monkeypatch.setattr(spectrum, "eigendecompose", None)
    monkeypatch.setattr(dynamics, "bessel_j_table", None)
    cfgfile = tmp_path / "long.cfg"  # leg span 1100: kernel orders up to 1100
    cfgfile.write_text("n_1 = 1\nn_2 = 7\nm_1 = 4\nm_2 = 1101\n"
                       "t_max = 1100\ndt = 0.02\nn_c = 1200\n")
    # unequal atoms: the closed form does not apply, and run says so
    skipped = lambda: pytest.warns(UserWarning, match="bic_roots skipped: .* equal atom sizes")
    with skipped(), pytest.raises(ConfigError, match="Miller"):
        run_scenario(load_scenario(str(cfgfile)), tmp_path / "out")
    for command in ("run", "dynamics", "field"):
        with skipped() if command == "run" else contextlib.nullcontext():
            assert main([command, str(cfgfile), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "above 2000" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_huge_horizon_exits_1_before_any_work(tmp_path, capsys, monkeypatch):
    from crwqed import bic, dynamics, spectrum
    for module, name in ((spectrum, "lattice_eigenbasis"), (dynamics, "build_kernels"),
                         (dynamics, "solve_volterra"), (bic, "find_bic_roots")):
        monkeypatch.setattr(module, name, None)  # must not be reached
    sweep = ["sweep", "--vary", "delta", "--values", "1,2", "--dynamics"]
    out = str(tmp_path / "out")
    # t_max / dt overflows: no step count, whatever the command reads
    for argv in (["bic", "fig3"], ["spectrum", "fig3"], ["dynamics", "fig3"], ["run", "fig3"],
                 sweep):
        assert main(argv + ["--tmax", "1e308", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: t_max=1e+308 over dt=0.02 is no finite step count")
        assert "Traceback" not in err
    # 5e7 nodes: refused by every command whose stages read the grid
    for argv in (["dynamics", "fig3"], ["field", "fig3"], ["run", "fig3"], sweep):
        assert main(argv + ["--tmax", "1e6", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: time grid of 50000001 nodes") and "Traceback" not in err
    # 7e302 nodes: the count is printed in scientific notation, not in full
    for argv in (["dynamics", "fig3"], ["run", "fig3"]):
        assert main(argv + ["--dt", "1e-300", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: time grid of 7e+302 nodes") and "Traceback" not in err
        assert f"exceeds {MAX_GRID_NODES}" in err and len(err) < 200
    assert not (tmp_path / "out").exists()
    # MAX_GRID_NODES nodes are taken, one more is not
    largest = load_scenario("fig3", t_max=(MAX_GRID_NODES - 1) * 0.02)
    assert cli._runnable_stages(largest, cli.STAGES) == cli.STAGES
    with pytest.raises(ConfigError, match=f"exceeds {MAX_GRID_NODES}"):
        cli._runnable_stages(load_scenario("fig3", t_max=MAX_GRID_NODES * 0.02), cli.STAGES)


@pytest.mark.parametrize("argv", [
    ["--vary", "N", "--values", "1500", "--delta", "3", "--dynamics", "--tmax", "1500"],
    ["--vary", "dt", "--values", "0.02,0.5", "--dynamics"],
    ["--vary", "N", "--values", "6,3000"],
    ["--vary", "delta", "--values", "1,2", "--dynamics", "--tmax", "1e6"],
])
def test_sweep_checks_every_task_before_any_runs(tmp_path, capsys, monkeypatch, argv):
    # the Bessel range of the kernels, the kernel grid, the closed form's
    # leg distance and the node bound, as the scenario commands check them
    tasks = []
    monkeypatch.setattr(cli, "_sweep_one", tasks.append)  # must not be reached
    assert main(["sweep", *argv, "--out", str(tmp_path / "cli")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert tasks == [] and not (tmp_path / "cli").exists()


def test_second_atom_left_of_the_first(tmp_path, capsys):
    # found by the config fuzzer: the lattice size, centering and windows
    # read the outermost legs, whichever atom they belong to
    text = "n_1 = 11\nn_2 = 10\nm_1 = -30\nm_2 = -31\nt_max = 20\ndt = 0.02\n"
    cfgfile = tmp_path / "left.cfg"
    cfgfile.write_text(text + "n_c = 0\n")
    assert main(["spectrum", str(cfgfile), "--out", str(tmp_path / "small")]) == 1
    assert "lattice too small: n_c=0 < leg span 42" in capsys.readouterr().err
    cfgfile.write_text(text + "n_c = 200\n")
    manifest = run_scenario(load_scenario(str(cfgfile)), tmp_path / "run")
    assert manifest["warnings"] == []
    passed = {c["name"] for c in manifest["checks"] if c["passed"]}
    assert {"exact_norm_deficit", "volterra_vs_exact_pop_diff_t<=20",
            "field_norm_deficit_t=20"} <= passed


# ---- fuzzed config text through main ----
_LEGS = ("n_1", "n_2", "m_1", "m_2")
_FUZZ_FLOATS = {
    "omega_c": st.floats(-2.0, 2.0), "omega_1": st.floats(-2.0, 2.0),
    "omega_2": st.floats(-2.0, 2.0), "xi": st.floats(0.5, 2.0),
    "g_1": st.floats(0.0, 0.5), "g_2": st.floats(0.0, 0.5),
}
_FUZZ_BAD = st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "0", "-0",
                             "-1", "-0.5", "-3", "abc", "1e", "0x10", "1.5.2", "", "- 1"])


@st.composite
def _config_text(draw):
    """Config text with valid values (|omega| <= 2, xi in [0.5, 2], g in
    [0, 0.5], legs in [-30, 30], t_max <= 30, dt >= 0.01, n_c <= 300 or
    > 8000), in about half the examples with some replaced by bad values
    or joined by unknown or duplicate keys."""
    values = {key: draw(st.integers(-30, 30)) for key in _LEGS}
    for key, strategy in _FUZZ_FLOATS.items():
        if draw(st.integers(0, 3)):
            values[key] = repr(draw(strategy))
    if draw(st.booleans()):  # symmetric resonant: the closed form applies
        values["m_2"] = values["m_1"] + values["n_2"] - values["n_1"]
        for one, two in (("g_1", "g_2"), ("omega_1", "omega_2")):
            values.pop(two, None)
            if one in values:
                values[two] = values[one]
    if draw(st.integers(0, 3)):
        values["t_max"] = repr(draw(st.floats(0.01, 30.0)))
        values["dt"] = repr(draw(st.one_of(st.floats(0.01, 0.05), st.floats(0.01, 0.25))))
    if draw(st.integers(0, 7)):
        values["n_c"] = draw(st.one_of(st.integers(100, 300), st.integers(-5, 300),
                                       st.integers(8001, 10 ** 7)))
    lines = [f"{key} = {value}" for key, value in values.items()]
    for _ in range(draw(st.integers(1, 2)) if draw(st.booleans()) else 0):
        key = draw(st.sampled_from(sorted(values)))
        kind = draw(st.sampled_from(["bad", "unknown", "duplicate", "missing"]))
        if kind != "unknown":
            lines = [line for line in lines if not line.startswith(f"{key} ")]
        if kind == "bad":
            lines.append(f"{key} = {draw(_FUZZ_BAD)}")
        elif kind == "unknown":
            lines.append(f"{draw(st.sampled_from(['bogus', 'g', 'N_1', 'omega']))} = 1")
        elif kind == "duplicate":
            lines += [f"{key} = {values[key]}"] * 2
    return "\n".join(draw(st.permutations(lines))) + "\n"


@pytest.mark.parametrize("command", ["bic", "dynamics", "spectrum"])
@settings(max_examples=30, deadline=None)
@given(text=_config_text())
# decoupled atoms: (band edge - omega_c) / (2 xi) rounds below 1
@example(
    text='n_1 = 0\nn_2 = 1\nm_1 = 0\nm_2 = 1\nomega_c = 0.7007099289601046\n'
         'xi = 1.9679684691247359\ng_1 = 0.0\ng_2 = 0.0\n',
).via('discovered failure')
def test_fuzzed_config_gives_an_honest_exit(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        cfgfile = os.path.join(tmp, "fuzz.cfg")
        with open(cfgfile, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # e.g. the wavefront rule; not an exit
            code = main([command, cfgfile, "--out", out])
        err = err.getvalue()
        assert code in (0, 1, 2)
        if code == 1:
            assert err.startswith("error: ")
            assert not os.path.exists(out)  # checked before the output directory is made
        elif code == 2:
            assert err.startswith("solver error: ")
        else:
            for name in os.listdir(out):
                if name.endswith(".csv"):
                    with open(os.path.join(out, name), encoding="utf-8") as fh:
                        cells = fh.read().replace("\n", ",").split(",")
                    assert not {"nan", "inf", "-inf"} & set(cells), name


# couplings over decades, and the values no coupling may take
_DECADE_COUPLINGS = st.one_of(
    st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
              st.sampled_from([1.0, -1.0]), st.floats(-30.0, 4.0)),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 0.0, -0.0]))


def _assert_an_honest_exit(argv, artifact):
    """``main(argv)`` exits 0 with a finite ``artifact``, or 1 with one
    ``error:`` line and no output directory."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--out", out])
        err = err.getvalue()
        assert code in (0, 1), err
        if code == 1:
            assert len(err.splitlines()) == 1 and err.startswith("error: "), err
            assert not os.path.exists(out)
        else:
            with open(os.path.join(out, artifact), encoding="utf-8") as fh:
                cells = fh.read().replace("\n", ",").replace(";", ",").split(",")
            assert not {"nan", "inf", "-inf"} & set(cells), artifact


@settings(max_examples=30, deadline=None)
@given(g=_DECADE_COUPLINGS)
@example(g=1e300)  # exited 1 but left an empty output directory
@example(g=math.nan)
def test_fuzzed_census_coupling_gives_an_honest_exit(g):
    _assert_an_honest_exit(["census", f"--g={g!r}"], "census.csv")


@settings(max_examples=30, deadline=None)
@given(values=st.lists(_DECADE_COUPLINGS, min_size=1, max_size=3))
def test_fuzzed_sweep_couplings_give_an_honest_exit(values):
    _assert_an_honest_exit(["sweep", "--vary", "g", f"--values={','.join(map(repr, values))}"],
                           "sweep.csv")
