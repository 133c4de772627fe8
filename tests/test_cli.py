import json
import math
import os

import numpy as np
import pytest

from crwqed import cli
from crwqed.model import ConfigError
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
        "lattice", "bic_roots", "volterra", "exact_propagate", "photon_field",
        "field_norm_check", "scenario_checks", "write_artifacts"]
    assert all(s["wall_s"] >= 0.0 for s in stages)
    peaks = [s["peak_rss_mb"] for s in stages]
    assert peaks[0] > 0.0 and peaks == sorted(peaks)
    sizes = {s["name"]: s["sizes"] for s in stages}
    assert sizes["lattice"] == {"n_c": scn.n_c, "dim": scn.n_c + 2}
    assert sizes["volterra"] == {"n_steps": scn.grid.n_steps}
    # sites reach 80 + 30 beyond the legs at t = 40, plus the leg span 9
    assert sizes["field_norm_check"]["order_max"] == 110 + 9
    assert sizes["field_norm_check"]["arg_max"] == pytest.approx(80.0)


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
    monkeypatch.setattr(cli, "_CSV_ROWS", 4)
    cli.write_csv(tmp_path / "blocks.csv", ("a", "b", "c"), cols)
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "blocks.csv").read_bytes()
    assert (tmp_path / "one.csv").read_text().count("\n") == 12


def test_write_csv_scratch_does_not_grow_with_rows(tmp_path):
    # 100 000 x 7 float cells take about 50 MB as formatted strings
    cols = [np.linspace(0.0, 1.0, 100_000) * (k + 1) for k in range(7)]
    peak = traced_peak(cli.write_csv, tmp_path / "big.csv", [f"c{k}" for k in range(7)], cols)
    assert peak < 10 * 2 ** 20


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
    eigh_calls = _counting(monkeypatch, spectrum, "eigendecompose")
    projections = _counting(monkeypatch, dynamics, "steady_state_prediction")
    root_scans = _counting(monkeypatch, bic, "find_bic_roots")
    builds = _counting(monkeypatch, spectrum, "build_hamiltonian")
    # n_c=200 is below the wavefront criterion (210) for t_max=40
    with pytest.warns(UserWarning, match="wavefront"):
        run_scenario(load_scenario("fig4", t_max=40.0, n_c=200), tmp_path)
    assert len(projections) == 1 and len(root_scans) == 1  # both consumers ran
    assert len(eigh_calls) == 1
    assert len(builds) == 1


def test_census_sweep_and_bic_build_no_lattice(tmp_path, monkeypatch):
    from crwqed import spectrum
    eigh_calls = _counting(monkeypatch, spectrum, "eigendecompose")
    builds = _counting(monkeypatch, spectrum, "build_hamiltonian")
    run_census(tmp_path / "census")
    run_sweep(tmp_path / "sweep", "delta", [1, 2, 3], size=8, workers=1)
    assert main(["bic", "fig4", "--out", str(tmp_path / "bic")]) == 0
    assert eigh_calls == [] and builds == []
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
    from oracles import photon_profile
    scn = load_scenario("fig3", n_c=200)
    assert main(["spectrum", "fig3", "--nc", "200", "--out", str(tmp_path)]) == 0
    vectors = spectrum.eigendecompose(spectrum.build_hamiltonian(scn.cfg, 200)).vectors
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
    def field(cfg, trajectory, sites, times, chunk=2048):
        before = len(bessel_calls)
        out = original(cfg, trajectory, sites, times, chunk)
        n_last = max(trajectory.grid.node(t) for t in times)
        field_calls.append((len(bessel_calls) - before, math.ceil((n_last + 1) / chunk)))
        return out
    monkeypatch.setattr(dynamics, "photon_field", field)
    run_scenario(load_scenario("fig3", t_max=40.0), tmp_path)
    assert len(field_calls) == 2  # plot window and wide norm-check window
    for made, blocks in field_calls:
        assert made <= blocks


def test_partial_commands_write_the_same_artifacts(tmp_path):
    cfgfile = tmp_path / "small.cfg"
    cfgfile.write_text(
        "n_1 = 1\nn_2 = 7\nm_1 = 4\nm_2 = 10\nt_max = 20\ndt = 0.02\nn_c = 200\n")
    full = tmp_path / "full"
    part = tmp_path / "part"
    run_scenario(load_scenario(str(cfgfile)), full)
    for command in ("spectrum", "dynamics", "field"):
        assert main([command, str(cfgfile), "--out", str(part)]) == 0
    written = sorted(p.name for p in part.iterdir())
    assert written == sorted(p.name for p in full.glob("*.csv"))
    for name in written:
        if name != "dynamics.csv":
            assert (part / name).read_bytes() == (full / name).read_bytes(), name
    # dynamics.csv: only the run's single norm-deficit cell is extra
    strip = lambda path: [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
    assert strip(part / "dynamics.csv") == strip(full / "dynamics.csv")


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
            load_scenario(str(cfgfile))
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


def test_population_abort_is_a_solver_error(tmp_path, capsys):
    cfgfile = tmp_path / "unstable.cfg"
    cfgfile.write_text("n_1 = 1\nn_2 = 3\nm_1 = 2\nm_2 = 4\ng_1 = 20\ng_2 = 20\n"
                       "t_max = 5\ndt = 0.1\n")
    assert main(["dynamics", str(cfgfile), "--out", str(tmp_path / "out")]) == 2
    assert "population exceeded 1.001 at t=0.1 " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "spectrum"])
def test_lattice_over_the_cap_exits_1_before_any_work(tmp_path, capsys, monkeypatch, command):
    from crwqed import spectrum
    monkeypatch.setattr(spectrum, "build_hamiltonian", None)  # must not be reached
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
