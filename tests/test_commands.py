"""Every command runs in one pipeline frame: it writes ``manifest.json``
with its stages, checks and warnings, prints its checks, and exits 3 on a
failed check under ``--check``."""

import functools
import json
import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from crwqed import bic, cli, dynamics
from crwqed.cli import main, run_sweep

SWEEP = ["sweep", "--vary", "delta", "--values", "1,2", "--workers", "1"]
# each command, and the check a forced failure makes it fail
COMMANDS = {
    "run": (["run", "fig3", "--tmax", "20", "--nc", "200"], "bic_root_residual"),
    "bic": (["bic", "fig3"], "bic_root_residual"),
    "dynamics": (["dynamics", "fig3", "--tmax", "20"], "trace_determinant_identity"),
    "field": (["field", "fig3", "--tmax", "20"], "trace_determinant_identity"),
    "census": (["census"], "bic_root_residual"),
    "table1": (["run", "table1"], "bic_root_residual"),
    "sweep": (SWEEP, "bic_root_residual"),
}


def _forced_failures(monkeypatch):
    """Every closed-form root has residual 1 and every M(t) eigenvalue trace
    misses the trace-determinant identity by 1."""
    root = bic.BicRoot(energy=0.0, branch="+", multiplicity=1, residual=1.0, width=0.0)
    monkeypatch.setattr(bic, "find_bic_roots", lambda cfg: [root])
    monkeypatch.setattr(dynamics.EigenTrace, "trace_determinant_residual", lambda self: 1.0)


@pytest.mark.parametrize("command", COMMANDS)
def test_a_failed_check_exits_3_only_with_check(tmp_path, capsys, monkeypatch, command):
    argv, failing = COMMANDS[command]
    _forced_failures(monkeypatch)
    assert main([*argv, "--check", "--out", str(tmp_path / "a")]) == 3
    printed = capsys.readouterr().out
    assert f"[FAIL] {failing}: 1 (threshold " in printed
    assert main([*argv, "--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == printed
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["all_passed"] is False


@pytest.mark.parametrize("command, stages", [
    ("census", ["bic_roots", "write_artifacts"]),
    ("table1", ["bic_roots", "write_artifacts"]),
    ("sweep", ["sweep", "write_artifacts"]),
])
def test_census_and_sweep_write_the_pipeline_manifest(tmp_path, capsys, command, stages):
    argv, _ = COMMANDS[command]
    assert main([*argv, "--check", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [s["name"] for s in manifest["stages"]] == stages
    assert all(s["wall_s"] >= 0.0 and s["peak_rss_mb"] > 0.0 for s in manifest["stages"])
    assert manifest["warnings"] == [] and manifest["all_passed"] is True
    [check] = manifest["checks"]
    assert check["name"] == "bic_root_residual" and check["passed"] is True
    assert check["threshold"] == 1e-8
    sizes = manifest["stages"][0]["sizes"]
    assert sizes == ({"tasks": 2, "workers": 1} if command == "sweep" else {"geometries": 12})
    assert f"[PASS] bic_root_residual: {check['value']:.6g}" in capsys.readouterr().out


def test_sweep_workers_keep_their_warnings(tmp_path, monkeypatch):
    # a pool forked inside the manifest's warning capture would lose every
    # warning its workers raise: they must come back with the rows
    find_roots = bic.find_bic_roots

    def warning_roots(cfg):
        warnings.warn(f"probe from m_1={cfg.m_1}", RuntimeWarning)
        return find_roots(cfg)

    monkeypatch.setattr(bic, "find_bic_roots", warning_roots)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
    with pytest.warns(RuntimeWarning, match="probe") as shown:
        rows = run_sweep(tmp_path, "delta", np.arange(1, 3), size=6, workers=2)
    assert [r["n_bic"] for r in rows] == [2, 2]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["sweep"]["values"] == [1, 2]  # numpy values are written as numbers
    assert manifest["stages"][0]["sizes"] == {"tasks": 2, "workers": 2}
    assert sorted(w["message"] for w in manifest["warnings"]) == ["probe from m_1=2",
                                                                  "probe from m_1=3"]
    assert sorted(str(w.message) for w in shown) == ["probe from m_1=2", "probe from m_1=3"]
