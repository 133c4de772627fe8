"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` or read
the captured output of failing tests).  The heavy simulations are shared
through session fixtures; the whole suite stays well inside its runtime
budgets on a desktop machine.
"""

import math
import time

import numpy as np
import pytest

from oracles import bessel_j_row, lamb_shift_sum_oracle, series_oracle

from crwqed.model import SystemConfig, TimeGrid, initial_state
from crwqed import bic, dynamics, spectrum
from crwqed.cli import oscillation_period

FIG3 = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10)
FIG4 = SystemConfig(n_1=1, n_2=9, m_1=3, m_2=11)
TABLE_ROWS = [(6, d) for d in (1, 2, 3, 4, 5)] + [(8, d) for d in (1, 2, 3, 4, 5, 6, 7)]


def _cfg(size, delta):
    return SystemConfig(n_1=1, n_2=1 + size, m_1=1 + delta, m_2=1 + delta + size)


def _report(num, name, ok, detail):
    print(f"[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def census_result():
    start = time.monotonic()
    rows = {}
    for size, deltas in ((6, (1, 2, 3, 4, 5)), (8, (1, 2, 3, 4, 5, 6, 7))):
        for row in bic.bic_census(size, deltas):
            rows[(row.size, row.delta)] = row
    return rows, time.monotonic() - start


@pytest.fixture(scope="session")
def lattice_counts():
    start = time.monotonic()
    counts = {}
    for size, delta in TABLE_ROWS:
        cfg = _cfg(size, delta)
        ham = spectrum.build_hamiltonian(cfg, 600)
        profiles = spectrum.classify_bound_states(spectrum.eigendecompose(ham), cfg)
        counts[(size, delta)] = len(spectrum.bound_states(profiles))
    return counts, time.monotonic() - start


@pytest.fixture(scope="session")
def fig3_basis():
    """Eigenbasis of a reflection-free lattice for the full t <= 700 horizon."""
    n_c = spectrum.wavefront_n_c(FIG3, 700.0)
    ham = spectrum.build_hamiltonian(FIG3, n_c)
    return n_c, spectrum.eigendecompose(ham)


@pytest.fixture(scope="session")
def fig3_run(fig3_basis):
    n_c, basis = fig3_basis
    start = time.monotonic()
    roots = bic.find_bic_roots(FIG3)
    grid = TimeGrid(t_max=700.0, dt=0.02)
    psi0 = initial_state("atom1", FIG3)
    trajectory = dynamics.solve_volterra(FIG3, psi0, grid)
    exact, _ = spectrum.exact_propagate(FIG3, psi0, grid, basis)
    elapsed = time.monotonic() - start
    return {"roots": roots, "grid": grid, "trajectory": trajectory,
            "exact": exact, "elapsed": elapsed, "n_c": n_c}


@pytest.fixture(scope="session")
def fig4_run():
    grid = TimeGrid(t_max=600.0, dt=0.02)
    psi0 = initial_state("atom1", FIG4)
    trajectory = dynamics.solve_volterra(FIG4, psi0, grid)
    ham = spectrum.build_hamiltonian(FIG4, 600)
    profiles = spectrum.classify_bound_states(spectrum.eigendecompose(ham), FIG4)
    prediction = dynamics.steady_state_prediction(psi0, profiles)
    region = np.arange(FIG4.n_1, FIG4.m_2 + 1)
    snapshot = dynamics.photon_field(FIG4, trajectory, region, [600.0])[0]
    return {"grid": grid, "trajectory": trajectory, "prediction": prediction,
            "snapshot": snapshot}


# ---------------------------------------------------------------- criteria

def test_criterion_1_bound_state_census(census_result):
    rows, elapsed = census_result
    ok = True
    for (size, delta), row in rows.items():
        if size == 6 and delta % 2 == 1:
            ok &= row.n_bic == 2
            ok &= sorted(abs(e) for e in row.energies) == pytest.approx(
                [0.0097, 0.0097], abs=1e-3)
            ok &= min(row.energies) < 0 < max(row.energies)
        elif size == 6:
            ok &= row.n_bic == 2 and len(row.roots) == 1
            ok &= row.roots[0].multiplicity == 2 and abs(row.roots[0].energy) <= 1e-6
        elif delta % 2 == 1:
            ok &= row.n_bic == 0
        else:
            ok &= row.n_bic == 1 and abs(row.roots[0].energy) <= 1e-6
    ok &= elapsed <= 10.0
    assert _report(1, "bound-state census", ok,
                   f"12 geometry rows, {elapsed:.2f} s (budget 10 s)")


def test_criterion_2_lattice_classification_counts(census_result, lattice_counts):
    rows, _ = census_result
    counts, elapsed = lattice_counts
    mismatches = {k: (rows[k].n_bic, counts[k]) for k in rows
                  if rows[k].n_bic != counts[k]}
    ok = not mismatches and elapsed <= 120.0
    assert _report(2, "finite-lattice cross-check", ok,
                   f"mismatches={mismatches or 'none'}, {elapsed:.1f} s (budget 120 s)")


def test_criterion_3_rabi_oscillation(fig3_run):
    roots = fig3_run["roots"]
    grid = fig3_run["grid"]
    traj = fig3_run["trajectory"]
    exact = fig3_run["exact"]

    expected = bic.rabi_period(roots)
    measured = oscillation_period(grid.times(), traj.pop_1)
    period_err = abs(measured - expected) / expected

    half = grid.n_steps // 2
    late_sum = float(np.mean(traj.pop_1[half:] + traj.pop_2[half:]))

    pop_diff = max(np.abs(traj.pop_1 - exact.pop_1).max(),
                   np.abs(traj.pop_2 - exact.pop_2).max())

    ok = (period_err <= 0.02 and late_sum >= 0.9 and pop_diff <= 1e-2
          and fig3_run["elapsed"] <= 300.0)
    assert _report(3, "Rabi oscillation", ok,
                   f"period {measured:.2f} vs {expected:.2f} ({period_err:.2%}), "
                   f"late pop sum {late_sum:.3f}, max diff vs exact {pop_diff:.2e}, "
                   f"{fig3_run['elapsed']:.1f} s (budget 300 s)")


def test_criterion_4_fractional_population(fig4_run):
    traj = fig4_run["trajectory"]
    p1, p2, _ = dynamics.plateau(traj)
    pred1, pred2 = fig4_run["prediction"]
    balance = abs(p1 - p2)
    rel = max(abs(p1 - pred1) / pred1, abs(p2 - pred2) / pred2)

    snap = fig4_run["snapshot"]
    weight = snap.probabilities
    peaks = np.isin(snap.sites, [1, 2, 3, 9, 10, 11])  # {2, 10} +- 1 site
    stray_fraction = float(weight[~peaks].sum() / weight.sum())

    ok = balance <= 1e-2 and rel <= 0.05 and stray_fraction <= 0.10
    assert _report(4, "fractional population", ok,
                   f"plateaus ({p1:.4f}, {p2:.4f}) vs projection {pred1:.4f} "
                   f"(rel err {rel:.2%}), stray field fraction {stray_fraction:.2%}")


def test_criterion_5_effective_matrix_eigenvalue_traces():
    grid = TimeGrid(t_max=200.0, dt=0.02)
    results = {}
    for size, delta in ((6, 3), (6, 2), (8, 3), (8, 2)):
        trace = dynamics.m_eigenvalues_trace(_cfg(size, delta), grid)
        results[(size, delta)] = (trace.lambda_1[-1].imag, trace.lambda_2[-1].imag)
    tol = 1e-3
    ok = all(abs(v) <= tol for v in results[(6, 3)])
    ok &= all(abs(v) <= tol for v in results[(6, 2)])
    ok &= all(v <= -tol for v in results[(8, 3)])
    near_zero = sum(abs(v) <= tol for v in results[(8, 2)])
    ok &= near_zero == 1
    detail = ", ".join(f"N={s} d={d}: ({a:+.1e}, {b:+.1e})"
                       for (s, d), (a, b) in results.items())
    assert _report(5, "M(t) eigenvalue traces", ok, detail)


def test_criterion_6a_momentum_sum_convergence():
    orders = []
    for energy in (0.3, -0.9):
        exact_shift = energy - FIG3.omega_1 - bic.transcendental_residual(energy, +1, FIG3)
        errs = [abs(complex(lamb_shift_sum_oracle(energy, FIG3, n, +1)).real
                    - exact_shift) for n in (4000, 40000)]
        orders.append(math.log10(errs[0] / errs[1]))
    ok = all(p >= 1.0 for p in orders)
    assert _report("6a", "momentum-sum oracle order >= 1", ok,
                   f"empirical orders {[f'{p:.2f}' for p in orders]}")


def test_criterion_6b_bessel_oracle_agreement():
    worst = 0.0
    for x in (0.5, 2.0, 7.5, 15.0):
        row = bessel_j_row(20, x).values
        for n in range(21):
            ref = series_oracle(n, x)
            err = abs(row[n] - ref) / abs(ref) if abs(ref) > 1e-3 else abs(row[n] - ref)
            worst = max(worst, err)
    sum_rule = bessel_j_row(60, 25.0).sum_rule_residual()
    ok = worst <= 1e-12 and sum_rule <= 1e-10
    assert _report("6b", "Bessel vs power-series oracle", ok,
                   f"max err {worst:.2e} (tol 1e-12), sum rule {sum_rule:.2e} (tol 1e-10)")


def test_criterion_6c_volterra_convergence_order(fig3_run, fig3_basis):
    _, basis = fig3_basis
    psi0 = initial_state("atom1", FIG3)
    coarse = fig3_run["trajectory"]
    exact_c = fig3_run["exact"]
    err_coarse = max(np.abs(coarse.pop_1 - exact_c.pop_1).max(),
                     np.abs(coarse.pop_2 - exact_c.pop_2).max())
    fine_grid = TimeGrid(t_max=700.0, dt=0.01)
    fine = dynamics.solve_volterra(FIG3, psi0, fine_grid)
    exact_f, _ = spectrum.exact_propagate(FIG3, psi0, fine_grid, basis)
    err_fine = max(np.abs(fine.pop_1 - exact_f.pop_1).max(),
                   np.abs(fine.pop_2 - exact_f.pop_2).max())
    ratio = err_coarse / err_fine
    ok = ratio >= 3.0
    assert _report("6c", "Volterra dt-halving error reduction", ok,
                   f"{err_coarse:.2e} -> {err_fine:.2e}, factor {ratio:.2f} (need >= 3)")


def test_criterion_7_unitarity(fig3_run, fig3_basis):
    # exact propagation: bound the deficit for every time via the eigenbasis
    # orthonormality, then spot-check reconstructed full states
    _, basis = fig3_basis
    vectors = basis.vectors
    gram_defect = vectors.T @ vectors - np.eye(vectors.shape[1])
    fro = float(np.linalg.norm(gram_defect))
    exact_bound = 2.0 * fro  # >= | ||psi(t)||^2 - 1 | for all t
    grid = fig3_run["grid"]
    psi0 = initial_state("atom1", FIG3)
    spot_times = (0.0, 175.0, 350.0, 525.0, 700.0)
    _, snaps = spectrum.exact_propagate(FIG3, psi0, grid, basis, snapshot_times=spot_times)
    exact_traj = fig3_run["exact"]
    spot = max(abs(abs(exact_traj.alpha_1[grid.node(s.time)]) ** 2
                   + abs(exact_traj.alpha_2[grid.node(s.time)]) ** 2
                   + s.probabilities.sum() - 1.0) for s in snaps)

    # Volterra + reconstructed field over a window holding all radiation
    traj = fig3_run["trajectory"]
    t_check = 200.0
    reach = int(2.0 * FIG3.xi * t_check) + 30
    window = np.arange(FIG3.n_1 - reach, FIG3.m_2 + reach + 1)
    snap = dynamics.photon_field(FIG3, traj, window, [t_check])[0]
    volterra_deficit = dynamics.norm_check(traj, snap, FIG3)

    ok = exact_bound <= 1e-10 and spot <= 1e-10 and volterra_deficit <= 1e-2
    assert _report(7, "unitarity", ok,
                   f"exact bound {exact_bound:.2e} / spot {spot:.2e} (tol 1e-10), "
                   f"volterra+field deficit {volterra_deficit:.2e} (tol 1e-2)")
