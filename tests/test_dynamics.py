import numpy as np
import pytest

from crwqed.model import AtomTrajectory, SystemConfig, TimeGrid, WavefunctionState, initial_state
from crwqed import spectrum
from crwqed.dynamics import (
    _BLOCK,
    SolverError,
    build_kernels,
    m_eigenvalues_trace,
    norm_check,
    photon_field,
    plateau,
    solve_volterra,
    steady_state_prediction,
    unit_power,
)
from oracles import bessel_j, m_matrix, traced_peak, volterra_direct

FIG3 = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10)
FIG4 = SystemConfig(n_1=1, n_2=9, m_1=3, m_2=11)
NO_BIC = SystemConfig(n_1=1, n_2=9, m_1=4, m_2=12)
SHARED_LEG = SystemConfig(n_1=1, n_2=7, m_1=7, m_2=13)
ASYMMETRIC = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_1=0.13, g_2=0.07,
                          omega_1=0.05, omega_2=-0.02)


def test_unit_power_lookup():
    assert unit_power(6) == -1
    assert [unit_power(p) for p in range(4)] == [1, 1j, -1, -1j]
    # i^p J_p = i^{|p|} J_{|p|} because i^{-p} (-1)^p = i^p
    for p in (-9, -3, 3, 5):
        assert unit_power(p) * bessel_j(abs(p), 2.3) == (
            (1j) ** p * (-1) ** (abs(p) if p < 0 else 0) * bessel_j(abs(p), 2.3))


def test_kernels_at_zero_delay():
    grid = TimeGrid(t_max=5.0, dt=0.05)
    ks = build_kernels(FIG3, grid)
    assert ks.k_self_1[0] == pytest.approx(1.0, abs=1e-14)
    assert ks.k_self_2[0] == pytest.approx(1.0, abs=1e-14)
    assert ks.k_cross[0] == pytest.approx(0.0, abs=1e-14)  # braided, no shared legs
    shared = build_kernels(SHARED_LEG, grid)
    assert shared.k_cross[0] == pytest.approx(1.0, abs=1e-14)  # one shared leg


def test_self_kernel_is_j0_minus_j6():
    # size 6 -> i^6 = -1
    grid = TimeGrid(t_max=4.0, dt=0.1)
    ks = build_kernels(FIG3, grid)
    for n, tau in enumerate(grid.times()):
        expected = bessel_j(0, 2.0 * tau) - bessel_j(6, 2.0 * tau)
        assert ks.k_self_1[n] == pytest.approx(expected, abs=1e-12)


def test_cross_kernel_distances_fig3():
    assert sorted(FIG3.cross_distances) == [3, 3, 3, 9]


def test_cross_kernel_sign_insensitive():
    # building the cross kernel from the signed separations n_j - m_j'
    # (i^p J_p with negative p and orders) gives the same array bit for bit
    from crwqed.specfun import bessel_j_table
    grid = TimeGrid(t_max=3.0, dt=0.1)
    taus = grid.times()
    ks = build_kernels(FIG3, grid)
    signed = (FIG3.n_1 - FIG3.m_1, FIG3.n_1 - FIG3.m_2,
              FIG3.n_2 - FIG3.m_1, FIG3.n_2 - FIG3.m_2)
    table = bessel_j_table(9, 2.0 * taus)
    i_pow = (1, 1j, -1, -1j)
    rebuilt = np.zeros(taus.size, dtype=complex)
    for p in signed:
        j_signed = (-1.0) ** p * table[:, abs(p)] if p < 0 else table[:, p]
        rebuilt += i_pow[p % 4] * j_signed
    assert np.array_equal(np.asarray(ks.k_cross), rebuilt)


def test_kernel_grid_too_coarse():
    with pytest.raises(ValueError, match="dt"):
        build_kernels(FIG3, TimeGrid(t_max=10.0, dt=0.2))


def test_m_matrix_start_and_decoupled():
    cfg = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, omega_1=0.4, omega_2=-0.2)
    grid = TimeGrid(t_max=2.0, dt=0.02)
    ks = build_kernels(cfg, grid)
    m0 = m_matrix(cfg, 0.0, ks)
    assert np.allclose(m0, np.diag([0.4, -0.2]))
    free = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_1=0.0, g_2=0.0,
                        omega_1=0.4, omega_2=-0.2)
    ksf = build_kernels(free, grid)
    for t in (0.0, 1.0, 2.0):
        assert np.allclose(m_matrix(free, t, ksf), np.diag([0.4, -0.2]))
    m1 = m_matrix(cfg, 1.0, ks)
    assert m1[0, 1] == m1[1, 0]


def test_trace_determinant_identity():
    grid = TimeGrid(t_max=50.0, dt=0.02)
    trace = m_eigenvalues_trace(FIG3, grid)
    assert trace.trace_determinant_residual() <= 1e-10


def test_trace_is_continuity_ordered():
    grid = TimeGrid(t_max=50.0, dt=0.02)
    trace = m_eigenvalues_trace(FIG3, grid)
    jumps1 = np.abs(np.diff(trace.lambda_1))
    jumps2 = np.abs(np.diff(trace.lambda_2))
    assert jumps1.max() <= 0.01 and jumps2.max() <= 0.01


def test_volterra_decoupled_phase_evolution():
    cfg = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_1=0.0, g_2=0.0, omega_1=0.5)
    grid = TimeGrid(t_max=10.0, dt=0.02)
    traj = solve_volterra(cfg, initial_state("atom1", cfg), grid)
    expected = np.exp(-1j * 0.5 * grid.times())
    assert np.abs(traj.alpha_1 - expected).max() <= 1e-8
    assert np.abs(traj.alpha_2).max() == 0.0


def test_volterra_rejects_seeded_photon_field():
    psi0 = WavefunctionState(alpha_1=1.0, alpha_2=0.0, beta={3: 0.1})
    with pytest.raises(ValueError, match="photon"):
        solve_volterra(FIG3, psi0, TimeGrid(t_max=1.0, dt=0.02))


@pytest.mark.parametrize("nodes", [2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 4500])
@pytest.mark.parametrize("cfg, state", [
    (FIG3, "atom1"), (SHARED_LEG, "atom1"), (ASYMMETRIC, "atom2"), (FIG3, "antisymmetric"),
], ids=["fig3", "shared_leg", "asymmetric_atom2", "fig3_antisymmetric"])
def test_volterra_block_history_matches_direct_sums(cfg, state, nodes):
    # the blockwise FFT history sums reorder only the floating-point sums
    grid = TimeGrid(t_max=(nodes - 1) * 0.02, dt=0.02)
    assert grid.n_steps + 1 == nodes
    kernels = build_kernels(cfg, grid)
    psi0 = initial_state(state, cfg)
    fast = solve_volterra(cfg, psi0, grid, kernels)
    direct = volterra_direct(cfg, psi0, grid, kernels)
    diff = max(np.abs(fast.alpha_1 - direct.alpha_1).max(),
               np.abs(fast.alpha_2 - direct.alpha_2).max())
    assert diff <= 1e-12


def test_volterra_aborts_when_a_population_exceeds_one():
    cfg = SystemConfig(n_1=1, n_2=3, m_1=2, m_2=4, g_1=20.0, g_2=20.0)
    grid = TimeGrid(t_max=5.0, dt=0.1)
    psi0 = initial_state("atom1", cfg)
    with pytest.raises(SolverError, match=r"population exceeded 1\.001 at t=0\.1 "):
        solve_volterra(cfg, psi0, grid)
    with pytest.raises(SolverError, match=r"population exceeded 1\.001 at t=0\.1 "):
        volterra_direct(cfg, psi0, grid, build_kernels(cfg, grid))


@pytest.fixture(scope="module")
def fig3_basis():
    return spectrum.eigendecompose(spectrum.build_hamiltonian(FIG3, 600))


@pytest.fixture(scope="module")
def fig3_short(fig3_basis):
    grid = TimeGrid(t_max=60.0, dt=0.02)
    traj = solve_volterra(FIG3, initial_state("atom1", FIG3), grid)
    exact, _ = spectrum.exact_propagate(FIG3, initial_state("atom1", FIG3), grid, fig3_basis)
    return grid, traj, exact


def test_volterra_matches_exact_propagation(fig3_short):
    _, traj, exact = fig3_short
    diff = max(np.abs(traj.pop_1 - exact.pop_1).max(),
               np.abs(traj.pop_2 - exact.pop_2).max())
    assert diff <= 1e-2  # measured ~4e-6 at dt = 0.02


def test_volterra_population_bound(fig3_short):
    grid, traj, _ = fig3_short
    bound = 1.0 + 10.0 * grid.dt * FIG3.xi
    assert traj.pop_1.max() <= bound
    assert traj.pop_2.max() <= bound


def test_volterra_second_order_convergence(fig3_short, fig3_basis):
    grid, traj, exact = fig3_short
    half = TimeGrid(t_max=60.0, dt=0.01)
    traj_h = solve_volterra(FIG3, initial_state("atom1", FIG3), half)
    exact_h, _ = spectrum.exact_propagate(FIG3, initial_state("atom1", FIG3), half, fig3_basis)
    err = max(np.abs(traj.pop_1 - exact.pop_1).max(),
              np.abs(traj.pop_2 - exact.pop_2).max())
    err_h = max(np.abs(traj_h.pop_1 - exact_h.pop_1).max(),
                np.abs(traj_h.pop_2 - exact_h.pop_2).max())
    assert err / err_h >= 3.0


def test_no_bound_state_means_complete_decay():
    # regression value: with no in-band bound state the atoms empty out
    grid = TimeGrid(t_max=400.0, dt=0.02)
    traj = solve_volterra(NO_BIC, initial_state("atom1", NO_BIC), grid)
    tail = traj.pop_1[grid.node(300.0):] + traj.pop_2[grid.node(300.0):]
    assert tail.max() <= 0.05  # measured ~7e-6


def test_photon_field_zero_at_start(fig3_short):
    _, traj, _ = fig3_short
    snap = photon_field(FIG3, traj, np.arange(-20, 31), [0.0])[0]
    assert np.all(snap.beta == 0.0)


def test_photon_field_early_emission_sites(fig3_short):
    # atom 1 first fills the sites midway between its own legs: 2, 4, 6
    _, traj, _ = fig3_short
    snap = photon_field(FIG3, traj, np.arange(-10, 22), [20.0])[0]
    prob = snap.probabilities
    region = (snap.sites >= FIG3.n_1) & (snap.sites <= FIG3.m_2)
    own = np.isin(snap.sites, [2, 4, 6])
    assert prob[own].sum() >= 0.8 * prob[region].sum()


def test_photon_field_shared_table_matches_single_times(fig3_short):
    # one call at several times reuses one Bessel table across blocks;
    # each time alone builds a table that ends at its own node
    _, traj, _ = fig3_short
    sites = np.arange(-60, 71)
    times = [60.0, 10.0, 25.5, 0.0, 40.0]
    together = photon_field(FIG3, traj, sites, times)
    assert [s.time for s in together] == sorted(times)
    for snap in together:
        alone = photon_field(FIG3, traj, sites, [snap.time])[0]
        scale = max(np.abs(alone.beta).max(), 1e-300)
        assert np.abs(snap.beta - alone.beta).max() <= 1e-14 * scale


@pytest.mark.parametrize("chunk", [7, 64, 1000])
def test_photon_field_blocks_match_one_block(fig3_short, chunk):
    # every time's sums are accumulated block by block; times on, before and
    # after block edges must agree with a single block over all nodes
    grid, traj, _ = fig3_short
    sites = np.arange(-30, 41)
    times = [0.0, 0.02, 0.12, 0.14, 1.26, 1.28, 1.30, 20.0, 60.0]
    one = photon_field(FIG3, traj, sites, times, chunk=grid.n_steps + 1)
    blocked = photon_field(FIG3, traj, sites, times, chunk=chunk)
    for a, b in zip(blocked, one):
        assert a.time == b.time
        scale = max(np.abs(b.beta).max(), 1e-300)
        assert np.abs(a.beta - b.beta).max() <= 1e-14 * scale


def test_photon_field_scratch_does_not_grow_with_horizon():
    # the 870-site norm-check window of fig3 at t = 200 (441 Bessel orders);
    # a table over all nodes would double from t = 200 to t = 400
    grid = TimeGrid(t_max=400.0, dt=0.02)
    taus = grid.times()
    traj = AtomTrajectory(grid=grid, alpha_1=np.exp(-(0.01 + 0.3j) * taus),
                          alpha_2=0.5j * np.exp(-0.02 * taus))
    reach = 430
    sites = np.arange(FIG3.n_1 - reach, FIG3.m_2 + reach + 1)
    assert sites.size == 870
    peak_200 = traced_peak(photon_field, FIG3, traj, sites, [200.0])
    peak_400 = traced_peak(photon_field, FIG3, traj, sites, [400.0])
    assert peak_400 <= 1.1 * peak_200


def test_photon_field_matches_term_by_term_quadrature(fig3_short):
    # the defining sum, one leg and one site at a time
    from crwqed.specfun import bessel_j_table
    grid, traj, _ = fig3_short
    sites = np.arange(-15, 26)
    t = 30.0
    n = grid.node(t)
    taus = grid.times()[:n + 1]
    weights = np.full(n + 1, grid.dt)
    weights[0] = weights[-1] = 0.5 * grid.dt
    table = bessel_j_table(40, 2.0 * FIG3.xi * taus)
    expected = np.zeros(sites.size, dtype=complex)
    for g, legs, alpha in ((FIG3.g_1, (FIG3.n_1, FIG3.n_2), traj.alpha_1),
                           (FIG3.g_2, (FIG3.m_1, FIG3.m_2), traj.alpha_2)):
        for leg in legs:
            for k, site in enumerate(sites):
                p = abs(site - leg)
                integrand = np.exp(-1j * FIG3.omega_c * taus) * alpha[n::-1] * table[:, p]
                expected[k] += -1j * g * unit_power(p) * np.sum(weights * integrand)
    beta = photon_field(FIG3, traj, sites, [t])[0].beta
    assert np.abs(beta - expected).max() <= 1e-14 * np.abs(expected).max()


def test_photon_field_builds_each_table_block_once(fig3_short, monkeypatch):
    from crwqed import dynamics
    from crwqed.specfun import bessel_j_table
    calls = []
    def counting(order_max, xs):
        calls.append(len(xs))
        return bessel_j_table(order_max, xs)
    monkeypatch.setattr(dynamics, "bessel_j_table", counting)
    grid, traj, _ = fig3_short
    photon_field(FIG3, traj, np.arange(-20, 31), [20.0, 60.0, 40.0], chunk=1000)
    assert calls == [1000, 1000, 1000, 1]  # nodes 0..3000 of the latest time


def test_norm_check_values(fig3_short):
    grid, traj, _ = fig3_short
    t = 20.0
    reach = int(2.0 * FIG3.xi * t) + 25
    sites = np.arange(FIG3.n_1 - reach, FIG3.m_2 + reach + 1)
    snap = photon_field(FIG3, traj, sites, [t])[0]
    assert norm_check(traj, snap, FIG3) <= 1e-2
    with pytest.warns(UserWarning, match="window"):
        narrow = photon_field(FIG3, traj, np.arange(-5, 16), [t])[0]
        norm_check(traj, narrow, FIG3)


def test_norm_check_decoupled_is_exact():
    cfg = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_1=0.0, g_2=0.0)
    grid = TimeGrid(t_max=5.0, dt=0.05)
    traj = solve_volterra(cfg, initial_state("atom1", cfg), grid)
    sites = np.arange(-40, 52)
    snap = photon_field(cfg, traj, sites, [5.0])[0]
    assert norm_check(traj, snap, cfg) <= 1e-14


def _lattice_profiles(cfg):
    return spectrum.classify_bound_states(
        spectrum.eigendecompose(spectrum.build_hamiltonian(cfg, 600)), cfg)


def test_steady_state_prediction_fig4():
    p1, p2 = steady_state_prediction(initial_state("atom1", FIG4), _lattice_profiles(FIG4))
    assert p1 == pytest.approx(p2, rel=1e-9)      # symmetric bound state
    assert p1 == pytest.approx(0.245, abs=0.01)   # |A1|^4 of the normalized state


def test_steady_state_prediction_requires_unique_bic():
    with pytest.raises(ValueError, match="exactly one"):
        steady_state_prediction(initial_state("atom1", FIG3), _lattice_profiles(FIG3))


def test_plateau_detector():
    from crwqed.model import AtomTrajectory
    grid = TimeGrid(t_max=100.0, dt=0.1)
    flat = np.full(grid.n_steps + 1, 0.25 + 0j)
    steady = AtomTrajectory(grid=grid, alpha_1=np.sqrt(flat), alpha_2=np.sqrt(flat))
    p1, p2, settled = plateau(steady)
    assert settled and p1 == pytest.approx(0.25) and p2 == pytest.approx(0.25)
    wobble = flat * (1.0 + 0.01 * np.sin(np.arange(flat.size)))
    moving = AtomTrajectory(grid=grid, alpha_1=np.sqrt(wobble), alpha_2=np.sqrt(flat))
    assert not plateau(moving)[2]
