from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from crwqed.model import (
    AtomTrajectory,
    ConfigError,
    SystemConfig,
    TimeGrid,
    WavefunctionState,
    initial_state,
)
from crwqed import bic, dynamics, spectrum
from crwqed.cli import PRESETS
from crwqed.dynamics import (
    _BLOCK,
    SolverError,
    build_kernels,
    field_extent,
    field_k_points,
    m_eigenvalues_trace,
    photon_field,
    photon_norm,
    plateau,
    solve_volterra,
    steady_state_prediction,
    unit_power,
)
from oracles import (bessel_j, continuity_order_loop, m_matrix, norm_check, traced_peak,
                     volterra_direct)

FIG3 = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10)
FIG4 = SystemConfig(n_1=1, n_2=9, m_1=3, m_2=11)
NO_BIC = SystemConfig(n_1=1, n_2=9, m_1=4, m_2=12)
SHARED_LEG = SystemConfig(n_1=1, n_2=7, m_1=7, m_2=13)
ASYMMETRIC = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_1=0.13, g_2=0.07,
                          omega_1=0.05, omega_2=-0.02)
DETUNED = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_1=0.12, g_2=0.09,
                       omega_c=0.1, omega_1=-0.2, omega_2=0.3)


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


def _kernels_from_one_table(cfg, grid):
    """The kernels of ``build_kernels`` from one Bessel table over all nodes
    and every order up to the highest."""
    from crwqed.dynamics import kernel_order_max
    from crwqed.specfun import bessel_j_table
    taus = grid.times()
    table = bessel_j_table(kernel_order_max(cfg), 2.0 * cfg.xi * taus)
    phase = np.exp(-1j * cfg.omega_c * taus)
    k1 = phase * (table[:, 0] + unit_power(cfg.size_1) * table[:, cfg.size_1])
    k2 = phase * (table[:, 0] + unit_power(cfg.size_2) * table[:, cfg.size_2])
    kc = np.zeros_like(phase)
    for p in cfg.cross_distances:
        kc += unit_power(p) * table[:, p]
    return k1, k2, kc * phase


@pytest.mark.parametrize("rows", [None, 7, 1])
@pytest.mark.parametrize("cfg", [FIG3, SHARED_LEG, DETUNED,
                                 SystemConfig(n_1=0, n_2=300, m_1=-40, m_2=77, omega_c=0.2,
                                              xi=0.7)],
                         ids=["fig3", "shared_leg", "detuned", "long_span"])
def test_blocked_kernels_equal_one_table(monkeypatch, cfg, rows):
    # blocks of the default budget, of 7 nodes (601 nodes leave a partial
    # last block) and of one node each
    import crwqed.dynamics as dynamics
    if rows is not None:
        monkeypatch.setattr(dynamics, "_KERNEL_SCRATCH",
                            rows * 8 * (dynamics.kernel_order_max(cfg) + 1))
    grid = TimeGrid(t_max=12.0, dt=0.02)
    ks = build_kernels(cfg, grid)
    for mine, ref in zip((ks.k_self_1, ks.k_self_2, ks.k_cross),
                         _kernels_from_one_table(cfg, grid)):
        assert np.array_equal(mine, ref)


def test_kernel_table_memory_does_not_grow_with_the_span():
    # a leg span of 1000 over 5001 nodes: the table of every order up to
    # 1003 is 40 MB, the kernels kept are 0.24 MB
    cfg = SystemConfig(n_1=0, n_2=1000, m_1=3, m_2=1003)
    grid = TimeGrid(t_max=100.0, dt=0.02)
    assert traced_peak(build_kernels, cfg, grid) < 4 * 2 ** 20


def test_kernel_grid_too_coarse():
    with pytest.raises(ValueError, match="dt"):
        build_kernels(FIG3, TimeGrid(t_max=10.0, dt=0.2))


def test_m_matrix_start_and_decoupled():
    cfg = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, omega_1=0.4, omega_2=-0.2)
    grid = TimeGrid(t_max=2.0, dt=0.02)
    ks = build_kernels(cfg, grid)
    m0 = m_matrix(cfg, grid, 0.0, ks)
    assert np.allclose(m0, np.diag([0.4, -0.2]))
    free = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_1=0.0, g_2=0.0,
                        omega_1=0.4, omega_2=-0.2)
    ksf = build_kernels(free, grid)
    for t in (0.0, 1.0, 2.0):
        assert np.allclose(m_matrix(free, grid, t, ksf), np.diag([0.4, -0.2]))
    m1 = m_matrix(cfg, grid, 1.0, ks)
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


@pytest.mark.parametrize("cfg, t_max", [(FIG3, 700.0), (FIG4, 600.0)])
def test_continuity_order_matches_loop_on_preset_grids(cfg, t_max):
    trace = m_eigenvalues_trace(cfg, TimeGrid(t_max=t_max, dt=0.02))
    mean = 0.5 * (trace.a_1 + trace.a_2)
    root = np.sqrt(0.25 * (trace.a_1 - trace.a_2) ** 2 + trace.b ** 2)
    lam1, lam2 = continuity_order_loop(mean + root, mean - root)
    assert np.array_equal(trace.lambda_1, lam1)
    assert np.array_equal(trace.lambda_2, lam2)


def test_continuity_order_crossing_and_ties():
    from crwqed.dynamics import _continuity_order
    # dyadic values, so the tied distance sums are tied exactly
    raw = np.array([
        (-1.0, 1.0),                # node 0: larger real part first -> swapped
        (-0.75, 0.75),              # follows node 0 -> stays swapped
        (0.75j, -0.75j),            # exact tie after a swapped node -> not swapped
        (0.5 + 0.5j, -0.5 - 0.5j),
        (-0.5 - 0.25j, 0.5 + 0.25j),  # the raw pair crossed -> swapped
        (-0.5, 0.5),                # stays swapped
        (0.0, 0.0),                 # exact degeneracy: a tie
        (0.25, -0.25),              # a tie again (equidistant from 0)
        (-0.5, 0.5),                # crossed -> swapped
        (np.nan, 0.75),             # NaN compares as a tie -> not swapped
        (-1.0, 1.0),                # after NaN: a tie again
    ])
    swapped = np.array([1, 1, 0, 0, 1, 1, 0, 0, 1, 0, 0], dtype=bool)
    lam1, lam2 = _continuity_order(raw[:, 0], raw[:, 1])
    ref1, ref2 = continuity_order_loop(raw[:, 0], raw[:, 1])
    assert np.array_equal(lam1, ref1, equal_nan=True)
    assert np.array_equal(lam2, ref2, equal_nan=True)
    assert np.array_equal(lam1, np.where(swapped, raw[:, 1], raw[:, 0]), equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-2, 2)] * 4), min_size=1, max_size=40))
def test_continuity_order_matches_loop_on_small_integer_traces(parts):
    # a coarse integer lattice makes exact ties and crossings common
    from crwqed.dynamics import _continuity_order
    p = np.array(parts, dtype=float)
    raw1, raw2 = p[:, 0] + 1j * p[:, 1], p[:, 2] + 1j * p[:, 3]
    lam1, lam2 = _continuity_order(raw1, raw2)
    ref1, ref2 = continuity_order_loop(raw1, raw2)
    assert np.array_equal(lam1, ref1) and np.array_equal(lam2, ref2)


def test_volterra_decoupled_phase_evolution():
    cfg = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_1=0.0, g_2=0.0, omega_1=0.5)
    grid = TimeGrid(t_max=10.0, dt=0.02)
    traj = solve_volterra(cfg, initial_state("atom1"), grid)
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
    # the block resolvent and the FFT history sums reorder only the
    # floating-point sums of the direct scheme
    _assert_matches_direct(cfg, state, nodes)


@pytest.mark.parametrize("cfg, state", [(FIG3, "atom1"), (DETUNED, "symmetric")],
                         ids=["fig3", "detuned_symmetric"])
def test_volterra_matches_direct_sums_on_a_long_grid(cfg, state):
    # 20 001 nodes: the resolvent error must not grow with the block count
    _assert_matches_direct(cfg, state, 20_001)


def _assert_matches_direct(cfg, state, nodes):
    grid = TimeGrid(t_max=(nodes - 1) * 0.02, dt=0.02)
    assert grid.n_steps + 1 == nodes
    kernels = build_kernels(cfg, grid)
    psi0 = initial_state(state)
    fast = solve_volterra(cfg, psi0, grid, kernels)
    direct = volterra_direct(cfg, psi0, grid, kernels)
    diff = max(np.abs(fast.alpha_1 - direct.alpha_1).max(),
               np.abs(fast.alpha_2 - direct.alpha_2).max())
    assert diff <= 1e-12


_GEOMETRIES = {  # (n_1, n_2, m_1, m_2) as functions of the first leg and two gaps
    "braided": lambda a, p, q: (a, a + p + q, a + p, a + 2 * p + q),
    "nested": lambda a, p, q: (a, a + 2 * p + q, a + p, a + p + q),
    "separate": lambda a, p, q: (a, a + p, a + p + q, a + 2 * p + q),
    "shared_leg": lambda a, p, q: (a, a + p, a + p, a + p + q),
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_GEOMETRIES)), st.integers(-5, 5), st.integers(1, 4),
       st.integers(1, 4), st.floats(0.0, 0.2), st.floats(0.0, 0.2),
       st.tuples(*[st.floats(-0.5, 0.5)] * 3),
       st.sampled_from(["atom1", "atom2", "symmetric", "antisymmetric"]),
       st.integers(2, 1100))
def test_volterra_matches_direct_sums_on_random_systems(geometry, a, p, q, g_1, g_2, omegas,
                                                        state, nodes):
    n_1, n_2, m_1, m_2 = _GEOMETRIES[geometry](a, p, q)
    omega_c, omega_1, omega_2 = omegas
    cfg = SystemConfig(n_1=n_1, n_2=n_2, m_1=m_1, m_2=m_2, omega_c=omega_c,
                       omega_1=omega_1, omega_2=omega_2, g_1=g_1, g_2=g_2)
    _assert_matches_direct(cfg, state, nodes)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=4, max_size=4), st.integers(-30, 30),
       st.floats(0.0, 0.3), st.floats(0.0, 0.3), st.tuples(*[st.floats(-0.5, 0.5)] * 3),
       st.sampled_from(["atom1", "atom2", "symmetric", "antisymmetric"]))
def test_volterra_is_translation_and_mirror_invariant(legs, k, g_1, g_2, omegas, state):
    n_1, n_2, m_1, m_2 = legs
    assume(n_1 != n_2 and m_1 != m_2)
    omega_c, omega_1, omega_2 = omegas
    def solve(n_1, n_2, m_1, m_2):
        cfg = SystemConfig(n_1=n_1, n_2=n_2, m_1=m_1, m_2=m_2, omega_c=omega_c,
                           omega_1=omega_1, omega_2=omega_2, g_1=g_1, g_2=g_2)
        return solve_volterra(cfg, initial_state(state), TimeGrid(t_max=20.0, dt=0.05))
    base = solve(n_1, n_2, m_1, m_2)
    # the kernels see leg distances only: a shift changes no bit
    shifted = solve(n_1 + k, n_2 + k, m_1 + k, m_2 + k)
    assert np.array_equal(shifted.alpha_1, base.alpha_1)
    assert np.array_equal(shifted.alpha_2, base.alpha_2)
    # a mirror sums the cross kernel's terms in another order
    mirrored = solve(-n_1, -n_2, -m_1, -m_2)
    assert np.abs(mirrored.alpha_1 - base.alpha_1).max() <= 1e-12
    assert np.abs(mirrored.alpha_2 - base.alpha_2).max() <= 1e-12


@pytest.mark.parametrize("cfg, grid, nodes, imaginary_2", [
    (PRESETS["fig3"].cfg, PRESETS["fig3"].grid, 35_001, True),
    (PRESETS["fig4"].cfg, PRESETS["fig4"].grid, 30_001, False),
    (bic.braided_config(8, 3, 0.1), TimeGrid(t_max=200.0, dt=0.02), 10_001, True),
], ids=["fig3", "fig4", "braided_8_3"])
def test_volterra_keeps_exact_zero_parts(cfg, grid, nodes, imaginary_2):
    # on resonance alpha_1 stays real and alpha_2 real or imaginary (as the
    # cross kernel is); the zero parts are +0.0, never -0.0
    traj = solve_volterra(cfg, initial_state("atom1"), grid)
    assert traj.alpha_1.size == nodes
    zero_parts = (traj.alpha_1.imag, traj.alpha_2.real if imaginary_2 else traj.alpha_2.imag)
    for part in zero_parts:
        assert np.all(part == 0.0) and not np.signbit(part).any()
    assert np.abs(traj.alpha_2.imag if imaginary_2 else traj.alpha_2.real).max() > 0.1


@pytest.mark.parametrize("name", ["fig3", "fig4"])
def test_volterra_real_forms_agree_on_the_presets(name):
    # a global phase e^{0.7i} makes both parts of alpha_1(0) nonzero, so
    # the solve takes all 4 components; divided by the phase, the
    # amplitudes are those of the 2-component solve
    scn = PRESETS[name]
    kernels = build_kernels(scn.cfg, scn.grid)
    psi0 = initial_state("atom1")
    turned = WavefunctionState(np.exp(0.7j) * psi0.alpha_1, np.exp(0.7j) * psi0.alpha_2)
    assert dynamics.volterra_components(scn.cfg, psi0, scn.grid, kernels) == 2
    assert dynamics.volterra_components(scn.cfg, turned, scn.grid, kernels) == 4
    two = solve_volterra(scn.cfg, psi0, scn.grid, kernels)
    four = solve_volterra(scn.cfg, turned, scn.grid, kernels)
    assert two.alpha_1.size == scn.grid.n_steps + 1
    assert max(np.abs(b / np.exp(0.7j) - a).max() for a, b in (
        (two.alpha_1, four.alpha_1), (two.alpha_2, four.alpha_2))) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(st.integers(-5, 5), st.integers(1, 3), st.integers(1, 3), st.integers(-6, 6),
       st.floats(0.0, 0.2), st.floats(0.0, 0.2), st.sampled_from(["atom1", "atom2"]),
       st.integers(2, 1100))
def test_volterra_matches_direct_sums_on_random_gauge_real_systems(a, p, q, offset, g_1, g_2,
                                                                   state, nodes):
    # on resonance, with even sizes and cross distances of one parity (the
    # parity of the offset between the first legs), one atom's real
    # amplitude reaches one part of the other's, through the cross kernel
    cfg = SystemConfig(n_1=a, n_2=a + 2 * p, m_1=a + offset, m_2=a + offset + 2 * q,
                       g_1=g_1, g_2=g_2)
    grid = TimeGrid(t_max=(nodes - 1) * 0.02, dt=0.02)
    assert dynamics.volterra_components(cfg, initial_state(state), grid,
                                        build_kernels(cfg, grid)) == (2 if g_1 * g_2 > 0 else 1)
    _assert_matches_direct(cfg, state, nodes)


def test_volterra_takes_four_components_off_resonance():
    grid = TimeGrid(t_max=10.0, dt=0.02)
    kernels = build_kernels(DETUNED, grid)
    assert dynamics.volterra_components(DETUNED, initial_state("atom1"), grid, kernels) == 4
    # a complex initial amplitude reaches every part on resonance too
    psi0 = WavefunctionState(alpha_1=0.6, alpha_2=0.8 * np.exp(0.3j))
    kernels = build_kernels(FIG3, grid)
    assert dynamics.volterra_components(FIG3, psi0, grid, kernels) == 4


def test_volterra_solves_only_the_parts_psi0_reaches():
    # off resonance with g_2 = 0, atom1 reaches its own two parts only,
    # and atom 2 is never computed
    cfg = replace(DETUNED, g_2=0.0)
    grid = TimeGrid(t_max=30.0, dt=0.02)
    kernels = build_kernels(cfg, grid)
    psi0 = initial_state("atom1")
    assert dynamics.volterra_components(cfg, psi0, grid, kernels) == 2
    traj = solve_volterra(cfg, psi0, grid, kernels)
    for part in (traj.alpha_2.real, traj.alpha_2.imag):
        assert np.all(part == 0.0) and not np.signbit(part).any()
    direct = volterra_direct(cfg, psi0, grid, kernels)
    assert np.abs(traj.alpha_1 - direct.alpha_1).max() <= 1e-12
    # an empty psi0 reaches nothing and solves no component
    empty = WavefunctionState(0j, 0j)
    assert dynamics.volterra_components(cfg, empty, grid, kernels) == 0
    traj = solve_volterra(cfg, empty, grid, kernels)
    for part in (traj.alpha_1.real, traj.alpha_1.imag, traj.alpha_2.real, traj.alpha_2.imag):
        assert np.all(part == 0.0) and not np.signbit(part).any()


def test_volterra_aborts_when_a_population_exceeds_one():
    # over 200/xi the resolvent overflows to inf, and every node of the FFT
    # product is NaN: the abort must still name node 1 with its true values
    cfg = SystemConfig(n_1=1, n_2=3, m_1=2, m_2=4, g_1=20.0, g_2=20.0)
    psi0 = initial_state("atom1")
    for t_max in (5.0, 200.0):
        grid = TimeGrid(t_max=t_max, dt=0.1)
        with pytest.raises(SolverError, match=r"population exceeded 1\.001 at t=0\.1 ") as fast:
            solve_volterra(cfg, psi0, grid)
        with pytest.raises(SolverError) as direct:
            volterra_direct(cfg, psi0, grid, build_kernels(cfg, grid))
        assert str(fast.value) == str(direct.value)


@pytest.mark.parametrize("limit, node, message", [
    (0.52, 571, "population exceeded 0.52 at t=11.42 (|a1|^2=0.415356, |a2|^2=0.520082)"),
    (0.65, 1424, "population exceeded 0.65 at t=28.48 (|a1|^2=0.291967, |a2|^2=0.650033)"),
])
def test_volterra_abort_inside_a_block(monkeypatch, limit, node, message):
    # a population first passes `limit` at `node`, in a block after the first
    # and away from its edges
    import oracles
    from crwqed import dynamics
    assert node > _BLOCK and 0 < node % _BLOCK < _BLOCK - 1
    monkeypatch.setattr(dynamics, "POPULATION_ABORT", limit)
    monkeypatch.setattr(oracles, "POPULATION_ABORT", limit)
    grid = TimeGrid(t_max=200.0, dt=0.02)
    psi0 = initial_state("symmetric")
    kernels = build_kernels(ASYMMETRIC, grid)
    with pytest.raises(SolverError) as fast:
        solve_volterra(ASYMMETRIC, psi0, grid, kernels)
    with pytest.raises(SolverError) as direct:
        volterra_direct(ASYMMETRIC, psi0, grid, kernels)
    assert f"at t={node * grid.dt:.6g} " in message
    assert str(fast.value) == str(direct.value) == message + "; reduce dt"


@pytest.fixture(scope="module")
def fig3_basis():
    return spectrum.eigendecompose(spectrum.build_hamiltonian(FIG3, 600))


@pytest.fixture(scope="module")
def fig3_short(fig3_basis):
    grid = TimeGrid(t_max=60.0, dt=0.02)
    traj = solve_volterra(FIG3, initial_state("atom1"), grid)
    exact, _ = spectrum.exact_propagate(FIG3, initial_state("atom1"), grid, fig3_basis)
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
    traj_h = solve_volterra(FIG3, initial_state("atom1"), half)
    exact_h, _ = spectrum.exact_propagate(FIG3, initial_state("atom1"), half, fig3_basis)
    err = max(np.abs(traj.pop_1 - exact.pop_1).max(),
              np.abs(traj.pop_2 - exact.pop_2).max())
    err_h = max(np.abs(traj_h.pop_1 - exact_h.pop_1).max(),
                np.abs(traj_h.pop_2 - exact_h.pop_2).max())
    assert err / err_h >= 3.0


def test_no_bound_state_means_complete_decay():
    # regression value: with no in-band bound state the atoms empty out
    grid = TimeGrid(t_max=400.0, dt=0.02)
    traj = solve_volterra(NO_BIC, initial_state("atom1"), grid)
    tail = traj.pop_1[grid.node(300.0):] + traj.pop_2[grid.node(300.0):]
    assert tail.max() <= 0.05  # measured ~7e-6


def test_photon_field_zero_at_start(fig3_short):
    _, traj, _ = fig3_short
    snap = photon_field(FIG3, traj, np.arange(-20, 31), [0.0])[0]
    assert np.all(snap.beta == 0.0)


def test_photon_field_refuses_a_time_off_the_grid():
    grid = TimeGrid(t_max=1.0, dt=0.02)
    ones = np.ones(grid.n_steps + 1, dtype=complex)
    traj = AtomTrajectory(grid=grid, alpha_1=ones, alpha_2=0.0 * ones)
    with pytest.raises(ConfigError, match=r"t=0.013 is not a node of the grid \(dt=0.02"):
        photon_field(FIG3, traj, np.arange(-5, 16), times=[0.013])


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
def test_photon_field_blocks_match_one_block(fig3_short, monkeypatch, chunk):
    # every time's sums are accumulated block by block; times on, before and
    # after block edges must agree with a single block over all nodes
    from crwqed import dynamics
    grid, traj, _ = fig3_short
    sites = np.arange(-30, 41)
    times = [0.0, 0.02, 0.12, 0.14, 1.26, 1.28, 1.30, 20.0, 60.0]
    monkeypatch.setattr(dynamics, "_FIELD_CHUNK", grid.n_steps + 1)
    one = photon_field(FIG3, traj, sites, times)
    monkeypatch.setattr(dynamics, "_FIELD_CHUNK", chunk)
    blocked = photon_field(FIG3, traj, sites, times)
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
    monkeypatch.setattr(dynamics, "_FIELD_CHUNK", 1000)
    grid, traj, _ = fig3_short
    photon_field(FIG3, traj, np.arange(-20, 31), [20.0, 60.0, 40.0])
    assert calls == [1000, 1000, 1000, 1]  # nodes 0..3000 of the latest time


def test_tables_send_miller_only_arguments_below_the_switch(fig3_short, monkeypatch):
    from crwqed import dynamics, specfun
    grid, traj, _ = fig3_short
    miller = []
    original_miller = specfun._miller_rows
    def recording_miller(order_max, xs, rows):
        miller.append((order_max, float(xs.max())))
        original_miller(order_max, xs, rows)
    monkeypatch.setattr(specfun, "_miller_rows", recording_miller)
    shapes = []
    def recording_table(order_max, xs):
        table = specfun.bessel_j_table(order_max, xs)
        shapes.append((table.shape, (len(xs), order_max + 1)))
        return table
    monkeypatch.setattr(dynamics, "bessel_j_table", recording_table)
    sites = np.arange(-20, 31)
    monkeypatch.setattr(dynamics, "_FIELD_CHUNK", 1000)
    build_kernels(FIG3, grid)
    photon_field(FIG3, traj, sites, [20.0, 60.0])
    orders = {order_max for order_max, _ in miller}
    assert orders == {9, dynamics.field_order_max(FIG3, sites)}
    for order_max, x_max in miller:
        assert x_max < max(specfun.HANKEL_FROM, 2.0 * order_max)
    assert len(shapes) == 5 and all(got == want for got, want in shapes)


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
    traj = solve_volterra(cfg, initial_state("atom1"), grid)
    snap = photon_field(cfg, traj, np.arange(-40, 52), [5.0])[0]
    assert norm_check(traj, snap, cfg) <= 1e-14
    assert photon_norm(cfg, traj, 5.0) == 0.0


def _shifted(cfg, offset):
    return replace(cfg, n_1=cfg.n_1 + offset, n_2=cfg.n_2 + offset,
                   m_1=cfg.m_1 + offset, m_2=cfg.m_2 + offset)


@st.composite
def _field_cases(draw):
    """A coupled geometry (legs of unequal atoms anywhere in [-15, 15],
    atom 2 possibly decoupled, detunings, omega_c != 0, xi in [0.5, 2]),
    its Volterra trajectory on the kernel limit's grid, and a grid time
    from dt to 200."""
    n_1, n_2, m_1, m_2 = (draw(st.integers(-15, 15)) for _ in range(4))
    assume(n_1 != n_2 and m_1 != m_2)
    xi = draw(st.floats(0.5, 2.0))
    cfg = SystemConfig(n_1=n_1, n_2=n_2, m_1=m_1, m_2=m_2, xi=xi,
                       omega_c=draw(st.floats(-1.0, 1.0)),
                       omega_1=draw(st.floats(-0.5, 0.5)), omega_2=draw(st.floats(-0.5, 0.5)),
                       g_1=draw(st.floats(0.01, 0.3)),
                       g_2=draw(st.sampled_from([0.0, 0.05, 0.2])))
    dt = 0.1 / xi
    steps = draw(st.integers(1, int(200.0 / dt)))
    grid = TimeGrid(t_max=steps * dt, dt=dt)
    traj = solve_volterra(cfg, initial_state("atom1"), grid)
    return cfg, traj, grid.t_end


@settings(max_examples=12, deadline=None)
@given(_field_cases())
@example((SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_2=0.0, omega_c=0.3, xi=0.5),
          None, 200.0))
@example((SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_1=0.13, g_2=0.07, omega_1=0.05,
                       omega_2=-0.02, xi=1.3), None, 60.0))
def test_photon_norm_equals_photon_field_sum(case):
    cfg, traj, t = case
    if traj is None:
        grid = TimeGrid(t_max=t, dt=0.1 / cfg.xi)
        traj = solve_volterra(cfg, initial_state("atom1"), grid)
    # photon_field over the legs, the light cone and 60 sites more on each side
    first, last = cfg.outer_legs
    reach = int(np.ceil(2.0 * cfg.xi * t)) + 60
    ref = photon_field(cfg, traj, np.arange(first - reach, last + reach + 1), [t])[0]
    norm = photon_norm(cfg, traj, t)
    assert abs(norm - np.sum(ref.probabilities)) <= 1e-14
    # only the legs' offsets from each other enter
    assert photon_norm(_shifted(cfg, 10 ** 7), traj, t) == norm


def test_photon_norm_at_time_zero_is_zero(fig3_short):
    _, traj, _ = fig3_short
    assert photon_norm(FIG3, traj, 0.0) == 0.0


@given(st.integers(1, spectrum.MAX_LATTICE_SITES - spectrum.LATTICE_MARGIN), st.floats(1e-3, 1e3))
def test_norm_check_momentum_grid_stays_within_16384(span, xi):
    # the check runs at the node nearest min(200 / xi, t_end), at most
    # 0.05 / xi past 200 / xi on a grid the kernels take (dt <= 0.1 / xi),
    # for every leg span the dynamics stages take
    cfg = SystemConfig(n_1=0, n_2=span, m_1=0, m_2=span, xi=xi)
    assert field_k_points(field_extent(cfg, 200.05 / xi)) <= 16384


def test_photon_norm_scratch_stays_within_2_mb():
    # fig3's norm check: 878 sites, 1024 momenta, 10 001 nodes up to t = 200;
    # the Bessel route's first table block alone was 7.2 MB
    grid = TimeGrid(t_max=700.0, dt=0.02)
    taus = grid.times()
    traj = AtomTrajectory(grid=grid, alpha_1=np.exp(-(0.01 + 0.3j) * taus),
                          alpha_2=0.5j * np.exp(-0.02 * taus))
    assert field_extent(FIG3, 200.0) == 878
    assert traced_peak(photon_norm, FIG3, traj, 200.0) <= 2 * 2 ** 20


def _lattice_profiles(cfg):
    return spectrum.classify_bound_states(
        spectrum.eigendecompose(spectrum.build_hamiltonian(cfg, 600)), cfg)


def test_steady_state_prediction_fig4():
    p1, p2 = steady_state_prediction(initial_state("atom1"), _lattice_profiles(FIG4))
    assert p1 == pytest.approx(p2, rel=1e-9)      # symmetric bound state
    assert p1 == pytest.approx(0.245, abs=0.01)   # |A1|^4 of the normalized state


def test_steady_state_prediction_requires_unique_bic():
    with pytest.raises(ValueError, match="exactly one"):
        steady_state_prediction(initial_state("atom1"), _lattice_profiles(FIG3))


def test_steady_state_prediction_requires_a_photon_vacuum():
    psi0 = WavefunctionState(alpha_1=1.0, alpha_2=0.0, beta={3: 0.1})
    with pytest.raises(ValueError, match="empty photon sector"):
        steady_state_prediction(psi0, [])


def test_plateau_detector():
    from crwqed.model import AtomTrajectory
    grid = TimeGrid(t_max=100.0, dt=0.1)
    flat = np.full(grid.n_steps + 1, 0.25 + 0j)
    steady = AtomTrajectory(grid=grid, alpha_1=np.sqrt(flat), alpha_2=np.sqrt(flat))
    p1, p2, settled = plateau(steady, 1.0)
    assert settled and p1 == pytest.approx(0.25) and p2 == pytest.approx(0.25)
    wobble = flat * (1.0 + 0.01 * np.sin(np.arange(flat.size)))
    moving = AtomTrajectory(grid=grid, alpha_1=np.sqrt(wobble), alpha_2=np.sqrt(flat))
    assert not plateau(moving, 1.0)[2]


def test_plateau_window_is_50_over_xi():
    # pop1 settles at t = 70: the last 50 / xi = 25 time units at xi = 2 are
    # flat, the last 50 are not
    grid = TimeGrid(t_max=100.0, dt=0.1)
    taus = grid.times()
    pop = np.where(taus < 70.0, 0.3 + 0.05 * np.cos(taus), 0.25)
    traj = AtomTrajectory(grid=grid, alpha_1=np.sqrt(pop + 0j),
                          alpha_2=np.sqrt(np.full(taus.size, 0.25 + 0j)))
    p1, p2, settled = plateau(traj, 2.0)
    assert settled and p1 == 0.25 and p2 == 0.25
    assert not plateau(traj, 1.0)[2]
