import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from crwqed.model import (
    ConfigError,
    SolverError,
    SystemConfig,
    TimeGrid,
    WavefunctionState,
    initial_state,
)
from crwqed import spectrum
from crwqed.dynamics import solve_volterra
from crwqed.spectrum import (
    build_hamiltonian,
    classify_bound_states,
    eigendecompose,
    exact_propagate,
    lattice_eigenbasis,
    reflection_free_time,
)
from crwqed.cli import load_scenario
from oracles import (
    _orthonormality,
    basis_matrix,
    classify_bound_states_loop,
    exact_propagate_direct,
    exact_propagate_one_product,
    photon_profile,
    traced_peak,
)

FIG3 = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10)
FIG4 = SystemConfig(n_1=1, n_2=9, m_1=3, m_2=11)
NO_BIC = SystemConfig(n_1=1, n_2=9, m_1=4, m_2=12)  # size 8, delta 3


def test_decoupled_photon_block_is_open_chain():
    cfg = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_1=0.0, g_2=0.0,
                       omega_c=0.4, omega_1=0.9, omega_2=-0.3)
    n_c = 80
    ham = build_hamiltonian(cfg, n_c)
    energies = eigendecompose(ham).energies
    q = np.arange(1, n_c + 1)
    chain = np.sort(cfg.omega_c - 2.0 * cfg.xi * np.cos(q * np.pi / (n_c + 1)))
    expected = np.sort(np.concatenate([[cfg.omega_1, cfg.omega_2], chain]))
    assert np.allclose(energies, expected, atol=1e-10)


def test_hamiltonian_structure_fig3():
    ham = build_hamiltonian(FIG3, 400)
    h = ham.matrix
    assert np.array_equal(h, h.T)
    assert np.count_nonzero(h[:2, 2:]) + np.count_nonzero(h[2:, :2]) == 8
    diag = np.diag(h)
    assert diag[0] == FIG3.omega_1 and diag[1] == FIG3.omega_2
    assert np.all(diag[2:] == FIG3.omega_c)
    off = np.diag(h[2:, 2:], k=1)
    assert np.all(off == -FIG3.xi)


def test_lattice_too_small_rejected():
    with pytest.raises(ValueError, match="too small"):
        build_hamiltonian(FIG3, FIG3.m_2 - FIG3.n_1 + 39)


def test_gershgorin_bound_and_completeness():
    ham = build_hamiltonian(FIG3, 120)
    basis = eigendecompose(ham)
    h = ham.matrix
    # Gershgorin oracle: every eigenvalue inside the union of row discs
    centers = np.diag(h)
    radii = np.abs(h).sum(axis=1) - np.abs(centers)
    for e in basis.energies:
        assert np.any(np.abs(e - centers) <= radii + 1e-12)
    # implied coarse bound
    lo = min(FIG3.omega_1, FIG3.band_bottom) - 2.0 * FIG3.g_1
    hi = max(FIG3.omega_1, FIG3.band_top) + 2.0 * FIG3.g_1
    assert all(lo <= e <= hi for e in basis.energies)
    # completeness: each basis vector resolved by the eigenbasis
    overlaps = (basis_matrix(basis) ** 2).sum(axis=1)
    assert np.allclose(overlaps, 1.0, atol=1e-10)


def _bics(classified):
    return np.flatnonzero(classified.labels == "BIC")


@pytest.fixture(scope="module")
def fig3_classified():
    ham = build_hamiltonian(FIG3, 600)
    return classify_bound_states(eigendecompose(ham), FIG3), ham


def test_fig3_two_bics(fig3_classified):
    classified, _ = fig3_classified
    bics = _bics(classified)
    assert len(bics) == 2
    energies = sorted(classified.energies[bics])
    assert energies[0] == pytest.approx(-0.0097, abs=1e-3)
    assert energies[1] == pytest.approx(+0.0097, abs=1e-3)


def test_fig3_bic_profiles_confined(fig3_classified):
    classified, ham = fig3_classified
    sites = ham.sites
    inside = (sites >= FIG3.n_1 - 5) & (sites <= FIG3.m_2 + 5)
    for q in _bics(classified):
        # quasi-compact at finite splitting: ~97% of the photon weight on
        # the covered region, the remainder a weak lattice-wide tail
        photon = classified.photon[q]
        assert photon[inside].sum() >= 0.95 * photon.sum()


def test_no_bic_for_size8_odd_offset():
    ham = build_hamiltonian(NO_BIC, 600)
    classified = classify_bound_states(eigendecompose(ham), NO_BIC)
    assert _bics(classified).size == 0


def test_fig4_single_compact_bic():
    ham = build_hamiltonian(FIG4, 600)
    classified = classify_bound_states(eigendecompose(ham), FIG4)
    bics = _bics(classified)
    assert len(bics) == 1
    q = bics[0]
    assert abs(classified.energies[q]) <= 1e-6
    amp_1, amp_2 = classified.atoms[:, q]
    assert abs(amp_1) == pytest.approx(abs(amp_2), rel=1e-9)
    top = ham.sites[np.argsort(classified.photon[q])[::-1][:2]]
    assert sorted(top.tolist()) == [2, 10]


def test_decoupled_atoms_are_not_bound_states():
    cfg = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_1=0.0, g_2=0.0)
    ham = build_hamiltonian(cfg, 200)
    classified = classify_bound_states(eigendecompose(ham), cfg)
    assert set(classified.labels.tolist()) == {"extended"}  # no BIC, no BOC
    assert classified.photon == {}


@pytest.mark.parametrize("size,expect", [(n, n in (6, 10)) for n in range(3, 13)])
def test_single_atom_bic_needs_matching_size(size, expect):
    # one coupled atom (g_2 = 0): an in-band bound state exists only when
    # the resonant mode interferes away at both legs, size = 6, 10, ...
    cfg = SystemConfig(n_1=1, n_2=1 + size, m_1=30, m_2=40, g_2=0.0)
    ham = build_hamiltonian(cfg, 600)
    classified = classify_bound_states(eigendecompose(ham), cfg)
    assert (len(_bics(classified)) == 1) is expect


def test_extended_states_have_small_ipr():
    cfg = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_1=0.0, g_2=0.0)
    n_c = 400
    ham = build_hamiltonian(cfg, n_c)
    vectors = basis_matrix(eigendecompose(ham))
    # plane-wave oracle: open-chain standing waves have IPR ~ 1.5 / n_c
    iprs = [np.sum(photon_profile(v) ** 2) for v in vectors.T
            if abs(v[0]) < 1e-12 and abs(v[1]) < 1e-12]
    assert max(iprs) <= 3.0 / n_c


def test_exact_propagate_decoupled_phase():
    cfg = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_1=0.0, g_2=0.0, omega_1=0.7)
    grid = TimeGrid(t_max=20.0, dt=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj, _ = exact_propagate(cfg, initial_state("atom1"), grid,
                                  eigendecompose(build_hamiltonian(cfg, 120)))
    expected = np.exp(-1j * cfg.omega_1 * grid.times())
    assert np.allclose(traj.alpha_1, expected, atol=1e-10)
    assert np.allclose(traj.pop_1, 1.0, atol=1e-12)


def test_exact_propagate_norm_and_wavefront_warning():
    grid = TimeGrid(t_max=120.0, dt=0.5)
    with pytest.warns(UserWarning, match="wavefront"):
        traj, snaps = exact_propagate(FIG3, initial_state("atom1"), grid,
                                      eigendecompose(build_hamiltonian(FIG3, 80)),
                                      snapshot_times=(60.0, 120.0))
    for snap in snaps:
        n = grid.node(snap.time)
        total = (abs(traj.alpha_1[n]) ** 2 + abs(traj.alpha_2[n]) ** 2
                 + snap.probabilities.sum())
        assert abs(total - 1.0) <= 1e-10
    assert reflection_free_time(FIG3, 80, grid.dt) < 120.0


@pytest.mark.parametrize("n_c", [200, 300, 400])
def test_round_trip_window_ends_where_reflections_reach_the_atoms(n_c):
    # inside the window the routes differ by the Volterra scheme's own
    # error; within 15 time units past it the reflected radiation shows
    psi0 = initial_state("atom1")
    t_free = reflection_free_time(FIG3, n_c, 0.02)
    grid = TimeGrid(t_max=t_free + 15.0, dt=0.02)
    basis = lattice_eigenbasis(FIG3, n_c)
    with pytest.warns(UserWarning, match="wavefront"):
        exact, _ = exact_propagate(FIG3, psi0, grid, basis)
    volterra = solve_volterra(FIG3, psi0, grid)
    diff = np.maximum(np.abs(volterra.pop_1 - exact.pop_1), np.abs(volterra.pop_2 - exact.pop_2))
    n = grid.node(t_free)
    assert diff[:n + 1].max() <= 4e-6
    assert diff[n + 1:].max() > 1e-4
    # a horizon inside the window raises no warning
    exact_propagate(FIG3, psi0, TimeGrid(t_max=t_free, dt=0.02), basis)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=4, max_size=4), st.integers(0, 200),
       st.floats(0.0, 0.5), st.floats(0.0, 0.5), st.tuples(*[st.floats(-2.0, 2.0)] * 3),
       st.floats(0.5, 2.0), st.sampled_from(["atom1", "atom2", "symmetric", "photon"]),
       st.lists(st.integers(0, 600), max_size=5))
def test_exact_propagate_is_unitary_on_random_geometries(legs, extra, g_1, g_2, omegas, xi,
                                                         state, stops):
    n_1, n_2, m_1, m_2 = legs
    assume(n_1 != n_2 and m_1 != m_2)
    omega_c, omega_1, omega_2 = omegas
    cfg = SystemConfig(n_1=n_1, n_2=n_2, m_1=m_1, m_2=m_2, omega_c=omega_c, xi=xi,
                       omega_1=omega_1, omega_2=omega_2, g_1=g_1, g_2=g_2)
    n_c = min(300, cfg.span + spectrum.LATTICE_MARGIN + extra)
    if state == "photon":  # part of the excitation on a leg site
        psi0 = WavefunctionState(0.6 + 0.0j, 0.0j, {n_2: 0.8j})
    else:
        psi0 = initial_state(state)
    grid = TimeGrid(t_max=30.0, dt=0.05)
    basis = eigendecompose(build_hamiltonian(cfg, n_c))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # below the wavefront size
        traj, snaps = exact_propagate(cfg, psi0, grid, basis,
                                      snapshot_times=tuple(n * grid.dt for n in stops))
    assert len(snaps) == len(stops)
    for snap in snaps:
        n = grid.node(snap.time)
        total = (abs(traj.alpha_1[n]) ** 2 + abs(traj.alpha_2[n]) ** 2
                 + snap.probabilities.sum())
        assert abs(total - 1.0) <= 1e-10


def _max_amp_diff(traj, ref):
    return max(np.abs(traj.alpha_1 - ref.alpha_1).max(),
               np.abs(traj.alpha_2 - ref.alpha_2).max())


def _propagate_quietly(cfg, psi0, grid, basis):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj, _ = exact_propagate(cfg, psi0, grid, basis)
    return traj


@pytest.fixture(scope="module")
def fig3_small_basis():
    return eigendecompose(build_hamiltonian(FIG3, 120))


# 33^2 and its neighbours, the square and non-square node counts around
# B = ceil(sqrt(T)), a prime, and the two smallest grids
@pytest.mark.parametrize("nodes", [2, 3, 1024, 1025, 1089, 1031])
def test_exact_propagate_matches_direct_on_any_node_count(nodes, fig3_small_basis):
    grid = TimeGrid(t_max=(nodes - 1) * 0.05, dt=0.05)
    assert grid.times().size == nodes
    psi0 = initial_state("atom1")
    traj = _propagate_quietly(FIG3, psi0, grid, fig3_small_basis)
    ref = exact_propagate_direct(FIG3, psi0, grid, fig3_small_basis)
    assert traj.alpha_1.shape == traj.alpha_2.shape == (nodes,)
    assert _max_amp_diff(traj, ref) <= 1e-12


def test_exact_propagate_matches_direct_on_fig3_preset():
    grid = TimeGrid(t_max=700.0, dt=0.02)
    psi0 = initial_state("atom1")
    basis = eigendecompose(build_hamiltonian(FIG3, 600))
    traj = _propagate_quietly(FIG3, psi0, grid, basis)
    ref = exact_propagate_direct(FIG3, psi0, grid, basis)
    assert _max_amp_diff(traj, ref) <= 1e-12


@pytest.mark.parametrize("cfg,psi0", [
    # shared leg: both atoms couple to site 7
    (SystemConfig(n_1=1, n_2=7, m_1=7, m_2=13), WavefunctionState(1.0 + 0.0j, 0.0j)),
    (SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_1=0.13, g_2=0.07, omega_1=0.05, omega_2=-0.02),
     WavefunctionState(0.0j, 1.0 + 0.0j)),
    # photon amplitudes in the initial state, inside and outside the legs
    (FIG3, WavefunctionState(0.6 + 0.0j, 0.0j, {4: 0.48j, -3: 0.64 + 0.0j})),
], ids=["shared_leg", "asymmetric_atom2", "photon_beta"])
def test_exact_propagate_matches_direct_on_geometries(cfg, psi0):
    grid = TimeGrid(t_max=150.0, dt=0.02)
    basis = eigendecompose(build_hamiltonian(cfg, 150))
    traj = _propagate_quietly(cfg, psi0, grid, basis)
    ref = exact_propagate_direct(cfg, psi0, grid, basis)
    assert _max_amp_diff(traj, ref) <= 1e-12


def test_exact_propagate_scratch_memory_is_small():
    grid = TimeGrid(t_max=20000 * 0.03, dt=0.03)
    assert grid.times().size == 20001
    psi0 = initial_state("atom1")
    basis = eigendecompose(build_hamiltonian(FIG3, 600))
    assert traced_peak(_propagate_quietly, FIG3, psi0, grid, basis) < 32 * 2 ** 20


def test_exact_propagate_makes_no_basis_copy():
    # n = 602: one n x n float array is 2.9 MB, so a rebuilt Hamiltonian,
    # a copied basis and its complex upcast would add about 11.6 MB
    grid = TimeGrid(t_max=20000 * 0.03, dt=0.03)
    assert grid.times().size == 20001
    psi0 = initial_state("atom1")
    basis = eigendecompose(build_hamiltonian(FIG3, 600))
    stops = tuple(f * grid.t_end for f in (0.0, 0.25, 0.5, 0.75, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        peak = traced_peak(exact_propagate, FIG3, psi0, grid, basis, snapshot_times=stops)
    assert peak < 10 * 2 ** 20


@pytest.fixture(scope="module")
def fig4_basis():
    return lattice_eigenbasis(FIG4, 1400)


def test_exact_propagate_reads_only_the_atom_rows_without_snapshots(fig4_basis):
    # with no snapshot and no photon site in psi0, rows A1 and A2 of the
    # basis are all it needs: no column is rebuilt, and the amplitudes are
    # those of the column path bit for bit
    calls = []
    def columns(lo, hi):
        calls.append((lo, hi))
        return fig4_basis.columns(lo, hi)
    counted = dataclasses.replace(fig4_basis, columns=columns)
    grid = TimeGrid(t_max=40.0, dt=0.02)
    psi0 = initial_state("symmetric")
    fast, _ = exact_propagate(FIG4, psi0, grid, counted)
    assert calls == []
    slow, _ = exact_propagate(FIG4, psi0, grid, counted, snapshot_times=(grid.t_end,))
    assert calls
    assert np.array_equal(fast.alpha_1, slow.alpha_1)
    assert np.array_equal(fast.alpha_2, slow.alpha_2)


def test_exact_propagate_scratch_does_not_grow_with_the_states(fig4_basis):
    # fig4: n = 1402 states, 30 001 nodes; phase tables for all states at
    # once would be about 16 MB, blocks of 128 states about 1 MB
    scn = load_scenario("fig4")
    assert (scn.n_c, scn.grid.times().size) == (1400, 30001)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            traj, snaps = exact_propagate(FIG4, initial_state("atom1"), scn.grid, fig4_basis,
                                          snapshot_times=scn.snapshot_times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = traj.alpha_1.nbytes + traj.alpha_2.nbytes + sum(s.beta.nbytes for s in snaps)
    assert len(snaps) == len(scn.snapshot_times) > 0
    assert peak - kept <= 4 * 2 ** 20


@pytest.mark.parametrize("nodes", [2, 1031, 30001])
def test_exact_propagate_blocks_equal_the_one_product(nodes, fig4_basis):
    grid = TimeGrid(t_max=(nodes - 1) * 0.02, dt=0.02)
    psi0 = WavefunctionState(0.6 + 0.0j, 0.0j, {4: 0.48j, -3: 0.64 + 0.0j})
    traj = _propagate_quietly(FIG4, psi0, grid, fig4_basis)
    ref = exact_propagate_one_product(psi0, grid, fig4_basis)
    assert _max_amp_diff(traj, ref) <= 1e-14


def test_eigenbasis_rejects_mismatched_arrays():
    basis = eigendecompose(build_hamiltonian(FIG3, 200))
    with pytest.raises(ValueError, match=r"atoms must be 2x202 for 202 energies, "
                                         r"got shape \(2, 201\)"):
        dataclasses.replace(basis, atoms=basis.atoms[:, :-1])
    with pytest.raises(ValueError, match=r"weights must be 3x202 .* got shape \(3, 201\)"):
        dataclasses.replace(basis, weights=basis.weights[:, 1:])
    with pytest.raises(ValueError, match=r"sites must have 200 entries for 202 energies, got 199"):
        dataclasses.replace(basis, sites=basis.sites[1:])
    with pytest.raises(ValueError, match=r"cluster starts must run from 0 to 202"):
        dataclasses.replace(basis, starts=basis.starts[:-1])


def test_exact_propagate_rejects_a_photon_site_off_the_lattice():
    basis = eigendecompose(build_hamiltonian(FIG3, 200))
    grid = TimeGrid(t_max=1.0, dt=0.05)
    last = int(basis.sites[-1])
    exact_propagate(FIG3, WavefunctionState(0.0j, 0.0j, {last: 1.0 + 0.0j}), grid, basis)
    for site in (int(basis.sites[0]) - 1, last + 1):
        with pytest.raises(ValueError, match=f"site {site} lies outside the lattice"):
            exact_propagate(FIG3, WavefunctionState(0.0j, 0.0j, {site: 1.0 + 0.0j}), grid, basis)


def test_exact_propagate_snapshots_match_dense_spectral_sum():
    # the real snapshot product against psi(t) = V diag(e^{-iEt}) V^T psi0
    n_c = 150
    psi0 = WavefunctionState(0.6 + 0.0j, 0.0j, {4: 0.48j, -3: 0.64 + 0.0j})
    ham = build_hamiltonian(FIG3, n_c)
    basis = eigendecompose(ham)
    grid = TimeGrid(t_max=30.0, dt=0.05)
    stops = (0.0, 7.5, 30.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, snaps = exact_propagate(FIG3, psi0, grid, basis, snapshot_times=stops)
    energies, vectors = basis.energies, basis_matrix(basis)
    vec0 = np.zeros(n_c + 2, dtype=complex)
    vec0[:2] = psi0.alpha_1, psi0.alpha_2
    for site, amp in psi0.beta.items():
        vec0[2 + site - ham.sites[0]] = amp
    assert [s.time for s in snaps] == list(stops)
    for snap in snaps:
        psi = vectors @ (np.exp(-1j * energies * snap.time) * (vectors.T @ vec0))
        assert np.array_equal(snap.sites, ham.sites)
        assert np.abs(snap.beta - psi[2:]).max() <= 1e-13


def _dense_residual(h, energies, vectors):
    return np.abs(h @ vectors - vectors * energies).max()


@pytest.mark.parametrize("cfg,n_c", [(FIG3, 600), (FIG4, 1400)], ids=["fig3", "fig4"])
def test_structured_residual_equals_dense(cfg, n_c):
    ham = build_hamiltonian(cfg, n_c)
    h = ham.matrix
    energies, vectors = np.linalg.eigh(h)
    h_norm = np.abs(h).sum(axis=1).max()
    res = spectrum._residual(cfg, ham.sites, energies, vectors)[0]
    assert abs(res - _dense_residual(h, energies, vectors)) <= 1e-14 * h_norm
    # away from an eigenbasis the residual is O(1): every term must be there
    rng = np.random.default_rng(3)
    vectors = rng.standard_normal(h.shape)
    energies = rng.uniform(-2.0, 2.0, h.shape[0])
    dense = _dense_residual(h, energies, vectors)
    res, squares, quotients = spectrum._residual(cfg, ham.sites, energies, vectors)
    assert res == pytest.approx(dense, rel=1e-14)
    # the residual 2-norms of the orthonormality bound and the Rayleigh quotients
    rows = h @ vectors - vectors * energies
    assert squares == pytest.approx((rows ** 2).sum(axis=0), rel=1e-12)
    assert quotients == pytest.approx((vectors * rows).sum(axis=0), rel=1e-9, abs=1e-9)


def test_residual_check_rejects_perturbed_eigenvector(monkeypatch):
    ham = build_hamiltonian(FIG3, 120)
    eigh = np.linalg.eigh

    def rotated(h):
        energies, vectors = eigh(h)
        # rotate the lowest and highest eigenvectors into each other: the
        # basis stays orthonormal, but neither column is an eigenvector
        c, s = math.cos(1e-4), math.sin(1e-4)
        lo, hi = vectors[:, 0].copy(), vectors[:, -1].copy()
        vectors[:, 0] = c * lo + s * hi
        vectors[:, -1] = c * hi - s * lo
        return energies, vectors

    monkeypatch.setattr(np.linalg, "eigh", rotated)
    with pytest.raises(RuntimeError, match="out of tolerance") as exc:
        eigendecompose(ham)
    residual, ortho = (float(x) for x in
                       re.search(r"residual=(\S+) .*orthonormality=(\S+)", str(exc.value)).groups())
    assert residual > 1e-6 and ortho <= 1e-8


def test_lattice_cap_rejected_before_allocation(monkeypatch):
    monkeypatch.setattr(np, "zeros", None)  # the matrix allocation must not be reached
    with pytest.raises(ConfigError, match=r"lattice too large: n_c=8001 .*8003x8003"):
        build_hamiltonian(FIG3, spectrum.MAX_LATTICE_SITES + 1)
    spectrum.check_lattice_size(FIG3, spectrum.MAX_LATTICE_SITES)


def test_orthonormality_check_rejects_scaled_eigenvector(monkeypatch):
    ham = build_hamiltonian(FIG3, 120)
    eigh = np.linalg.eigh

    def scaled(h):
        energies, vectors = eigh(h)
        vectors[:, 7] *= 1.0 + 1e-6  # still an eigenvector, no longer unit
        return energies, vectors

    monkeypatch.setattr(np.linalg, "eigh", scaled)
    with pytest.raises(RuntimeError, match="out of tolerance") as exc:
        eigendecompose(ham)
    residual, ortho = (float(x) for x in
                       re.search(r"residual=(\S+) .*orthonormality=(\S+)", str(exc.value)).groups())
    assert residual <= 1e-12 and ortho == pytest.approx(2e-6, rel=1e-3)


def _dense_orthonormality(vectors):
    return np.abs(vectors.T @ vectors - np.eye(vectors.shape[1])).max()


def test_blocked_orthonormality_equals_dense():
    _, vectors = np.linalg.eigh(build_hamiltonian(FIG3, 600).matrix)
    dense = _dense_orthonormality(vectors)
    assert abs(_orthonormality(vectors) - dense) <= 1e-15
    # off an orthonormal basis: the largest entry sits far off the diagonal,
    # in the last column block, and must still be found
    vectors[:, 5] += 1e-3 * vectors[:, -2]
    dense = _dense_orthonormality(vectors)
    assert dense == pytest.approx(1e-3, rel=1e-9)
    assert abs(_orthonormality(vectors) - dense) <= 1e-15


def test_only_bound_state_profiles_keep_photon_probabilities(fig3_classified):
    classified, _ = fig3_classified
    assert set(classified.labels.tolist()) == {"BIC", "extended"}
    assert list(classified.photon) == _bics(classified).tolist()
    for q, photon in classified.photon.items():
        amp_1, amp_2 = classified.atoms[:, q]
        assert photon.shape == (600,)
        assert photon.sum() == pytest.approx(1.0 - amp_1 ** 2 - amp_2 ** 2, abs=1e-12)


# ---- the structured eigensolver against the dense oracle ----

def _assert_matches_dense(cfg, n_c):
    """``lattice_eigenbasis`` against ``eigendecompose(build_hamiltonian)``:
    energies to 1e-12 xi, and the atomic weights |A_i|^2 of each state and
    the projector of each cluster (energies closer than DEGENERACY_TOL xi)
    to 1e-12.  A state or cluster close to its neighbours is resolved by
    neither solver to that: by the Davis-Kahan theorem each solver's
    projector is within its residual 2-norm over the gap of the exact one.
    There the tolerance is that measured bound, the sum of both solvers'
    residuals over the gap, where it exceeds 1e-12."""
    ham = build_hamiltonian(cfg, n_c)
    basis = lattice_eigenbasis(cfg, n_c)
    dense = eigendecompose(ham)
    assert np.array_equal(basis.sites, dense.sites)
    assert np.abs(basis.energies - dense.energies).max() <= 1e-12 * cfg.xi
    vectors = [basis_matrix(b) for b in (basis, dense)]
    residuals = [np.linalg.norm(ham.matrix @ v - v * b.energies, axis=0)
                 for b, v in zip((basis, dense), vectors)]
    energies = dense.energies
    close = np.diff(energies) < spectrum.DEGENERACY_TOL * cfg.xi
    first = 0
    while first < energies.size:
        last = first
        while last + 1 < energies.size and close[last]:
            last += 1
        gap = min(energies[first] - energies[first - 1] if first else np.inf,
                  energies[last + 1] - energies[last] if last + 1 < energies.size else np.inf)
        bound = sum(np.linalg.norm(r[first:last + 1]) for r in residuals) / gap
        tol = max(1e-12, bound)
        mine = vectors[0][:, first:last + 1]
        ref = vectors[1][:, first:last + 1]
        if last > first:
            assert np.abs(mine @ mine.T - ref @ ref.T).max() <= tol
        else:
            assert np.abs(mine[:2, 0] ** 2 - ref[:2, 0] ** 2).max() <= tol
        first = last + 1


@st.composite
def _lattices(draw):
    legs = draw(st.lists(st.integers(-30, 30), min_size=4, max_size=4)
                .filter(lambda legs: legs[0] != legs[1] and legs[2] != legs[3]))
    omega_c = draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))
    xi = draw(st.one_of(st.just(1.0), st.floats(0.5, 2.0)))
    detunings = [draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0))) for _ in range(2)]
    couplings = [draw(st.floats(0.0, 1.0)) for _ in range(2)]
    cfg = SystemConfig(*legs, omega_c=omega_c, xi=xi, omega_1=omega_c + detunings[0],
                       omega_2=omega_c + detunings[1], g_1=couplings[0], g_2=couplings[1])
    return cfg, draw(st.integers(cfg.span + spectrum.LATTICE_MARGIN, 800))


# geometries where earlier structured solvers missed 1e-12: a coincidence
# with a tail eigenvalue, strong coupling, detuned atoms, weak coupling
@example(lattice=(SystemConfig(n_1=-13, n_2=-7, m_1=-5, m_2=14, g_1=1.0,
                               g_2=0.29234975662829726), 735))
@example(lattice=(SystemConfig(n_1=2, n_2=13, m_1=-30, m_2=-2, g_1=1.0, g_2=1.0), 163))
@example(lattice=(SystemConfig(n_1=-2, n_2=1, m_1=-11, m_2=-9, omega_1=0.07577651794794793,
                               omega_2=-0.9815797352770761, g_1=1.0,
                               g_2=0.28506992790832225), 211))
@example(lattice=(SystemConfig(n_1=7, n_2=25, m_1=-8, m_2=11, g_1=0.05, g_2=0.05), 539))
@example(lattice=(FIG3, 600))
# a leg span in the hundreds, and a leg shared by both atoms next to an
# adjacent one (three distinct leg sites)
@example(lattice=(SystemConfig(n_1=1, n_2=301, m_1=80, m_2=200), 400))
@example(lattice=(SystemConfig(n_1=0, n_2=1, m_1=1, m_2=250, g_1=0.7, g_2=0.4,
                               omega_2=0.3), 331))
# a decoupled atom exactly at the band top, the Gershgorin bound
@example(lattice=(SystemConfig(n_1=0, n_2=1, m_1=0, m_2=1, omega_c=0.0, xi=0.5, omega_1=0.0,
                               omega_2=1.0, g_1=0.0, g_2=0.0), 41))
@settings(max_examples=30, deadline=None)
@given(_lattices())
def test_structured_eigenbasis_matches_dense(lattice):
    _assert_matches_dense(*lattice)


@pytest.mark.parametrize("cfg", [FIG3, FIG4, SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10,
                                                          g_1=0.0, g_2=0.0)],
                         ids=["fig3", "fig4", "decoupled"])
@pytest.mark.parametrize("n_c", [120, 121])
def test_structured_eigenbasis_matches_dense_on_both_parities(cfg, n_c):
    _assert_matches_dense(cfg, n_c)


@pytest.mark.parametrize("n_c", [41, 42])
def test_structured_eigenbasis_of_decoupled_atoms_with_a_rounded_band_edge(n_c):
    # (band_top - omega_c) / (2 xi) and (omega_c - band_bottom) / (2 xi)
    # round below 1 here; the outermost brackets must still open
    cfg = SystemConfig(n_1=0, n_2=1, m_1=0, m_2=1, omega_c=0.7007099289601046,
                       xi=1.9679684691247359, g_1=0.0, g_2=0.0)
    assert (cfg.band_top - cfg.omega_c) / (2.0 * cfg.xi) < 1.0
    _assert_matches_dense(cfg, n_c)
    assert lattice_eigenbasis(cfg, n_c).report.count_steps <= 30
    # atom 2 exactly at the band top: E(u) is flat to rounding within about
    # 2e-8 of u = pi, where stepping in u took 104 (n_c = 41) and 85 steps
    top = SystemConfig(n_1=0, n_2=1, m_1=0, m_2=1, xi=0.5, omega_2=1.0, g_1=0.0, g_2=0.0)
    assert top.band_top == top.omega_2
    _assert_matches_dense(top, n_c)
    assert lattice_eigenbasis(top, n_c).report.count_steps <= 30


def test_fig4_band_centre_pair_is_one_bic_and_one_extended_state():
    # at n_c = 1400 the BIC at E = omega_c shares its energy (to about 1e-16)
    # with a state of the odd 695-site left tail, whose free chain has a mode
    # at omega_c
    basis = lattice_eigenbasis(FIG4, 1400)
    dense = eigendecompose(build_hamiltonian(FIG4, 1400))
    assert spectrum._tails(FIG4, 1400) == (695, 694)
    pair = np.flatnonzero(np.abs(basis.energies) < 1e-6)
    assert pair.size == 2 and np.ptp(basis.energies[pair]) < 1e-14
    mine = classify_bound_states(basis, FIG4)
    ref = classify_bound_states(dense, FIG4)
    for name, classified in (("structured", mine), ("dense", ref)):
        centre = np.abs(classified.energies) < 1e-6
        assert sorted(classified.labels[centre].tolist()) == ["BIC", "extended"], name
    assert len(_bics(mine)) == len(_bics(ref)) == 1
    mine_amps, ref_amps = mine.atoms[:, _bics(mine)[0]], ref.atoms[:, _bics(ref)[0]]
    for a, b in zip(mine_amps, ref_amps):
        assert abs(a * a - b * b) <= 1e-12
    assert mine_amps[0] ** 2 == pytest.approx(0.495050, abs=1e-6)
    assert mine_amps[1] ** 2 == pytest.approx(0.495050, abs=1e-6)


def _assert_classified_like_the_loop(basis, cfg):
    mine = classify_bound_states(basis, cfg)
    ref = classify_bound_states_loop(basis, cfg)
    for name in ("energies", "labels", "ipr", "atoms"):
        assert np.array_equal(getattr(mine, name), getattr(ref, name)), name
    assert list(mine.photon) == list(ref.photon)
    for q, photon in mine.photon.items():
        assert np.array_equal(photon, ref.photon[q])


@pytest.mark.parametrize("name", ["fig3", "fig4"])
def test_classification_equals_the_per_state_loop_on_the_presets(name):
    scn = load_scenario(name)
    _assert_classified_like_the_loop(lattice_eigenbasis(scn.cfg, scn.n_c), scn.cfg)


@st.composite
def _degenerate_lattices(draw):
    """A lattice with atom 2 decoupled and tuned onto another eigenvalue, so
    its bare state and a lattice state form a degenerate cluster."""
    cfg, n_c = draw(_lattices())
    cfg = dataclasses.replace(cfg, g_2=0.0)
    energies = lattice_eigenbasis(cfg, n_c).energies
    target = float(energies[draw(st.integers(0, energies.size - 1))])
    assume(abs(target - cfg.omega_2) > 1e-3 * cfg.xi)
    return dataclasses.replace(cfg, omega_2=target), n_c


@example(lattice=(SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_1=0.0, g_2=0.0), 121))
@settings(max_examples=15, deadline=None)
@given(_degenerate_lattices())
def test_classification_equals_the_per_state_loop_on_degenerate_clusters(lattice):
    cfg, n_c = lattice
    basis = lattice_eigenbasis(cfg, n_c)
    assert np.any(np.diff(basis.energies) < spectrum.DEGENERACY_TOL * cfg.xi)
    _assert_classified_like_the_loop(basis, cfg)


def test_structured_eigenbasis_reports_its_checks():
    basis = lattice_eigenbasis(FIG3, 200)
    report = basis.report
    # four distinct leg sites: 4 + 3 unknowns, whatever the span
    assert report.leg_system_dim == 7 and report.count_steps > 0
    long_span = SystemConfig(n_1=1, n_2=301, m_1=80, m_2=200)
    assert lattice_eigenbasis(long_span, 400).report.leg_system_dim == 7
    # the largest row sum of H: a leg site, with its two hops and one coupling
    assert report.h_norm == pytest.approx(2.0 * FIG3.xi + FIG3.g_1)
    vectors = basis_matrix(basis)
    assert report.residual == spectrum._residual(FIG3, basis.sites, basis.energies, vectors)[0]
    # an upper bound on the largest entry of V^T V - I
    assert report.orthonormality >= _orthonormality(vectors)
    assert report.residual <= spectrum.RESIDUAL_TOL * report.h_norm
    assert report.orthonormality <= spectrum.ORTHONORMALITY_TOL
    assert eigendecompose(build_hamiltonian(FIG3, 200)).report is None


def _failing_residual(real):
    return lambda *args: (1.0, *real(*args)[1:])


# "_residual" makes every block's residual 1; "_orthonormality" makes every
# overlap the bound takes directly 1
@pytest.mark.parametrize("check,target,fake", [
    ("_residual", "_residual", lambda: _failing_residual(spectrum._residual)),
    ("_orthonormality", "_largest_overlap", lambda: lambda *args: 1.0),
], ids=["_residual", "_orthonormality"])
def test_structured_eigenbasis_raises_on_a_failed_check(monkeypatch, check, target, fake):
    monkeypatch.setattr(spectrum, target, fake())
    with pytest.raises(RuntimeError, match="out of tolerance") as exc:
        lattice_eigenbasis(FIG3, 120)
    values = dict(re.findall(r"(residual|orthonormality)=(\S+)", str(exc.value)))
    assert float(values[check.lstrip("_")]) == 1.0


def _injected_build(monkeypatch, change):
    """Make every ``spectrum._build`` of ``lattice_eigenbasis`` pass its
    columns through ``change(out, u)`` before they are checked."""
    build = spectrum._build

    def changed(out, cfg, n_c, u, nulls=None):
        nulls = build(out, cfg, n_c, u, nulls)
        change(out, u)
        return nulls

    monkeypatch.setattr(spectrum, "_build", changed)


def test_structured_eigenbasis_rejects_a_rotated_pair(monkeypatch):
    # the 122 states are one block; its lowest and highest state rotate
    # into each other: still orthonormal, but neither is an eigenvector (the
    # Rayleigh step then rebuilds both at moved phases, where they are not
    # orthonormal either)
    def rotate(out, u):
        if out.shape[1] == 122:
            c, s = math.cos(1e-4), math.sin(1e-4)
            lo, hi = out[:, 0].copy(), out[:, -1].copy()
            out[:, 0], out[:, -1] = c * lo + s * hi, c * hi - s * lo

    _injected_build(monkeypatch, rotate)
    with pytest.raises(SolverError, match="out of tolerance") as exc:
        lattice_eigenbasis(FIG3, 120)
    residual = float(re.search(r"residual=(\S+)", str(exc.value)).group(1))
    assert residual > spectrum.RESIDUAL_TOL * spectrum._h_norm(FIG3)


def test_structured_eigenbasis_rejects_a_scaled_column(monkeypatch):
    target = lattice_eigenbasis(FIG3, 120).energies[7]

    def scale(out, u):  # still an eigenvector, no longer unit
        out[:, np.abs(FIG3.omega_c - 2.0 * FIG3.xi * np.cos(u) - target) < 1e-12] *= 1.0 + 1e-6

    _injected_build(monkeypatch, scale)
    with pytest.raises(SolverError, match="out of tolerance") as exc:
        lattice_eigenbasis(FIG3, 120)
    residual, ortho = (float(x) for x in
                       re.search(r"residual=(\S+) .*orthonormality=(\S+)", str(exc.value)).groups())
    assert residual <= 1e-12 and ortho == pytest.approx(2e-6, rel=1e-3)


# the geometries of ``_lattices`` up to 300 sites, where the O(n^3)
# reference is cheap
@st.composite
def _small_lattices(draw):
    cfg, n_c = draw(_lattices())
    return cfg, min(n_c, 300)


@example(lattice=(FIG3, 600))
@example(lattice=(FIG4, 1400))
@settings(max_examples=25, deadline=None)
@given(_small_lattices())
def test_orthonormality_bound_holds_the_largest_overlap(lattice):
    cfg, n_c = lattice
    basis = lattice_eigenbasis(cfg, n_c)
    assert basis.report.orthonormality >= _orthonormality(basis_matrix(basis))
    if (cfg, n_c) in ((FIG3, 600), (FIG4, 1400)):
        assert basis.report.orthonormality <= spectrum.ORTHONORMALITY_TOL


def _assert_blocks_equal_one_shot(basis):
    n = basis.energies.size
    whole = basis.columns(0, n)
    for size in (1, 7, 128, n):
        for lo, hi in basis.blocks(size):
            assert hi - lo <= size or np.searchsorted(basis.starts, lo) + 1 == np.searchsorted(
                basis.starts, hi)  # longer only where one cluster is
            assert np.array_equal(basis.columns(lo, hi), whole[:, lo:hi]), (size, lo, hi)
    # a single column inside a cluster is sliced from the whole cluster
    for q in range(0, n, 97):
        assert np.array_equal(basis.columns(q, q + 1), whole[:, q:q + 1])


@settings(max_examples=10, deadline=None)
@given(_lattices())
def test_blocks_of_any_size_rebuild_the_one_shot_columns(lattice):
    _assert_blocks_equal_one_shot(lattice_eigenbasis(*lattice))


@example(lattice=(SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_1=0.0, g_2=0.0), 121))
@settings(max_examples=8, deadline=None)
@given(_degenerate_lattices())
def test_blocks_of_degenerate_clusters_rebuild_the_one_shot_columns(lattice):
    basis = lattice_eigenbasis(*lattice)
    assert np.any(np.diff(basis.starts) > 1)
    _assert_blocks_equal_one_shot(basis)


def _lattice_route(cfg, n_c):
    scn = load_scenario("fig4")
    basis = lattice_eigenbasis(cfg, n_c)
    classify_bound_states(basis, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        exact_propagate(cfg, initial_state("atom1"), scn.grid, basis,
                        snapshot_times=scn.snapshot_times)


def test_lattice_route_memory_is_linear_in_the_sites():
    # fig4's route at n_c = 1400 held the 15.0 MiB eigenvector array; the
    # blocked route holds a few blocks of 128 columns
    small = traced_peak(_lattice_route, FIG4, 1400)
    assert small < 8 * 2 ** 20
    assert traced_peak(_lattice_route, FIG4, 2900) < 2.5 * 8 * 2 ** 20
