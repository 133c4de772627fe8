import math
import re
import warnings

import numpy as np
import pytest

from crwqed.model import (
    ConfigError,
    SystemConfig,
    TimeGrid,
    WavefunctionState,
    initial_state,
    validate_config,
)
from crwqed import spectrum
from crwqed.spectrum import (
    BoundStateProfile,
    bound_states,
    build_hamiltonian,
    classify_bound_states,
    eigendecompose,
    exact_propagate,
    wavefront_n_c,
)
from oracles import exact_propagate_direct, photon_profile, traced_peak

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
    overlaps = (basis.vectors ** 2).sum(axis=1)
    assert np.allclose(overlaps, 1.0, atol=1e-10)


@pytest.fixture(scope="module")
def fig3_profiles():
    ham = build_hamiltonian(FIG3, 600)
    return classify_bound_states(eigendecompose(ham), FIG3), ham


def test_fig3_two_bics(fig3_profiles):
    profiles, _ = fig3_profiles
    bics = bound_states(profiles)
    assert len(bics) == 2
    energies = sorted(b.energy for b in bics)
    assert energies[0] == pytest.approx(-0.0097, abs=1e-3)
    assert energies[1] == pytest.approx(+0.0097, abs=1e-3)


def test_fig3_bic_profiles_confined(fig3_profiles):
    profiles, ham = fig3_profiles
    sites = ham.sites
    inside = (sites >= FIG3.n_1 - 5) & (sites <= FIG3.m_2 + 5)
    for b in bound_states(profiles):
        # quasi-compact at finite splitting: ~97% of the photon weight on
        # the covered region, the remainder a weak lattice-wide tail
        assert b.photon[inside].sum() >= 0.95 * b.photon.sum()


def test_no_bic_for_size8_odd_offset():
    ham = build_hamiltonian(NO_BIC, 600)
    profiles = classify_bound_states(eigendecompose(ham), NO_BIC)
    assert bound_states(profiles) == []


def test_fig4_single_compact_bic():
    ham = build_hamiltonian(FIG4, 600)
    profiles = classify_bound_states(eigendecompose(ham), FIG4)
    bics = bound_states(profiles)
    assert len(bics) == 1
    b = bics[0]
    assert abs(b.energy) <= 1e-6
    assert abs(b.amp_1) == pytest.approx(abs(b.amp_2), rel=1e-9)
    top = ham.sites[np.argsort(b.photon)[::-1][:2]]
    assert sorted(top.tolist()) == [2, 10]


def test_decoupled_atoms_are_not_bound_states():
    cfg = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_1=0.0, g_2=0.0)
    ham = build_hamiltonian(cfg, 200)
    profiles = classify_bound_states(eigendecompose(ham), cfg)
    assert bound_states(profiles, "BIC") == []
    assert bound_states(profiles, "BOC") == []


@pytest.mark.parametrize("size,expect", [(n, n in (6, 10)) for n in range(3, 13)])
def test_single_atom_bic_needs_matching_size(size, expect):
    # one coupled atom (g_2 = 0): an in-band bound state exists only when
    # the resonant mode interferes away at both legs, size = 6, 10, ...
    cfg = SystemConfig(n_1=1, n_2=1 + size, m_1=30, m_2=40, g_2=0.0)
    ham = build_hamiltonian(cfg, 600)
    profiles = classify_bound_states(eigendecompose(ham), cfg)
    assert (len(bound_states(profiles)) == 1) is expect


def test_extended_states_have_small_ipr():
    cfg = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_1=0.0, g_2=0.0)
    n_c = 400
    ham = build_hamiltonian(cfg, n_c)
    vectors = eigendecompose(ham).vectors
    # plane-wave oracle: open-chain standing waves have IPR ~ 1.5 / n_c
    iprs = [np.sum(photon_profile(v) ** 2) for v in vectors.T
            if abs(v[0]) < 1e-12 and abs(v[1]) < 1e-12]
    assert max(iprs) <= 3.0 / n_c


def test_exact_propagate_decoupled_phase():
    cfg = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_1=0.0, g_2=0.0, omega_1=0.7)
    grid = TimeGrid(t_max=20.0, dt=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj, _ = exact_propagate(cfg, initial_state("atom1", cfg), grid,
                                  eigendecompose(build_hamiltonian(cfg, 120)))
    expected = np.exp(-1j * cfg.omega_1 * grid.times())
    assert np.allclose(traj.alpha_1, expected, atol=1e-10)
    assert np.allclose(traj.pop_1, 1.0, atol=1e-12)


def test_exact_propagate_norm_and_wavefront_warning():
    grid = TimeGrid(t_max=120.0, dt=0.5)
    with pytest.warns(UserWarning, match="wavefront"):
        traj, snaps = exact_propagate(FIG3, initial_state("atom1", FIG3), grid,
                                      eigendecompose(build_hamiltonian(FIG3, 80)),
                                      snapshot_times=(60.0, 120.0))
    for snap in snaps:
        n = grid.node(snap.time)
        total = (abs(traj.alpha_1[n]) ** 2 + abs(traj.alpha_2[n]) ** 2
                 + snap.probabilities.sum())
        assert abs(total - 1.0) <= 1e-10
    assert wavefront_n_c(FIG3, 120.0) > 80


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
    psi0 = initial_state("atom1", FIG3)
    traj = _propagate_quietly(FIG3, psi0, grid, fig3_small_basis)
    ref = exact_propagate_direct(FIG3, psi0, grid, fig3_small_basis)
    assert traj.alpha_1.shape == traj.alpha_2.shape == (nodes,)
    assert _max_amp_diff(traj, ref) <= 1e-12


def test_exact_propagate_matches_direct_on_fig3_preset():
    grid = TimeGrid(t_max=700.0, dt=0.02)
    psi0 = initial_state("atom1", FIG3)
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
    psi0 = initial_state("atom1", FIG3)
    basis = eigendecompose(build_hamiltonian(FIG3, 600))
    assert traced_peak(_propagate_quietly, FIG3, psi0, grid, basis) < 32 * 2 ** 20


def test_exact_propagate_makes_no_basis_copy():
    # n = 602: one n x n float array is 2.9 MB, so a rebuilt Hamiltonian,
    # a copied basis and its complex upcast would add about 11.6 MB
    grid = TimeGrid(t_max=20000 * 0.03, dt=0.03)
    assert grid.times().size == 20001
    psi0 = initial_state("atom1", FIG3)
    basis = eigendecompose(build_hamiltonian(FIG3, 600))
    stops = tuple(f * grid.t_end for f in (0.0, 0.25, 0.5, 0.75, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        peak = traced_peak(exact_propagate, FIG3, psi0, grid, basis, snapshot_times=stops)
    assert peak < 10 * 2 ** 20


def test_eigenbasis_rejects_mismatched_arrays():
    basis = eigendecompose(build_hamiltonian(FIG3, 200))
    with pytest.raises(ValueError, match=r"vectors must be 202x202 for 202 energies, "
                                         r"got shape \(201, 202\)"):
        spectrum.Eigenbasis(basis.energies, basis.vectors[:-1])
    with pytest.raises(ValueError, match=r"must be 201x201 .* got shape \(202, 202\)"):
        spectrum.Eigenbasis(basis.energies[:-1], basis.vectors)


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
    energies, vectors = basis.energies, basis.vectors
    vec0 = np.zeros(n_c + 2, dtype=complex)
    vec0[:2] = psi0.alpha_1, psi0.alpha_2
    for site, amp in psi0.beta.items():
        vec0[ham.column_of(site)] = amp
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
    res = spectrum._residual(ham, energies, vectors)
    assert abs(res - _dense_residual(h, energies, vectors)) <= 1e-14 * h_norm
    # away from an eigenbasis the residual is O(1): every term must be there
    rng = np.random.default_rng(3)
    vectors = rng.standard_normal(h.shape)
    energies = rng.uniform(-2.0, 2.0, h.shape[0])
    dense = _dense_residual(h, energies, vectors)
    assert spectrum._residual(ham, energies, vectors) == pytest.approx(dense, rel=1e-14)


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
    assert abs(spectrum._orthonormality(vectors) - dense) <= 1e-15
    # off an orthonormal basis: the largest entry sits far off the diagonal,
    # in the last column block, and must still be found
    vectors[:, 5] += 1e-3 * vectors[:, -2]
    dense = _dense_orthonormality(vectors)
    assert dense == pytest.approx(1e-3, rel=1e-9)
    assert abs(spectrum._orthonormality(vectors) - dense) <= 1e-15


def test_only_bound_state_profiles_keep_photon_probabilities(fig3_profiles):
    profiles, _ = fig3_profiles
    assert {p.label for p in profiles} == {"BIC", "extended"}
    for p in profiles:
        if p.label == "extended":
            assert p.photon is None
        else:
            assert p.photon.shape == (600,)
            assert p.photon.sum() == pytest.approx(1.0 - p.amp_1 ** 2 - p.amp_2 ** 2, abs=1e-12)
