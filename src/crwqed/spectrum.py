"""Finite-lattice spectrum: exact diagonalization, bound-state
classification, and spectral time propagation.

A chain of ``n_c`` resonators with open boundaries hosts the two atoms near
its center.  The single-excitation Hamiltonian is a dense real symmetric
matrix over the basis (atom1, atom2, site 1..n_c); its eigenstates separate
into extended band states, bound states outside the continuum (BOC), and --
for the right leg geometries -- bound states in the continuum (BIC).  The
classifier here is the numerical oracle the closed-form bound-state solver
is checked against, and spectral propagation exp(-iHt) is the oracle for
the memory-kernel dynamics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    AtomTrajectory,
    ConfigError,
    FieldSnapshot,
    SystemConfig,
    TimeGrid,
    WavefunctionState,
    validate_config,
)

# Margin of resonators required around the outermost legs.
LATTICE_MARGIN = 40
# Eigenstates closer in energy than this are treated as one degenerate
# cluster and rotated to a maximally-localized basis before classification.
DEGENERACY_TOL = 1e-6
# A bound state must hold at least this fraction of its weight on the atoms
# plus the sites within +-5 of the leg span.
WINDOW_MIN_WEIGHT = 0.5
WINDOW_PAD = 5
# States within this distance of a band edge are never labelled BIC
# (slow-light artifacts).
BAND_EDGE_GUARD = 1e-3
# Pure atomic states of a decoupled atom carry no photon weight and are not
# bound states of the coupled problem.
MIN_PHOTON_WEIGHT = 1e-12

DEFAULT_IPR_THRESHOLD = 0.02


@dataclass(frozen=True)
class LatticeHamiltonian:
    """Dense Hermitian single-excitation Hamiltonian on a finite chain.

    Basis ordering: row 0 = atom 1, row 1 = atom 2, rows 2.. = resonators.
    ``site_offset`` maps an absolute site index s to column 2 + site_offset + s.
    """

    matrix: np.ndarray
    n_c: int
    site_offset: int
    cfg: SystemConfig

    def column_of(self, site: int) -> int:
        col = 2 + self.site_offset + site
        if col < 2 or col >= self.n_c + 2:
            raise ValueError(f"site {site} lies outside the lattice")
        return col

    def site_of(self, column: int) -> int:
        return column - 2 - self.site_offset

    @property
    def sites(self) -> np.ndarray:
        """Absolute site indices of the chain columns, in column order."""
        return np.arange(self.n_c) - self.site_offset


def site_offset(cfg: SystemConfig, n_c: int) -> int:
    """Centering rule: place the leg span symmetrically in the chain."""
    span = cfg.m_2 - cfg.n_1
    return (n_c - span) // 2 - cfg.n_1


def check_lattice_size(cfg: SystemConfig, n_c: int) -> None:
    """Raise ConfigError unless an ``n_c``-site lattice holds both atoms
    with ``LATTICE_MARGIN`` resonators to spare."""
    span = cfg.m_2 - cfg.n_1
    if n_c < span + LATTICE_MARGIN:
        raise ConfigError(
            f"lattice too small: n_c={n_c} < leg span {span} + margin {LATTICE_MARGIN}")


def build_hamiltonian(cfg: SystemConfig, n_c: int) -> LatticeHamiltonian:
    """Assemble the (n_c + 2)-dimensional lattice Hamiltonian.

    The resonator block is tridiagonal (diagonal ``omega_c``, off-diagonal
    ``-xi``, open ends); each atom row carries exactly two couplings of
    strength g at its leg columns.

    Raises
    ------
    ConfigError
        If the lattice cannot contain both atoms with margin
        (requires ``n_c >= m_2 - n_1 + 40``).
    """
    cfg = validate_config(cfg)
    check_lattice_size(cfg, n_c)
    off = site_offset(cfg, n_c)
    dim = n_c + 2
    h = np.zeros((dim, dim))
    h[0, 0] = cfg.omega_1
    h[1, 1] = cfg.omega_2
    idx = np.arange(n_c)
    h[2 + idx, 2 + idx] = cfg.omega_c
    h[2 + idx[:-1], 3 + idx[:-1]] = -cfg.xi
    h[3 + idx[:-1], 2 + idx[:-1]] = -cfg.xi
    ham = LatticeHamiltonian(matrix=h, n_c=n_c, site_offset=off, cfg=cfg)
    for row, g, legs in ((0, cfg.g_1, (cfg.n_1, cfg.n_2)), (1, cfg.g_2, (cfg.m_1, cfg.m_2))):
        for leg in legs:
            col = ham.column_of(leg)
            h[row, col] = g
            h[col, row] = g
    return ham


@dataclass(frozen=True)
class EigenPair:
    """One eigenstate: energy and full basis vector (A1, A2, B_1..B_nc)."""

    energy: float
    vector: np.ndarray


def eigendecompose(ham: LatticeHamiltonian) -> list[EigenPair]:
    """Complete orthonormal eigenbasis, energies ascending.

    Checks residuals ||H v - E v|| <= 1e-8 ||H|| and orthonormality
    ||V^T V - I||_max <= 1e-8 before returning.
    """
    h = ham.matrix
    try:
        energies, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on real
        raise RuntimeError(
            f"eigensolver failed on {h.shape[0]}x{h.shape[0]} matrix "
            f"(max|H|={np.abs(h).max():.3e}): {exc}") from exc
    h_norm = np.abs(h).sum(axis=1).max()  # inf-norm upper bound on ||H||_2
    residual = np.abs(h @ vectors - vectors * energies).max()
    ortho = np.abs(vectors.T @ vectors - np.eye(h.shape[0])).max()
    if residual > 1e-8 * h_norm or ortho > 1e-8:
        raise RuntimeError(
            f"eigendecomposition out of tolerance: residual={residual:.3e} "
            f"(||H||~{h_norm:.3e}), orthonormality={ortho:.3e}")
    return [EigenPair(float(energies[q]), vectors[:, q]) for q in range(h.shape[0])]


@dataclass(frozen=True)
class BoundStateProfile:
    """A classified eigenstate: BIC, BOC, or extended."""

    energy: float
    label: str                 # "BIC" | "BOC" | "extended"
    ipr: float
    amp_1: float               # atomic amplitude A1
    amp_2: float
    photon: np.ndarray         # |B_j|^2 per chain column
    ambiguous: bool            # IPR within 20% of the threshold


def photon_profile(pair: EigenPair) -> np.ndarray:
    """Per-site photon probabilities |B_j|^2; they sum to
    1 - |A1|^2 - |A2|^2."""
    return np.abs(pair.vector[2:]) ** 2


def _localized_rotation(cluster: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate a degenerate cluster (columns) to extremal localized weight.

    Returns (weights, rotated columns), weights descending.  Within the
    localized subspace a second rotation diagonalizes the photon weight so
    that a decoupled bare-atom direction separates from a dressed bound
    state sharing its energy.
    """
    w_mat = cluster[mask].T @ cluster[mask]
    w, rot = np.linalg.eigh(w_mat)
    order = np.argsort(w)[::-1]
    w = w[order]
    vecs = cluster @ rot[:, order]
    n_loc = int(np.sum(w >= WINDOW_MIN_WEIGHT))
    if n_loc > 1:
        sub = vecs[:, :n_loc]
        p_mat = sub[2:].T @ sub[2:]
        _, prot = np.linalg.eigh(p_mat)
        sub = sub @ prot[:, ::-1]
        vecs = np.concatenate([sub, vecs[:, n_loc:]], axis=1)
        w = np.concatenate([np.sum(sub[mask] ** 2, axis=0), w[n_loc:]])
    return w, vecs


def classify_bound_states(
    pairs: list[EigenPair],
    cfg: SystemConfig,
    ipr_threshold: float = DEFAULT_IPR_THRESHOLD,
) -> list[BoundStateProfile]:
    """Label every eigenstate as BIC, BOC, or extended.

    A state is a bound-state candidate when its inverse participation ratio
    is at least ``ipr_threshold`` and at least half of its weight sits on
    the atoms plus the sites within ``[n_1 - 5, m_2 + 5]``; candidates
    inside the open band are BICs, outside it BOCs.  Nearly degenerate
    states (within 1e-6 xi) are first rotated to a maximally-localized
    basis, which untangles bound states from accidentally degenerate band
    states; the returned profiles are that rotated basis.  States with
    essentially no photon weight (a decoupled atom) and states within
    1e-3 xi of a band edge are never bound states.
    """
    cfg = validate_config(cfg)
    if not pairs:
        return []
    dim = pairs[0].vector.shape[0]
    n_c = dim - 2
    off = site_offset(cfg, n_c)
    energies = np.array([p.energy for p in pairs])
    vectors = np.stack([p.vector for p in pairs], axis=1)

    mask = np.zeros(dim, dtype=bool)
    mask[0] = mask[1] = True
    lo = max(2, 2 + off + cfg.n_1 - WINDOW_PAD)
    hi = min(dim - 1, 2 + off + cfg.m_2 + WINDOW_PAD)
    mask[lo:hi + 1] = True

    profiles: list[BoundStateProfile] = []
    i = 0
    while i < len(energies):
        j = i
        while j + 1 < len(energies) and energies[j + 1] - energies[j] < DEGENERACY_TOL * cfg.xi:
            j += 1
        cluster = vectors[:, i:j + 1]
        if j > i:
            weights, vecs = _localized_rotation(cluster, mask)
        else:
            vecs = cluster
            weights = np.array([float(np.sum(cluster[mask, 0] ** 2))])
        for c in range(vecs.shape[1]):
            v = vecs[:, c]
            e = float(energies[i + c]) if j == i else float(np.mean(energies[i:j + 1]))
            prob = v ** 2
            ipr = float(np.sum(prob ** 2))
            photon_weight = float(np.sum(prob[2:]))
            in_band = cfg.band_bottom < e < cfg.band_top
            near_edge = (abs(e - cfg.band_bottom) < BAND_EDGE_GUARD * cfg.xi
                         or abs(e - cfg.band_top) < BAND_EDGE_GUARD * cfg.xi)
            localized = (ipr >= ipr_threshold
                         and weights[c] >= WINDOW_MIN_WEIGHT
                         and photon_weight >= MIN_PHOTON_WEIGHT)
            if localized and in_band and not near_edge:
                label = "BIC"
            elif localized and not in_band:
                label = "BOC"
            else:
                label = "extended"
            profiles.append(BoundStateProfile(
                energy=e, label=label, ipr=ipr,
                amp_1=float(v[0]), amp_2=float(v[1]),
                photon=prob[2:],
                ambiguous=0.8 * ipr_threshold <= ipr <= 1.2 * ipr_threshold,
            ))
        i = j + 1
    return profiles


def bound_states(profiles: list[BoundStateProfile], label: str = "BIC") -> list[BoundStateProfile]:
    return [p for p in profiles if p.label == label]


def wavefront_n_c(cfg: SystemConfig, t_max: float, margin: int = LATTICE_MARGIN) -> int:
    """Smallest lattice for which radiation (group velocity <= 2 xi) cannot
    reflect off the open ends back into the atom region within t_max."""
    span = cfg.m_2 - cfg.n_1
    return int(np.ceil(span + 2.0 * (2.0 * cfg.xi * t_max))) + margin


def _state_vector(ham: LatticeHamiltonian, psi0: WavefunctionState) -> np.ndarray:
    vec = np.zeros(ham.n_c + 2, dtype=complex)
    vec[0] = psi0.alpha_1
    vec[1] = psi0.alpha_2
    for site, amp in psi0.beta.items():
        vec[ham.column_of(site)] = amp
    return vec


def exact_propagate(
    cfg: SystemConfig,
    psi0: WavefunctionState,
    grid: TimeGrid,
    n_c: int,
    snapshot_times: tuple[float, ...] = (),
    pairs: list[EigenPair] | None = None,
) -> tuple[AtomTrajectory, list[FieldSnapshot]]:
    """Propagate by spectral decomposition: psi(t) = sum_q e^{-iE_q t} <v_q|psi0> v_q.

    Warns (does not fail) when ``n_c`` is below the wavefront criterion for
    the requested horizon, i.e. when emitted radiation can reflect off the
    lattice edges back into the atom region before ``t_max``.  Snapshots of
    the full photon field are returned for the requested times (which must
    lie on the grid).  ``pairs`` may carry a precomputed eigenbasis.
    """
    cfg = validate_config(cfg)
    need = wavefront_n_c(cfg, grid.t_end)
    if n_c < need:
        warnings.warn(
            f"n_c={n_c} is below the wavefront criterion ({need}) for "
            f"t_max={grid.t_end}; edge reflections may contaminate late times",
            stacklevel=2)
    ham = build_hamiltonian(cfg, n_c)
    if pairs is None:
        pairs = eigendecompose(ham)
    energies = np.array([p.energy for p in pairs])
    vectors = np.stack([p.vector for p in pairs], axis=1)

    vec0 = _state_vector(ham, psi0)
    coeff = vectors.T @ vec0
    w1 = vectors[0] * coeff
    w2 = vectors[1] * coeff

    times = grid.times()
    a1 = np.empty(times.size, dtype=complex)
    a2 = np.empty(times.size, dtype=complex)
    block = max(1, int(2e7 // max(1, energies.size)))
    for s in range(0, times.size, block):
        phases = np.exp(-1j * np.outer(times[s:s + block], energies))
        a1[s:s + block] = phases @ w1
        a2[s:s + block] = phases @ w2
    trajectory = AtomTrajectory(grid=grid, alpha_1=a1, alpha_2=a2)

    snapshots = []
    for t in snapshot_times:
        n = grid.node(t)
        psi_t = vectors @ (coeff * np.exp(-1j * energies * times[n]))
        snapshots.append(FieldSnapshot(time=times[n], sites=ham.sites, beta=psi_t[2:]))
    return trajectory, snapshots
