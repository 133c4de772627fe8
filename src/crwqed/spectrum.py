"""Finite-lattice spectrum: exact diagonalization, bound-state
classification, and spectral time propagation.

A chain of ``n_c`` resonators with open boundaries hosts the two atoms near
its center.  The single-excitation Hamiltonian is a dense real symmetric
matrix over the basis (atom1, atom2, site 1..n_c); its eigenstates separate
into extended band states, bound states outside the continuum (BOC), and --
for the right leg geometries -- bound states in the continuum (BIC).  The
classifier here is the numerical oracle the closed-form bound-state solver
is checked against, and spectral propagation exp(-iHt) is the oracle for
the memory-kernel dynamics.  The lattice is diagonalized once: the
:class:`Eigenbasis` holds the energies and the eigenvector array exactly as
``np.linalg.eigh`` returns them with the chain's absolute site indices,
and classification and propagation read those arrays directly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    AtomTrajectory,
    ConfigError,
    FieldSnapshot,
    SolverError,
    SystemConfig,
    TimeGrid,
    WavefunctionState,
)

# Margin of resonators required around the outermost legs.
LATTICE_MARGIN = 40
# Largest lattice accepted: the dense (n_c + 2)^2 Hamiltonian and its
# eigenbasis take about 0.5 GB each at this size, and ``eigh`` briefly needs
# about as much again in copies and workspace.  No later stage holds another
# n x n array: the pipeline frees the Hamiltonian once it is diagonalized,
# and classification and propagation read the one eigenvector array through
# views and products with thin matrices.
MAX_LATTICE_SITES = 8000
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
# A bound state's inverse participation ratio is at least this.
IPR_THRESHOLD = 0.02


@dataclass(frozen=True)
class LatticeHamiltonian:
    """Dense Hermitian single-excitation Hamiltonian on a finite chain.

    Basis ordering: row 0 = atom 1, row 1 = atom 2, rows 2.. = resonators,
    whose absolute site indices are ``sites``, in column order.
    """

    matrix: np.ndarray
    sites: np.ndarray


def check_lattice_size(cfg: SystemConfig, n_c: int) -> None:
    """Raise ConfigError unless an ``n_c``-site lattice holds both atoms
    with ``LATTICE_MARGIN`` resonators to spare and has at most
    ``MAX_LATTICE_SITES`` sites."""
    span = cfg.span
    if n_c < span + LATTICE_MARGIN:
        raise ConfigError(
            f"lattice too small: n_c={n_c} < leg span {span} + margin {LATTICE_MARGIN}")
    if n_c > MAX_LATTICE_SITES:
        dim = n_c + 2
        raise ConfigError(
            f"lattice too large: n_c={n_c} > {MAX_LATTICE_SITES}; its dense "
            f"{dim}x{dim} Hamiltonian alone takes {dim * dim * 8 / 1e9:.2f} GB")


def build_hamiltonian(cfg: SystemConfig, n_c: int) -> LatticeHamiltonian:
    """Assemble the (n_c + 2)-dimensional lattice Hamiltonian.

    The resonator block is tridiagonal (diagonal ``omega_c``, off-diagonal
    ``-xi``, open ends); each atom row carries exactly two couplings of
    strength g at its leg columns.

    Raises
    ------
    ConfigError
        If the lattice cannot contain both atoms with margin
        (requires ``n_c >= span + 40``, span the distance between the
        outermost legs) or has more than
        ``MAX_LATTICE_SITES`` sites.
    """
    check_lattice_size(cfg, n_c)
    # the leg span sits at the centre of the chain
    sites = np.arange(n_c) + (cfg.outer_legs[0] - (n_c - cfg.span) // 2)
    dim = n_c + 2
    h = np.zeros((dim, dim))
    h[0, 0] = cfg.omega_1
    h[1, 1] = cfg.omega_2
    idx = np.arange(n_c)
    h[2 + idx, 2 + idx] = cfg.omega_c
    h[2 + idx[:-1], 3 + idx[:-1]] = -cfg.xi
    h[3 + idx[:-1], 2 + idx[:-1]] = -cfg.xi
    for row, g, legs in ((0, cfg.g_1, (cfg.n_1, cfg.n_2)), (1, cfg.g_2, (cfg.m_1, cfg.m_2))):
        for leg in legs:
            col = 2 + leg - sites[0]
            h[row, col] = g
            h[col, row] = g
    return LatticeHamiltonian(matrix=h, sites=sites)


@dataclass(frozen=True)
class Eigenbasis:
    """Complete eigenbasis of a lattice Hamiltonian, as ``np.linalg.eigh``
    returns it: column q of ``vectors`` is the basis vector
    (A1, A2, B_1..B_nc) of the eigenstate with energy ``energies[q]``, and
    ``sites`` are the absolute site indices of the rows B_1..B_nc.

    Raises
    ------
    ValueError
        Unless ``vectors`` is square with side ``energies.size`` and
        ``sites`` has ``energies.size - 2`` entries.
    """

    energies: np.ndarray
    vectors: np.ndarray
    sites: np.ndarray

    def __post_init__(self):
        n = self.energies.size
        if self.vectors.shape != (n, n):
            raise ValueError(
                f"vectors must be {n}x{n} for {n} energies, got shape {self.vectors.shape}")
        if len(self.sites) != n - 2:
            raise ValueError(f"sites must have {n - 2} entries for {n} energies, "
                             f"got {len(self.sites)}")


# Rows per block of the structured residual in ``_residual``.
_RESIDUAL_ROWS = 64


def _residual(ham: LatticeHamiltonian, energies: np.ndarray, vectors: np.ndarray) -> float:
    """max |H V - V E| over all entries, from the structure of H: the
    tridiagonal resonator chain plus the two atom rows and columns.

    Each term is formed on blocks of ``_RESIDUAL_ROWS`` rows, so the cost is
    O(n^2) and no n x n temporary is made.
    """
    h = ham.matrix
    dim = h.shape[0]
    diag = np.diag(h)
    hop = np.diag(h, 1)  # hop[i] = H[i, i+1]; only i >= 2 lies in the chain
    # atom rows: every column, so the leg couplings need no bookkeeping
    worst = np.abs(h[:2] @ vectors - vectors[:2] * energies).max()
    for lo in range(2, dim, _RESIDUAL_ROWS):
        hi = min(dim, lo + _RESIDUAL_ROWS)
        block = np.subtract.outer(diag[lo:hi], energies)
        block *= vectors[lo:hi]
        block += h[lo:hi, :2] @ vectors[:2]
        if lo > 2:
            block[0] += hop[lo - 1] * vectors[lo - 1]
        block[1:] += hop[lo:hi - 1, None] * vectors[lo:hi - 1]
        block[:hi - lo - 1] += hop[lo:hi - 1, None] * vectors[lo + 1:hi]
        if hi < dim:
            block[-1] += hop[hi - 1] * vectors[hi]
        worst = max(worst, np.abs(block).max())
    return float(worst)


def _orthonormality(vectors: np.ndarray) -> float:
    """max |V^T V - I| over all entries.

    V^T V is symmetric, so each block of ``_RESIDUAL_ROWS`` columns is
    multiplied only against the columns at or after it: about half the
    flops of the full product, and no n x n temporary.
    """
    dim = vectors.shape[1]
    worst = 0.0
    for lo in range(0, dim, _RESIDUAL_ROWS):
        hi = min(dim, lo + _RESIDUAL_ROWS)
        block = vectors[:, lo:hi].T @ vectors[:, lo:]
        diag = np.arange(hi - lo)
        block[diag, diag] -= 1.0
        worst = max(worst, np.abs(block).max())
    return float(worst)


def eigendecompose(ham: LatticeHamiltonian) -> Eigenbasis:
    """Complete orthonormal eigenbasis, energies ascending.

    Checks residuals ||H v - E v|| <= 1e-8 ||H|| and orthonormality
    ||V^T V - I||_max <= 1e-8 before returning.

    Raises
    ------
    SolverError
        If ``eigh`` fails or its result misses either tolerance.
    """
    h = ham.matrix
    try:
        energies, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"eigensolver failed on {h.shape[0]}x{h.shape[0]} matrix "
            f"(max|H|={np.abs(h).max():.3e}): {exc}") from exc
    h_norm = np.abs(h).sum(axis=1).max()  # inf-norm upper bound on ||H||_2
    residual = _residual(ham, energies, vectors)
    ortho = _orthonormality(vectors)
    if residual > 1e-8 * h_norm or ortho > 1e-8:
        raise SolverError(
            f"eigendecomposition out of tolerance: residual={residual:.3e} "
            f"(||H||~{h_norm:.3e}), orthonormality={ortho:.3e}")
    return Eigenbasis(energies, vectors, ham.sites)


@dataclass(frozen=True)
class BoundStateProfile:
    """A classified eigenstate: BIC, BOC, or extended."""

    energy: float
    label: str                 # "BIC" | "BOC" | "extended"
    ipr: float
    amp_1: float               # atomic amplitude A1
    amp_2: float
    photon: np.ndarray | None  # |B_j|^2 per chain column; BIC and BOC only


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


def classify_bound_states(basis: Eigenbasis, cfg: SystemConfig) -> list[BoundStateProfile]:
    """Label every eigenstate as BIC, BOC, or extended.

    A state is a bound-state candidate when its inverse participation ratio
    is at least ``IPR_THRESHOLD`` and at least half of its weight sits on
    the atoms plus the sites within 5 of the outermost legs; candidates
    inside the open band are BICs, outside it BOCs.  Nearly degenerate
    states (within 1e-6 xi) are first rotated to a maximally-localized
    basis, which untangles bound states from accidentally degenerate band
    states; the returned profiles are that rotated basis.  States with
    essentially no photon weight (a decoupled atom) and states within
    1e-3 xi of a band edge are never bound states.  Each degenerate cluster
    is read as a column slice of ``basis.vectors`` (no copy), and only BIC
    and BOC profiles keep their photon probabilities (``photon`` is None on
    extended states).
    """
    energies, vectors = basis.energies, basis.vectors
    dim = energies.size

    first, last = cfg.outer_legs
    mask = np.ones(dim, dtype=bool)
    mask[2:] = (basis.sites >= first - WINDOW_PAD) & (basis.sites <= last + WINDOW_PAD)

    profiles: list[BoundStateProfile] = []
    i = 0
    while i < dim:
        j = i
        while j + 1 < dim and energies[j + 1] - energies[j] < DEGENERACY_TOL * cfg.xi:
            j += 1
        if j > i:
            weights, vecs = _localized_rotation(vectors[:, i:j + 1], mask)
        else:
            vecs = vectors[:, i:i + 1]
            weights = np.array([float(np.sum(vecs[mask, 0] ** 2))])
        for c in range(vecs.shape[1]):
            v = vecs[:, c]
            e = float(energies[i + c]) if j == i else float(np.mean(energies[i:j + 1]))
            prob = v ** 2
            ipr = float(np.sum(prob ** 2))
            photon_weight = float(np.sum(prob[2:]))
            in_band = cfg.band_bottom < e < cfg.band_top
            near_edge = (abs(e - cfg.band_bottom) < BAND_EDGE_GUARD * cfg.xi
                         or abs(e - cfg.band_top) < BAND_EDGE_GUARD * cfg.xi)
            localized = (ipr >= IPR_THRESHOLD
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
                photon=prob[2:] if label != "extended" else None,
            ))
        i = j + 1
    return profiles


def bound_states(profiles: list[BoundStateProfile], label: str = "BIC") -> list[BoundStateProfile]:
    return [p for p in profiles if p.label == label]


def wavefront_n_c(cfg: SystemConfig, t_max: float) -> int:
    """Smallest lattice for which radiation (group velocity <= 2 xi) cannot
    reflect off the open ends back into the atom region within t_max."""
    return int(np.ceil(cfg.span + 2.0 * (2.0 * cfg.xi * t_max))) + LATTICE_MARGIN


def exact_propagate(
    cfg: SystemConfig,
    psi0: WavefunctionState,
    grid: TimeGrid,
    basis: Eigenbasis,
    snapshot_times: tuple[float, ...] = (),
) -> tuple[AtomTrajectory, list[FieldSnapshot]]:
    """Propagate by spectral decomposition: psi(t) = sum_q e^{-iE_q t} <v_q|psi0> v_q.

    ``basis`` is the eigenbasis of an n_c-site lattice (n = n_c + 2 states).
    The atomic amplitudes use the uniform grid: with B = ceil(sqrt(T)) for
    T nodes, node n = jB + k has t_n = (jB + k) dt, so
    a_i(t_n) = sum_q e^{-iE_q k dt} [w_iq e^{-iE_q jB dt}], w_iq = v_q[i] <v_q|psi0>.
    Both series come from one complex matrix product of a (B x n) inner-phase
    table and an (n x 2 ceil(T/B)) outer-phase table scaled by w_1 and w_2:
    about 2nT complex multiply-adds in a single GEMM and about 2n sqrt(T)
    complex exponentials.  The overlaps <v_q|psi0> come from the basis rows
    psi0 touches and w_1, w_2 from rows 0 and 1; all snapshots come from one
    real product of the eigenvector array with the real and imaginary parts
    of an (n x #snapshots) coefficient table.  Besides the O(T) result and
    the given eigenbasis, the scratch memory is O(n sqrt(T) + n #snapshots):
    no n x n array is made.

    Warns (does not fail) when n_c is below the wavefront criterion for
    the requested horizon, i.e. when emitted radiation can reflect off the
    lattice edges back into the atom region before ``t_max``.  Snapshots of
    the full photon field are returned for the requested times (which must
    lie on the grid).  A photon site of ``psi0`` that is not one of
    ``basis.sites`` raises ValueError.
    """
    energies, vectors = basis.energies, basis.vectors
    n_c = energies.size - 2
    need = wavefront_n_c(cfg, grid.t_end)
    if n_c < need:
        warnings.warn(
            f"n_c={n_c} is below the wavefront criterion ({need}) for "
            f"t_max={grid.t_end}; edge reflections may contaminate late times",
            stacklevel=2)
    coeff = vectors[0] * complex(psi0.alpha_1) + vectors[1] * complex(psi0.alpha_2)
    for site, amp in psi0.beta.items():
        col = np.flatnonzero(basis.sites == site)
        if col.size != 1:
            raise ValueError(f"site {site} lies outside the lattice")
        coeff += vectors[2 + col[0]] * complex(amp)
    w1 = vectors[0] * coeff
    w2 = vectors[1] * coeff

    times = grid.times()
    n_t = times.size
    inner = math.isqrt(n_t - 1) + 1  # ceil(sqrt(T)): nodes per outer step
    n_outer = -(-n_t // inner)
    inner_phase = np.exp(-1j * np.outer(np.arange(inner) * grid.dt, energies))
    outer_phase = np.exp(-1j * np.outer(energies, np.arange(n_outer) * (inner * grid.dt)))
    scaled = np.empty((n_c + 2, 2 * n_outer), dtype=complex)
    np.multiply(outer_phase, w1[:, None], out=scaled[:, :n_outer])
    np.multiply(outer_phase, w2[:, None], out=scaled[:, n_outer:])
    # amps[k, j] = a_1 at node j*inner + k; columns n_outer.. hold a_2
    amps = inner_phase @ scaled
    a1 = amps[:, :n_outer].T.reshape(-1)[:n_t]
    a2 = amps[:, n_outer:].T.reshape(-1)[:n_t]
    trajectory = AtomTrajectory(grid=grid, alpha_1=a1, alpha_2=a2)

    nodes = [grid.node(t) for t in snapshot_times]
    if not nodes:
        return trajectory, []
    n_s = len(nodes)
    table = coeff[:, None] * np.exp(-1j * np.outer(energies, times[nodes]))
    parts = np.concatenate([table.real, table.imag], axis=1)
    psi = vectors @ parts
    beta = psi[2:, :n_s] + 1j * psi[2:, n_s:]
    return trajectory, [FieldSnapshot(time=times[n], sites=basis.sites, beta=beta[:, i])
                        for i, n in enumerate(nodes)]
