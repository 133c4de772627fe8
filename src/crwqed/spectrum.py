"""Finite-lattice spectrum: a structured eigensolver, bound-state
classification, and spectral time propagation.

A chain of ``n_c`` resonators with open boundaries hosts the two atoms near
its center.  The single-excitation Hamiltonian over the basis (atom1,
atom2, site 1..n_c) is the tridiagonal chain plus two atom rows and
columns; its eigenstates separate into extended band states, bound states
outside the continuum (BOC), and -- for the right leg geometries -- bound
states in the continuum (BIC).  The classifier here is the numerical oracle
the closed-form bound-state solver is checked against, and spectral
propagation exp(-iHt) is the oracle for the memory-kernel dynamics.

``lattice_eigenbasis`` diagonalizes the lattice without forming H: the
free chain is solvable in closed form, so each energy is located by
safeguarded regula falsi on an inertia count and a secular function that
cost O(1) per energy, and each
eigenvector is the null vector of a leg system with three unknowns more
than there are distinct leg sites, whatever the leg span: the free runs
between and beyond the legs are sines (scaled sinh out of the band) with
one or two amplitudes each.  The :class:`Eigenbasis` it returns holds the
energies and the eigenvector array with the chain's absolute site
indices, and classification and propagation read those arrays directly.
``build_hamiltonian`` and ``eigendecompose`` (dense ``eigh``) are the test
oracle; the pipeline never calls them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    BAND_EDGE_GUARD,
    AtomTrajectory,
    ConfigError,
    FieldSnapshot,
    SolverError,
    SystemConfig,
    TimeGrid,
    WavefunctionState,
    light_cone_reach,
)

# Margin of resonators required around the outermost legs.
LATTICE_MARGIN = 40
# Largest lattice accepted.  The eigenvector array is (n_c + 2)^2 floats,
# about 0.5 GB at this size, and the orthonormality check that every
# eigenbasis passes is an O(n^3) product over it.  No later stage holds
# another n x n array: classification and propagation read the one
# eigenvector array through views and products with thin matrices.
MAX_LATTICE_SITES = 8000
# Eigenstates closer in energy than this are treated as one degenerate
# cluster: the solver gives it an orthonormal basis of its null space, and
# the classifier rotates it to a maximally-localized basis.
DEGENERACY_TOL = 1e-6
# A bound state must hold at least this fraction of its weight on the atoms
# plus the sites within +-5 of the leg span.
WINDOW_MIN_WEIGHT = 0.5
WINDOW_PAD = 5
# States within ``model.BAND_EDGE_GUARD`` of a band edge are never labelled
# BIC.  Pure atomic states (a decoupled atom, or the dark parity of two atoms
# on the same two sites) carry no photon weight and are not bound states of
# the coupled problem; the closed form gives such a branch no root.
MIN_PHOTON_WEIGHT = 1e-12
# A bound state's inverse participation ratio is at least this.
IPR_THRESHOLD = 0.02
# Every eigenbasis has max |H V - V E| <= RESIDUAL_TOL ||H|| and
# max |V^T V - I| <= ORTHONORMALITY_TOL, else SolverError.
RESIDUAL_TOL = 1e-8
ORTHONORMALITY_TOL = 1e-8


@dataclass(frozen=True)
class LatticeHamiltonian:
    """Dense Hermitian single-excitation Hamiltonian on a finite chain.

    Basis ordering: row 0 = atom 1, row 1 = atom 2, rows 2.. = resonators,
    whose absolute site indices are ``sites``, in column order.  ``cfg`` is
    the system it was built from.
    """

    matrix: np.ndarray
    sites: np.ndarray
    cfg: SystemConfig


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
            f"lattice too large: n_c={n_c} > {MAX_LATTICE_SITES}; its {dim}x{dim} "
            f"eigenvector array alone takes {dim * dim * 8 / 1e9:.2f} GB, and its "
            f"orthonormality check is an O(n^3) product")


def lattice_sites(cfg: SystemConfig, n_c: int) -> np.ndarray:
    """Absolute site indices of an ``n_c``-site chain whose leg span sits at
    its centre, in column order."""
    return np.arange(n_c) + (cfg.outer_legs[0] - _tails(cfg, n_c)[0])


def build_hamiltonian(cfg: SystemConfig, n_c: int) -> LatticeHamiltonian:
    """Assemble the dense (n_c + 2)-dimensional lattice Hamiltonian (the
    test oracle of ``lattice_eigenbasis``).

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
    sites = lattice_sites(cfg, n_c)
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
    return LatticeHamiltonian(matrix=h, sites=sites, cfg=cfg)


@dataclass(frozen=True)
class SolveReport:
    """What ``lattice_eigenbasis`` measured on the basis it returns."""

    residual: float         # max |H V - V E| over all entries
    h_norm: float           # row-sum bound on ||H||; the residual is held to RESIDUAL_TOL of it
    orthonormality: float   # max |V^T V - I| over all entries
    leg_system_dim: int     # side of the per-energy leg system: distinct leg sites + 3
    count_steps: int        # inertia-count calls after the first


@dataclass(frozen=True)
class Eigenbasis:
    """Complete orthonormal eigenbasis of a lattice Hamiltonian, energies
    ascending: column q of ``vectors`` is the real basis vector
    (A1, A2, B_1..B_nc) of the eigenstate with energy ``energies[q]``, and
    ``sites`` are the absolute site indices of the rows B_1..B_nc.
    ``report`` holds the structured solver's self-checks (None from the
    dense ``eigendecompose``).

    Raises
    ------
    ValueError
        Unless ``vectors`` is square with side ``energies.size`` and
        ``sites`` has ``energies.size - 2`` entries.
    """

    energies: np.ndarray
    vectors: np.ndarray
    sites: np.ndarray
    report: SolveReport | None = None

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


def _leg_couplings(cfg: SystemConfig) -> tuple[tuple[int, int, float], ...]:
    """(leg site, atom row, coupling) of the four legs."""
    return ((cfg.n_1, 0, cfg.g_1), (cfg.n_2, 0, cfg.g_1),
            (cfg.m_1, 1, cfg.g_2), (cfg.m_2, 1, cfg.g_2))


def _h_norm(cfg: SystemConfig) -> float:
    """Largest absolute row sum of the lattice Hamiltonian, an upper bound on
    ||H||_2 (every leg site is inside the chain, so it has both hops)."""
    legs = _leg_couplings(cfg)
    at_leg = max(sum(g for other, _, g in legs if other == leg) for leg, _, _ in legs)
    return max(abs(cfg.omega_1) + 2.0 * cfg.g_1, abs(cfg.omega_2) + 2.0 * cfg.g_2,
               abs(cfg.omega_c) + 2.0 * cfg.xi + at_leg)


def _residual_rows(cfg: SystemConfig, sites: np.ndarray, energies: np.ndarray,
                   vectors: np.ndarray):
    """Yield (lo, H V - V E over rows lo..) in blocks of ``_RESIDUAL_ROWS``
    rows (the two atom rows first), from the structure of H read off
    ``cfg`` and the chain's absolute ``sites``: the tridiagonal resonator
    chain plus the two atom rows and columns.  The cost is O(n^2) and no
    n x n temporary is made."""
    dim = vectors.shape[0]
    legs = [(2 + leg - int(sites[0]), atom, g) for leg, atom, g in _leg_couplings(cfg)]
    atoms = (np.array([[cfg.omega_1], [cfg.omega_2]]) - energies) * vectors[:2]
    for row, atom, g in legs:
        atoms[atom] += g * vectors[row]
    yield 0, atoms
    shift = cfg.omega_c - energies
    for lo in range(2, dim, _RESIDUAL_ROWS):
        hi = min(dim, lo + _RESIDUAL_ROWS)
        block = vectors[lo:hi] * shift
        if lo > 2:
            block[0] -= cfg.xi * vectors[lo - 1]
        block[1:] -= cfg.xi * vectors[lo:hi - 1]
        block[:-1] -= cfg.xi * vectors[lo + 1:hi]
        if hi < dim:
            block[-1] -= cfg.xi * vectors[hi]
        for row, atom, g in legs:
            if lo <= row < hi:
                block[row - lo] += g * vectors[atom]
        yield lo, block


def _residual(cfg: SystemConfig, sites: np.ndarray, energies: np.ndarray,
              vectors: np.ndarray) -> float:
    """max |H V - V E| over all entries (``_residual_rows``)."""
    return float(max(np.abs(block).max()
                     for _, block in _residual_rows(cfg, sites, energies, vectors)))


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


def _check_tolerances(residual: float, h_norm: float, ortho: float) -> None:
    if not (residual <= RESIDUAL_TOL * h_norm and ortho <= ORTHONORMALITY_TOL):  # NaN fails
        raise SolverError(
            f"eigendecomposition out of tolerance: residual={residual:.3e} "
            f"(||H||~{h_norm:.3e}), orthonormality={ortho:.3e}")


def eigendecompose(ham: LatticeHamiltonian) -> Eigenbasis:
    """Complete orthonormal eigenbasis by dense ``eigh``, energies ascending:
    the test oracle of ``lattice_eigenbasis``.

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
    _check_tolerances(_residual(ham.cfg, ham.sites, energies, vectors), _h_norm(ham.cfg),
                      _orthonormality(vectors))
    return Eigenbasis(energies, vectors, ham.sites)


# ---- the structured eigensolver ----
#
# Energies are parametrized by the chain phase u, increasing with E:
#   0 <= u <= pi:  E = omega_c - 2 xi cos(u)        (the band, theta = u)
#   u < 0:         E = omega_c - 2 xi cosh(u)       (below it, eta = -u)
#   u > pi:        E = omega_c + 2 xi cosh(u - pi)  (above it, eta = u - pi)
# The root-finder, the inertia count and the tails all read u itself, whose
# floats are finer than E's where a tail is most sensitive (near the band
# edges, a rounding unit of E moves a long tail's phase by about 1e-11);
# E(u) enters only the atoms' diagonal and the result.

# A vector whose Rayleigh quotient moves its energy by more than this times
# ||H|| is rebuilt at the moved energy.
_REFINE_TOL = 4.0 * np.finfo(float).eps


def _tails(cfg: SystemConfig, n_c: int) -> tuple[int, int]:
    """Sites of the free left and right tails: the chain columns before the
    first leg and after the last."""
    left = (n_c - cfg.span) // 2
    return left, n_c - cfg.span - 1 - left


def _in_band(u: np.ndarray) -> np.ndarray:
    return (u > 0.0) & (u < np.pi)


def _eta(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eta, sign of x) of out-of-band phases u; eta is kept above zero so
    that band-edge ratios of (1 - exp(-2 k eta)) stay finite."""
    above = u >= np.pi
    eta = np.maximum(np.where(above, u - np.pi, -u), np.finfo(float).tiny)
    return eta, np.where(above, -1.0, 1.0)


def _energy_slope(u: np.ndarray) -> np.ndarray:
    """dE/du / (2 xi): sin(theta) in the band, sinh(eta) outside it."""
    slope = np.sin(u)
    out = ~_in_band(u)
    slope[out] = np.sinh(_eta(u[out])[0])
    return slope


def _half_detuning(u: np.ndarray) -> np.ndarray:
    """x = (omega_c - E) / (2 xi) at phases u."""
    x = np.cos(u)
    out = ~_in_band(u)
    eta, sign = _eta(u[out])
    x[out] = sign * np.cosh(eta)
    return x


def _atom_block(cfg: SystemConfig, kernel, energies: np.ndarray):
    """(s11, s12, s22) of Omega - E - V^T G V, V the leg couplings and
    ``kernel(leg, leg')`` the chain kernel G between two legs."""
    n_1, n_2, m_1, m_2 = cfg.legs
    s11 = (cfg.omega_1 - energies) - cfg.g_1 ** 2 * (
        kernel(n_1, n_1) + kernel(n_2, n_2) + 2.0 * kernel(n_1, n_2))
    s22 = (cfg.omega_2 - energies) - cfg.g_2 ** 2 * (
        kernel(m_1, m_1) + kernel(m_2, m_2) + 2.0 * kernel(m_1, m_2))
    s12 = -cfg.g_1 * cfg.g_2 * (kernel(n_1, m_1) + kernel(n_1, m_2)
                                + kernel(n_2, m_1) + kernel(n_2, m_2))
    return s11, s12, s22


def _negatives(*coefficients) -> np.ndarray:
    """Negative eigenvalues of real symmetric matrices, from the coefficients
    c_1..c_m of det(t + T) = t^m + c_1 t^(m-1) + ... + c_m: the sign changes
    of (1, c_1, ..., c_m), zeros skipped (Descartes' rule of signs, exact
    for a polynomial whose roots are all real)."""
    last = np.ones(coefficients[0].shape)
    count = np.zeros(coefficients[0].shape, dtype=np.int64)
    for c in coefficients:
        sign = np.sign(c)
        count += (sign != 0.0) & (sign != last)
        last = np.where(sign != 0.0, sign, last)
    return count


def _counts_below(cfg: SystemConfig, n_c: int,
                  u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number of lattice eigenvalues below E(u), for each phase u, and the
    secular function F(u), at O(1) cost each.

    By Sylvester's law of inertia and Haynsworth's Schur-complement split,
    the count is that of the free chain's modes eps_k below E plus the
    negative eigenvalues of the atoms' Schur complement
    S = Omega - E - V^T (C - E)^{-1} V, C the open n-site chain and V its
    leg couplings.  In the band (theta = u), for i <= j,

        (C - E)^{-1}_ij = [sin((i+1) theta) cos((j+1) theta)
                           - cot((n+1) theta) psi_i psi_j] / (xi sin(theta)),

    psi_i = sin((i+1) theta): every pole of the chain sits in the scalar
    cot, so S = B + tau w w^T with B = Omega - E - V^T A V regular,
    w = V^T psi and tau = cot((n+1) theta) / (xi sin(theta)).  The inertia
    of S is that of T = [[-1/tau, w^T], [w, B]] less that of -1/tau; with
    its first row and column scaled by cos((n+1) theta), every entry of T is
    bounded, so a count next to a chain mode (even one that coincides with
    an eigenvalue of the lattice) reads no small difference of large terms.
    The mode count floor(p), the sign of -1/tau (that of -cos((n+1) theta)
    once scaled) and the scaling all come from the one phase
    p = (n+1) theta / pi; an energy on a mode counts as just above it.  Out
    of the band S has no poles and the resolvent is its sinh form, written
    with decaying exponentials.

    F is smooth on each of the three ranges of u (below, in and above the
    band) and vanishes exactly at the lattice eigenvalues there: in the
    band F = -xi sin(theta) sin(pi p) det B - cos(pi p) w^T adj(B) w, which
    is det(H - E) times -xi^(1-n) sin(theta)^2; out of it F = det S.
    """
    n = n_c
    left = _tails(cfg, n_c)[0]
    cols = {leg: leg - cfg.outer_legs[0] + left for leg in cfg.legs}
    counts = np.empty(u.size, dtype=np.int64)
    secular = np.empty(u.size)

    band = _in_band(u)
    theta = u[band]
    phase = (n + 1) * theta / np.pi
    turns = np.floor(phase)
    frac = phase - turns
    xi_sin = cfg.xi * np.sin(theta)
    psi = {c: np.sin((c + 1) * theta) for c in cols.values()}
    cosines = {c: np.cos((c + 1) * theta) for c in cols.values()}
    psi_over = {c: psi[c] / xi_sin for c in cols.values()}

    def regular(a, b):
        i, j = sorted((cols[a], cols[b]))
        return psi_over[i] * cosines[j]

    b11, b12, b22 = _atom_block(cfg, regular, cfg.omega_c - 2.0 * cfg.xi * np.cos(theta))
    scale = np.cos(np.pi * frac)
    pole = -xi_sin * np.sin(np.pi * frac)
    w1 = cfg.g_1 * (psi[cols[cfg.n_1]] + psi[cols[cfg.n_2]])
    w2 = cfg.g_2 * (psi[cols[cfg.m_1]] + psi[cols[cfg.m_2]])
    det_b = b11 * b22 - b12 * b12
    adj = w1 * w1 * b22 - 2.0 * w1 * w2 * b12 + w2 * w2 * b11  # w^T adj(B) w
    folded = pole * det_b - scale * adj
    # (-1)^turns turns the phase's fractional part back into (n+1) theta
    secular[band] = (1.0 - 2.0 * (turns % 2.0)) * folded
    t = pole * scale
    trace_b = b11 + b22
    negative = _negatives(t + trace_b,
                          t * trace_b - scale * scale * (w1 * w1 + w2 * w2) + det_b,
                          scale * folded)
    counts[band] = np.minimum(turns, n).astype(np.int64) - (scale > 0.0) + negative

    out = ~band
    if out.any():
        eta, sign = _eta(u[out])
        decay = sign * np.exp(-eta)

        def rise(k):  # 1 - exp(-2 k eta)
            return -np.expm1(-2.0 * k * eta)

        first, last = rise(1), rise(n + 1)
        lefts = {c: rise(c + 1) / first for c in cols.values()}
        rights = {c: rise(n - c) / last for c in cols.values()}

        def resolvent(a, b):
            i, j = sorted((cols[a], cols[b]))
            return decay ** (j - i + 1) * lefts[i] * rights[j] / cfg.xi

        s11, s12, s22 = _atom_block(cfg, resolvent,
                                    cfg.omega_c - 2.0 * cfg.xi * sign * np.cosh(eta))
        secular[out] = s11 * s22 - s12 * s12
        counts[out] = np.where(sign < 0.0, n, 0) + _negatives(s11 + s22, secular[out])
    return counts, secular


def _phases(cfg: SystemConfig, n_c: int) -> tuple[np.ndarray, int]:
    """The phases u of all n_c + 2 eigenvalues, ascending, and the number
    of count steps after the first.

    Cauchy interlacing with the free chain's modes u_k = k pi / (n + 1)
    brackets the q-th eigenvalue in [u_(q-2), u_q]; Gershgorin bounds close
    the two ends.  One ``_counts_below`` call at every mode (from a few
    rounding units below and above it) and at the two ends checks those
    brackets and narrows each to the tightest interval between those
    points.  Then every open bracket takes one step per call.  With k
    eigenvalues inside and both ends on one smooth range of the secular
    function F, the step is regula falsi on |F|^(1/k), signed by the
    count, which is about linear in u next to a cluster of k eigenvalues
    (k = 1: F itself); it keeps a few rounding units clear of both ends,
    and an end kept twice in a row has its value scaled down
    (Anderson-Bjorck).  Any other bracket, and one that three steps did
    not halve, is bisected.  The count, not F, decides which end a step
    replaces.  A bracket is done when it is at most 2 eps (|lo| + |hi|)
    wide (plus eps^2, for a phase of zero), and its midpoint is returned.
    Next to a band edge E(u) is flat to rounding (F is zero there for a
    decoupled atom on the edge), so an eigenvalue that two more counts of
    the first call place within 16 rounding units of an edge energy is
    bisected in the signed square of u - edge, about linear in E, and is
    done when its ends' energies are 2 eps (|omega_c| + 2 xi) apart.
    """
    n = n_c
    modes = np.arange(1, n + 1) * (np.pi / (n + 1))
    reach = cfg.g_1 + cfg.g_2
    bottom = min(cfg.omega_1 - 2.0 * cfg.g_1, cfg.omega_2 - 2.0 * cfg.g_2,
                 cfg.band_bottom - reach)
    top = max(cfg.omega_1 + 2.0 * cfg.g_1, cfg.omega_2 + 2.0 * cfg.g_2, cfg.band_top + reach)
    eps = np.finfo(float).eps
    # the Gershgorin ends, moved out by a few rounding units: an eigenvalue
    # on one (a decoupled atom at a band edge) counts below the top end; at
    # g = 0 a quotient can round below 1, where acosh is undefined
    margin = 8.0 * eps * max(abs(bottom), abs(top), 2.0 * cfg.xi)
    lowest = -math.acosh(max(1.0, (cfg.omega_c - bottom + margin) / (2.0 * cfg.xi)))
    highest = np.pi + math.acosh(max(1.0, (top + margin - cfg.omega_c) / (2.0 * cfg.xi)))
    pad = 64.0 * eps
    # E(u) is flat to rounding next to a band edge: E - E_edge is about
    # +-xi (u - edge)^2, at most 8 e_tol within delta of u = 0 or pi
    e_tol = 2.0 * eps * (abs(cfg.omega_c) + 2.0 * cfg.xi)
    delta = math.sqrt(8.0 * e_tol / cfg.xi)
    zones = np.array([[-delta, delta], [np.pi - delta, np.pi + delta]])
    # lowest, then each mode from below and from above, then highest; the
    # zones around the band edges only mark the eigenvalues inside them
    points = np.concatenate([[lowest - pad], np.column_stack([modes - pad, modes + pad]).ravel(),
                             [highest + pad], zones.ravel()])
    counts, secular = _counts_below(cfg, n, points)
    zone_counts, zone_values = counts[-4:].reshape(2, 2), np.abs(secular[-4:]).reshape(2, 2)
    points, counts, secular = points[:-4], counts[:-4], secular[:-4]
    index = np.arange(n + 2)
    lo_end = np.concatenate([[0, 0], 1 + 2 * np.arange(n)])
    hi_end = np.concatenate([2 + 2 * np.arange(n), [2 * n + 1, 2 * n + 1]])
    if np.any(counts[lo_end] > index) or np.any(counts[hi_end] <= index):
        raise SolverError(f"inertia count of the {n + 2}x{n + 2} lattice disagrees with "
                          "the interlacing brackets of its free chain")
    # the last point whose count is at most q, and the point after it
    below = np.searchsorted(np.minimum.accumulate(counts[::-1])[::-1], index, side="right") - 1
    # each bracket's two ends (row 0 the lower): phase, count, |F| and
    # falsi weight
    ends = np.stack([points[below], points[below + 1]])
    end_counts = np.stack([counts[below], counts[below + 1]])
    end_values = np.abs(np.stack([secular[below], secular[below + 1]]))
    # an eigenvalue in a zone is bracketed by it (where tighter) and
    # bisected in s = d |d|, d = u - edge, which is about linear in E,
    # until its ends' energies are e_tol apart: a bracket in u would be
    # bisected down to 2 eps |u| with F zero over the whole zone
    flat = np.zeros(n + 2, dtype=bool)
    edge = np.zeros(n + 2)
    for zone, (c_lo, c_hi), (f_lo, f_hi) in zip(zones, zone_counts, zone_values):
        inside = (index >= c_lo) & (index < c_hi)
        flat |= inside
        edge[inside] = zone.mean()
        tighter = inside & (ends[0] < zone[0])
        ends[0, tighter], end_counts[0, tighter], end_values[0, tighter] = zone[0], c_lo, f_lo
        tighter = inside & (ends[1] > zone[1])
        ends[1, tighter], end_counts[1, tighter], end_values[1, tighter] = zone[1], c_hi, f_hi
    weights = np.ones((2, n + 2))
    moved = np.full(n + 2, -1)  # the end each bracket's last step replaced
    widths = np.full((3, n + 2), np.inf)  # each bracket's width one to three steps back
    steps = 0
    while True:
        lo, hi = ends
        wide = hi - lo > 2.0 * eps * (np.abs(lo) + np.abs(hi)) + eps * eps
        d = ends[:, flat] - edge[flat]
        wide[flat] = cfg.xi * (d[1] * np.abs(d[1]) - d[0] * np.abs(d[0])) > e_tol
        active = np.flatnonzero(wide)
        if active.size == 0:
            return 0.5 * (lo + hi), steps
        a, b = pair = ends[:, active]
        # a bracket that three steps did not halve is bisected
        stalled = b - a > 0.5 * widths[2, active]
        widths[1:, active] = widths[:-1, active]
        widths[0, active] = b - a
        # |F|^(1/k) is about linear in u next to a cluster of k eigenvalues,
        # so the falsi step divides the bracket in the ratio of the ends'
        # values (the count gives the sign)
        root = 1.0 / (end_counts[1, active] - end_counts[0, active])
        sizes = weights[:, active] * end_values[:, active] ** root
        # a falsi step keeps a few rounding units clear of both ends, so one
        # that lands on the eigenvalue from one side closes the bracket next
        clear = eps * (np.abs(a) + np.abs(b))
        with np.errstate(divide="ignore", invalid="ignore"):
            falsi = np.clip(a + (b - a) * (sizes[0] / (sizes[0] + sizes[1])), a + clear, b - clear)
        # 0 below the band, 1 in it, 2 above it: F is smooth within each
        region = (pair > 0.0).astype(np.int8) + (pair >= np.pi)
        falsi_ok = (region[0] == region[1]) & ~stalled & (falsi > a) & (falsi < b) & ~flat[active]
        trial = np.where(falsi_ok, falsi, 0.5 * (a + b))
        zoned = flat[active]
        d = pair[:, zoned] - edge[active[zoned]]
        mid = 0.5 * (d[0] * np.abs(d[0]) + d[1] * np.abs(d[1]))
        trial[zoned] = edge[active[zoned]] + np.sign(mid) * np.sqrt(np.abs(mid))
        count, value = _counts_below(cfg, n, trial)
        side = (count > index[active]).astype(np.intp)  # the end the trial replaces
        value = np.abs(value)
        # Anderson-Bjorck: an end kept twice in a row by falsi steps is
        # weighted down by the ratio of the values that replaced the other
        with np.errstate(divide="ignore", invalid="ignore"):
            shrink = 1.0 - value ** root / sizes[side, np.arange(side.size)]
        kept = falsi_ok & (moved[active] == side)
        weights[1 - side[kept], active[kept]] *= np.where(shrink[kept] > 0.0, shrink[kept], 0.5)
        ends[side, active] = trial
        end_counts[side, active] = count
        end_values[side, active] = value
        weights[side, active] = 1.0
        moved[active] = side
        steps += 1


def _run(length: int, k: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Out-of-band amplitudes f(k) of a free run of ``length`` sites, k sites
    from its open end, at each phase u; shape (k.size, u.size):
    sign(x)^(k-1) sinh(k eta) / sinh((length+1) eta), which solves the free
    recurrence f(k+1) = 2x f(k) - f(k-1) with f(0) = 0 and is at most 1 for
    k <= length + 1."""
    k = k[:, None]
    eta, sign = _eta(u)
    return (sign ** (k - 1) * np.exp((k - length - 1) * eta)
            * np.expm1(-2.0 * k * eta) / np.expm1(-2.0 * (length + 1) * eta))


def _run_rows(rows: np.ndarray, u: np.ndarray,
              x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Write the free run f(k), k = 1..length sites from an end where
    f(0) = 0, into the rows of ``rows`` (length x u.size, length >= 0) in
    place; return f(1), f(length) and f(length + 1).

    In the band f runs the recurrence f(k+1) = 2x f(k) - f(k-1) from
    f(1) = sin(u), with the same rounded x that the leg system holds, so
    every row of (H - E) v inside the run vanishes to rounding (a sine per
    site would carry each argument's rounding, about 1e-13 at a few hundred
    sites).  Out of the band f is ``_run``'s closed form.
    """
    length = rows.shape[0]
    band = _in_band(u)
    two_x = np.where(band, 2.0 * x, 0.0)  # bounded filler where ``_run`` takes over
    first = np.sin(np.where(band, u, 0.0))
    if length == 0:
        end, beyond = np.zeros(u.size), first.copy()
    else:
        rows[0] = first
        for k in range(1, length):
            np.multiply(rows[k - 1], two_x, out=rows[k])
            if k > 1:
                rows[k] -= rows[k - 2]
        end = rows[-1].copy()
        beyond = two_x * rows[-1] - (rows[-2] if length > 1 else 0.0)
    if not band.all():
        closed = _run(length, np.arange(length + 2), u[~band])
        rows[:, ~band] = closed[1:-1]
        first[~band], end[~band], beyond[~band] = closed[1], closed[-2], closed[-1]
    return first, end, beyond


def _cosines(u: np.ndarray, x: np.ndarray, count: int):
    """Yield C(t), t = 1..count, of the free recurrence from C(0) = 1,
    C(1) = x in the band (cos(t theta)); bounded filler out of it."""
    band = _in_band(u)
    two_x = np.where(band, 2.0 * x, 0.0)
    prev, cur = np.ones(u.size), np.where(band, x, 0.0)
    for _ in range(count):
        yield cur
        prev, cur = cur, two_x * cur - prev


def _leg_columns(cfg: SystemConfig, n_c: int) -> list[int]:
    """Chain columns of the distinct leg sites, ascending."""
    shift = _tails(cfg, n_c)[0] - cfg.outer_legs[0]
    return sorted({leg + shift for leg in cfg.legs})


# ---- the leg system ----
#
# Between two neighbouring leg sites p < p' (d = p' - p) every row of
# (H - E) v is the free recurrence, so v there is b Start(t) + sigma Other(t),
# t = 0..d sites from p, with b = v_p: in the band Start = cos(t theta) and
# Other = sin(t theta) (by the recurrence), out of it Start and Other are the
# decaying closed forms with Start(d) = 0 and Other(0) = 0.  Each free tail
# is an amplitude times its run f from the open end.  Continuity gives each
# leg value b as a combination of the unknowns before it (b_1 = a_left f(L+1),
# b_(k+1) = b_k Start(d) + sigma_k Other(d)), so with r distinct leg sites
# the unknowns are z = (a_left, sigma_1..sigma_(r-1), a_right, A1, A2), r + 3
# of them, and the rows are the r leg rows of H - E, the continuity at the
# last leg (scaled by xi) and the two atom rows.  Every entry is bounded, no
# equation divides by a run's value at its end (so a tail or a stretch
# between legs that has a mode at E needs no care), and the size does not
# grow with the leg span.

def _leg_system(out: np.ndarray, cfg: SystemConfig, n_c: int, u: np.ndarray,
                x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write the tails' runs and the ``Other`` runs between the legs into the
    rows of ``out`` ((n_c + 2) x u.size) in place.  Return the leg systems,
    shape (u.size, r + 3, r + 3), and the leg values b_k as coefficients on
    the unknowns, shape (r, u.size, r + 3)."""
    cols = _leg_columns(cfg, n_c)
    r = len(cols)
    xi = cfg.xi
    right, atom = r, r + 1  # unknowns a_right and A1; sigma_k is 1 + k
    m = np.zeros((u.size, r + 3, r + 3))
    legs = np.zeros((r, u.size, r + 3))
    _, end, beyond = _run_rows(out[2:2 + cols[0]], u, x)
    legs[0][:, 0] = beyond
    m[:, 0, 0] = -xi * end  # leg 1's left neighbour
    _, end, beyond = _run_rows(out[3 + cols[-1]:][::-1], u, x)
    m[:, r - 1, right] = -xi * end  # leg r's right neighbour
    m[:, right, right] = xi * beyond
    band = _in_band(u)
    sign = _eta(u)[1]
    for k in range(r - 1):
        d = cols[k + 1] - cols[k]
        other_1, other_end, other_d = _run_rows(out[3 + cols[k]:2 + cols[k + 1]], u, x)
        c_end = c_d = np.ones(u.size)
        for c in _cosines(u, x, d):
            c_end, c_d = c_d, c
        flip = sign ** (d - 1)
        start_1 = np.where(band, x, flip * other_end)
        start_end = np.where(band, c_end, flip * other_1)
        start_d = np.where(band, c_d, 0.0)
        legs[k + 1] = start_d[:, None] * legs[k]
        legs[k + 1][:, 1 + k] += other_d
        m[:, k] -= (xi * start_1)[:, None] * legs[k]  # leg k's right neighbour
        m[:, k, 1 + k] -= xi * other_1
        m[:, k + 1] -= (xi * start_end)[:, None] * legs[k]  # leg k + 1's left one
        m[:, k + 1, 1 + k] -= xi * other_end
    m[:, right] -= xi * legs[-1]
    m[:, :r] += (2.0 * xi * x)[:, None, None] * legs.swapaxes(0, 1)  # the leg diagonals
    shift = _tails(cfg, n_c)[0] - cfg.outer_legs[0]
    for leg, which, g in _leg_couplings(cfg):
        k = cols.index(leg + shift)
        m[:, k, atom + which] += g
        m[:, atom + which] += g * legs[k]
    energies = cfg.omega_c - 2.0 * xi * x
    m[:, atom, atom] = cfg.omega_1 - energies
    m[:, atom + 1, atom + 1] = cfg.omega_2 - energies
    return m, legs


def _combine(out: np.ndarray, cfg: SystemConfig, n_c: int, u: np.ndarray, x: np.ndarray,
             z: np.ndarray, legs: np.ndarray) -> None:
    """Turn the runs ``_leg_system`` wrote into ``out`` into the lattice
    vectors of the leg-system solutions ``z`` (one row per column; ``legs``
    as it returned them), in place and unnormalized."""
    cols = _leg_columns(cfg, n_c)
    r = len(cols)
    values = np.einsum("kij,ij->ki", legs, z)
    out[2:2 + cols[0]] *= z[:, 0]
    out[3 + cols[-1]:] *= z[:, r]
    out[[2 + c for c in cols]] = values
    outside = ~_in_band(u)
    sign = _eta(u[outside])[1]
    for k in range(r - 1):
        d = cols[k + 1] - cols[k]
        rows = out[3 + cols[k]:2 + cols[k + 1]]
        b, sigma = values[k], z[:, 1 + k]
        other = rows[:, outside]
        for row, c in zip(rows, _cosines(u, x, d - 1)):
            row *= sigma
            row += b * c
        rows[:, outside] = b[outside] * sign ** (d - 1) * other[::-1] + sigma[outside] * other
    out[:2] = z[:, r + 1:].T


def _right_singular(mats: np.ndarray, dim: int) -> np.ndarray:
    """Right singular vectors (rows, by descending singular value) of leg
    systems (or their restrictions) of the dim x dim lattice; SolverError if
    the SVD fails."""
    try:
        return np.linalg.svd(mats)[2]
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigensolver failed on {dim}x{dim} lattice "
                          f"({mats.shape[-1]}x{mats.shape[-1]} leg system): {exc}") from exc


def _build(out: np.ndarray, cfg: SystemConfig, n_c: int, u: np.ndarray) -> None:
    """Write the unit eigenvectors at phases u into the columns of ``out``
    ((n_c + 2) x u.size), in place: each is the lattice vector of its leg
    system's null vector (the SVD's last right singular vector)."""
    x = _half_detuning(u)
    mats, legs = _leg_system(out, cfg, n_c, u, x)
    _combine(out, cfg, n_c, u, x, _right_singular(mats, n_c + 2)[:, -1], legs)
    out /= np.sqrt(np.einsum("ij,ij->j", out, out))


def _orthogonalize_clusters(vectors: np.ndarray, cfg: SystemConfig, n_c: int,
                            u: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Give each cluster of energies closer than ``DEGENERACY_TOL`` xi an
    orthonormal basis of its null spaces, in place: member q's vector is the
    null vector of its leg system among the solutions whose lattice vectors
    are orthogonal to the members before it.  Returns the mask of clustered
    columns."""
    close = np.diff(energies) < DEGENERACY_TOL * cfg.xi
    side = len(_leg_columns(cfg, n_c)) + 3
    for q in np.flatnonzero(close) + 1:  # q joins the cluster of q - 1
        first = q - 1
        while first > 0 and close[first - 1]:
            first -= 1
        # the lattice vectors of the unit solutions at u[q], one per column
        at = np.full(side, u[q])
        x = _half_detuning(at)
        lifts = np.empty((n_c + 2, side))
        mats, legs = _leg_system(lifts, cfg, n_c, at, x)
        _combine(lifts, cfg, n_c, at, x, np.eye(side), legs)
        basis = _right_singular(vectors[:, first:q].T @ lifts, n_c + 2)[q - first:].T
        column = lifts @ (basis @ _right_singular(mats[0] @ basis, n_c + 2)[-1])
        vectors[:, q] = column / np.linalg.norm(column)
    return np.concatenate([close, [False]]) | np.concatenate([[False], close])


def lattice_eigenbasis(cfg: SystemConfig, n_c: int) -> Eigenbasis:
    """Complete orthonormal eigenbasis of the ``n_c``-site lattice, energies
    ascending: the contract of ``eigendecompose(build_hamiltonian(cfg, n_c))``
    without the dense Hamiltonian or an n x n eigensolver.

    Energies come from ``_phases`` (safeguarded regula falsi, bracketed by
    an O(1) inertia count),
    vectors from the null vectors of the per-energy leg systems of side
    r + 3 for r distinct leg sites (``_leg_system``), whatever the leg
    span, with the free runs between and beyond the legs written in place
    into the one (n_c + 2)^2 array.  Degenerate clusters are made
    orthonormal by ``_orthogonalize_clusters``.  The result is checked like
    the dense oracle's, and ``report`` records those checks and the
    solver's sizes.

    Raises
    ------
    ConfigError
        If the lattice size is out of range (``check_lattice_size``).
    SolverError
        If the counts contradict the interlacing brackets, an SVD fails, or
        the basis misses ``RESIDUAL_TOL`` ||H|| or ``ORTHONORMALITY_TOL``.
    """
    check_lattice_size(cfg, n_c)
    h_norm = _h_norm(cfg)
    u, steps = _phases(cfg, n_c)
    energies = cfg.omega_c - 2.0 * cfg.xi * _half_detuning(u)
    vectors = np.empty((n_c + 2, n_c + 2))
    _build(vectors, cfg, n_c, u)
    clustered = _orthogonalize_clusters(vectors, cfg, n_c, u, energies)
    sites = lattice_sites(cfg, n_c)
    # one Rayleigh-quotient step, v^T (H - E) v, on the built vectors
    shifts = np.zeros(n_c + 2)
    for lo, block in _residual_rows(cfg, sites, energies, vectors):
        shifts += np.einsum("ij,ij->j", vectors[lo:lo + block.shape[0]], block)
    shifts[clustered] = 0.0
    redo = np.flatnonzero(np.abs(shifts) > _REFINE_TOL * h_norm)
    if redo.size:
        u[redo] += shifts[redo] / (2.0 * cfg.xi * _energy_slope(u[redo]))
        energies[redo] = cfg.omega_c - 2.0 * cfg.xi * _half_detuning(u[redo])
        columns = np.empty((n_c + 2, redo.size))
        _build(columns, cfg, n_c, u[redo])
        vectors[:, redo] = columns
    residual = _residual(cfg, sites, energies, vectors)
    ortho = _orthonormality(vectors)
    _check_tolerances(residual, h_norm, ortho)
    return Eigenbasis(energies, vectors, sites, SolveReport(
        residual=residual, h_norm=h_norm, orthonormality=ortho,
        leg_system_dim=len(_leg_columns(cfg, n_c)) + 3, count_steps=steps))


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


# States per C-contiguous block of the transposed eigenvector array in
# ``classify_bound_states``.
_CLASSIFY_STATES = 128


def _state_weights(rows: np.ndarray, mask: np.ndarray):
    """(IPR, photon weight, window weight) of the unit states in the rows of
    the C-contiguous array ``rows``, each a sum along one row.  The first
    two sum whole rows: the same pairwise sums as ``np.sum`` of each state
    alone, bit for bit.  numpy may order the short masked window sums
    differently, so the window weight can differ from a per-state sum in
    the last bit."""
    prob = rows ** 2
    return (prob ** 2).sum(axis=1), prob[:, 2:].sum(axis=1), prob[:, mask].sum(axis=1)


def classify_bound_states(basis: Eigenbasis, cfg: SystemConfig) -> list[BoundStateProfile]:
    """Label every eigenstate as BIC, BOC, or extended.

    A state is a bound-state candidate when its inverse participation ratio
    is at least ``IPR_THRESHOLD`` and at least half of its weight sits on
    the atoms plus the sites within 5 of the outermost legs; candidates
    inside the open band are BICs, outside it BOCs.  Nearly degenerate
    states (within 1e-6 xi) are first rotated to a maximally-localized
    basis (``_localized_rotation``), which untangles bound states from
    accidentally degenerate band states; the returned profiles are that
    rotated basis.  States with essentially no photon weight (a decoupled
    atom) and states within 1e-3 xi of a band edge are never bound states.

    The weights of all states are row sums over C-contiguous copies of
    ``_CLASSIFY_STATES``-column blocks of ``basis.vectors``, transposed;
    each degenerate cluster is read as a column slice and its rotated
    states replace its members' weights.  The labels are then set for all
    states at once.  Only BIC and BOC profiles keep their photon
    probabilities (``photon`` is None on extended states), read again from
    their own column.
    """
    energies, vectors = basis.energies, basis.vectors
    dim = energies.size

    first, last = cfg.outer_legs
    mask = np.ones(dim, dtype=bool)
    mask[2:] = (basis.sites >= first - WINDOW_PAD) & (basis.sites <= last + WINDOW_PAD)

    ipr, photon_weight, window = (np.empty(dim) for _ in range(3))
    for lo in range(0, dim, _CLASSIFY_STATES):
        hi = min(dim, lo + _CLASSIFY_STATES)
        rows = np.ascontiguousarray(vectors[:, lo:hi].T)
        ipr[lo:hi], photon_weight[lo:hi], window[lo:hi] = _state_weights(rows, mask)

    state = energies.copy()
    amps = vectors[:2].copy()
    rotated: dict[int, np.ndarray] = {}  # the rotated column of each clustered state
    close = np.diff(energies) < DEGENERACY_TOL * cfg.xi
    starts = np.flatnonzero(np.concatenate([[True], ~close]))
    for i, j in zip(starts, np.append(starts[1:], dim)):
        if j - i > 1:
            window[i:j], vecs = _localized_rotation(vectors[:, i:j], mask)
            ipr[i:j], photon_weight[i:j], _ = _state_weights(np.ascontiguousarray(vecs.T), mask)
            state[i:j] = np.mean(energies[i:j])
            amps[:, i:j] = vecs[:2]
            rotated.update(zip(range(i, j), vecs.T))

    in_band = (cfg.band_bottom < state) & (state < cfg.band_top)
    near_edge = ((np.abs(state - cfg.band_bottom) < BAND_EDGE_GUARD * cfg.xi)
                 | (np.abs(state - cfg.band_top) < BAND_EDGE_GUARD * cfg.xi))
    localized = ((ipr >= IPR_THRESHOLD) & (window >= WINDOW_MIN_WEIGHT)
                 & (photon_weight >= MIN_PHOTON_WEIGHT))
    labels = np.where(localized & in_band & ~near_edge, "BIC",
                      np.where(localized & ~in_band, "BOC", "extended"))

    profiles: list[BoundStateProfile] = []
    for q, label in enumerate(labels.tolist()):
        photon = None
        if label != "extended":
            photon = (rotated[q] if q in rotated else vectors[:, q])[2:] ** 2
        profiles.append(BoundStateProfile(
            energy=float(state[q]), label=label, ipr=float(ipr[q]),
            amp_1=float(amps[0, q]), amp_2=float(amps[1, q]), photon=photon))
    return profiles


def bound_states(profiles: list[BoundStateProfile], label: str = "BIC") -> list[BoundStateProfile]:
    return [p for p in profiles if p.label == label]


def reflection_free_time(cfg: SystemConfig, n_c: int, dt: float) -> float:
    """The latest time n dt whose ``model.light_cone_reach`` is at most a
    round trip to the nearer end of the n_c-site chain and back to the legs:
    up to then, no radiation reflected off an end is back at the atoms."""
    round_trip = 2 * min(_tails(cfg, n_c))
    lo, hi = 0, math.ceil(round_trip / (2.0 * cfg.xi * dt)) + 1  # reach(hi dt) > round_trip
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if light_cone_reach(cfg, mid * dt) <= round_trip else (lo, mid)
    return lo * dt


# States per block of ``exact_propagate``'s phase tables.
_PROPAGATE_STATES = 128


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
    The states are taken ``_PROPAGATE_STATES`` at a time: each block adds
    the complex product of its (B x block) inner-phase table and its
    (block x 2 ceil(T/B)) outer-phase table, scaled by w_1 and w_2, to the
    (B x 2 ceil(T/B)) amplitude table.  That is about 2nT complex
    multiply-adds and about 2n sqrt(T) complex exponentials in all.  The
    overlaps <v_q|psi0> come from the basis rows psi0 touches and w_1, w_2
    from rows 0 and 1; all snapshots come from one real product of the
    eigenvector array with the real and imaginary parts of an
    (n x #snapshots) coefficient table.  Besides the given eigenbasis and
    the O(T) result, the scratch is O(n (1 + #snapshots)) for the overlaps and
    snapshots and O(block sqrt(T)) for the phase tables, with
    block = ``_PROPAGATE_STATES``: no n x n or n x sqrt(T) array is made.

    Warns (does not fail) when n_c is below the wavefront criterion for
    the requested horizon, i.e. when the horizon goes past
    :func:`reflection_free_time`.  Snapshots of
    the full photon field are returned for the requested times (which must
    lie on the grid).  A photon site of ``psi0`` that is not one of
    ``basis.sites`` raises ValueError.
    """
    energies, vectors = basis.energies, basis.vectors
    n_c = energies.size - 2
    t_free = reflection_free_time(cfg, n_c, grid.dt)
    if grid.t_end > t_free:
        warnings.warn(
            f"n_c={n_c} is below the wavefront criterion for t_max={grid.t_end}: "
            f"radiation reflected off the chain ends is back at the legs after "
            f"t={t_free:g}", stacklevel=2)
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
    inner_times = np.arange(inner) * grid.dt
    outer_times = np.arange(n_outer) * (inner * grid.dt)
    # amps[k, j] = a_1 at node j*inner + k; columns n_outer.. hold a_2
    amps = np.zeros((inner, 2 * n_outer), dtype=complex)
    for lo in range(0, n_c + 2, _PROPAGATE_STATES):
        part = slice(lo, lo + _PROPAGATE_STATES)
        inner_phase = -1j * np.outer(inner_times, energies[part])
        np.exp(inner_phase, out=inner_phase)
        # the outer phases are formed in place in the first half of ``scaled``
        scaled = np.empty((inner_phase.shape[1], 2 * n_outer), dtype=complex)
        outer_phase = scaled[:, :n_outer]
        np.multiply(-1j, np.outer(energies[part], outer_times), out=outer_phase)
        np.exp(outer_phase, out=outer_phase)
        np.multiply(outer_phase, w2[part, None], out=scaled[:, n_outer:])
        outer_phase *= w1[part, None]
        amps += inner_phase @ scaled
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
