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
one or two amplitudes each.  The :class:`Eigenbasis` it returns holds O(n)
data, not the n x n eigenvector array: it rebuilds any block of columns
from the eigenvalues' phases on demand, and classification and propagation
read it block by block.  ``build_hamiltonian`` and ``eigendecompose``
(dense ``eigh``, whose basis slices its matrix behind the same block
interface) are the test oracle; the pipeline never calls them.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Callable, Iterator
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
# Largest lattice accepted, a bound on time: no stage holds an n x n array,
# but each pass over the eigenbasis (the checked pass, propagation) rebuilds
# all n columns in O(n^2) time.  fig4's geometry and grid on a 2-core
# machine: lattice_eigenbasis + classification + exact_propagate take
# 0.14 / 0.53 / 1.8 / 4.0 s at n_c = 1400 / 2900 / 5000 / 8000, the checked
# pass most of it (3.0 s at 8000, where 172 000 close pairs near the band
# edges take their overlaps directly).  The Volterra route reads this bound
# as its largest leg span; its kernel table is blocked, so that costs time
# only.
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
            f"lattice too large: n_c={n_c} > {MAX_LATTICE_SITES}; each pass over its "
            f"{dim}x{dim} eigenbasis rebuilds every column, O(n^2) time, and the "
            f"lattice route takes about 4 s at {MAX_LATTICE_SITES} sites")


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
    orthonormality: float   # an upper bound on max |V^T V - I| (``_checked_pass``)
    close_pairs: int        # pairs of states whose overlap the bound took directly
    leg_system_dim: int     # side of the per-energy leg system: distinct leg sites + 3
    count_steps: int        # inertia-count calls after the first


@dataclass(frozen=True)
class Eigenbasis:
    """Complete orthonormal eigenbasis of a lattice Hamiltonian, energies
    ascending, held as O(n) data.

    ``columns(lo, hi)`` returns columns lo..hi-1 of the eigenvector matrix
    V, an n x (hi - lo) array: column q is the real basis vector
    (A1, A2, B_1..B_nc) of the eigenstate with energy ``energies[q]``, and
    ``sites`` are the absolute site indices of the rows B_1..B_nc.  From
    ``lattice_eigenbasis`` it rebuilds the columns from their phases and
    leg-system null vectors, bit for bit the same whichever block they are
    asked in; from ``eigendecompose`` it slices the dense matrix.
    ``starts`` are the first states of the degenerate clusters (energies
    closer than ``DEGENERACY_TOL`` xi), then n, and :meth:`blocks` cuts the
    states into blocks that split none of them (``_blocks``).  The pass
    that checked the basis recorded ``atoms``, rows A1 and A2 of V, and
    ``weights``, the IPR, photon weight and window weight of every state
    (``_state_weights``).
    ``report`` holds the structured solver's self-checks (None from the
    dense ``eigendecompose``).

    Raises
    ------
    ValueError
        Unless ``sites`` has ``energies.size - 2`` entries, ``atoms`` and
        ``weights`` have 2 and 3 rows of ``energies.size``, and ``starts``
        runs from 0 to ``energies.size``.
    """

    energies: np.ndarray
    sites: np.ndarray
    starts: np.ndarray
    atoms: np.ndarray
    weights: np.ndarray
    columns: Callable[[int, int], np.ndarray]
    report: SolveReport | None = None

    def __post_init__(self):
        n = self.energies.size
        if len(self.sites) != n - 2:
            raise ValueError(f"sites must have {n - 2} entries for {n} energies, "
                             f"got {len(self.sites)}")
        for name, rows in (("atoms", 2), ("weights", 3)):
            if getattr(self, name).shape != (rows, n):
                raise ValueError(f"{name} must be {rows}x{n} for {n} energies, "
                                 f"got shape {getattr(self, name).shape}")
        if self.starts[0] != 0 or self.starts[-1] != n:
            raise ValueError(f"cluster starts must run from 0 to {n}")

    def blocks(self, size: int) -> Iterator[tuple[int, int]]:
        """(lo, hi) of consecutive blocks of about ``size`` states that
        split no degenerate cluster (``_blocks``)."""
        return _blocks(self.starts, size)


def _blocks(starts: np.ndarray, size: int) -> Iterator[tuple[int, int]]:
    """(lo, hi) of consecutive blocks that cover all the states whose
    clusters start at ``starts`` (then the number of states).  Each ends at
    the next multiple of ``size``, moved down to the start of the cluster
    it would split; a cluster that holds the whole block is taken whole, so
    a block is longer than ``size`` only where one cluster is."""
    n, lo = int(starts[-1]), 0
    while lo < n:
        k = np.searchsorted(starts, min(n, (lo // size + 1) * size), side="right") - 1
        hi = int(starts[k] if starts[k] > lo else starts[k + 1])
        yield lo, hi
        lo = hi


def _cluster_starts(energies: np.ndarray, xi: float) -> np.ndarray:
    """First state of each cluster of ascending ``energies`` closer than
    ``DEGENERACY_TOL`` xi, then the number of states."""
    close = np.diff(energies) < DEGENERACY_TOL * xi
    return np.flatnonzero(np.concatenate([[True], ~close, [True]]))


# Rows per block of the structured residual in ``_residual``.
_RESIDUAL_ROWS = 64
# States per block of every pass over an eigenbasis (``Eigenbasis.blocks``):
# the checked pass, whose blocks also give the classifier's weights, and
# ``exact_propagate``.
_BLOCK_STATES = 128
# States per chunk of fourth powers in ``_state_weights``.
_WEIGHT_STATES = 16


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


def _column_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a_ij b_ij of each column j, added in row order: einsum adds
    down each of several columns in order, and a single column, which it
    would sum pairwise, goes through ``accumulate`` instead, so a column's
    sum does not depend on how many columns come with it."""
    if a.shape[1] > 1:
        return np.einsum("ij,ij->j", a, b)
    return np.add.accumulate(a[:, 0] * b[:, 0])[-1:]


def _residual_rows(cfg: SystemConfig, sites: np.ndarray, energies: np.ndarray,
                   vectors: np.ndarray):
    """Yield (lo, H V - V E over rows lo..) in blocks of ``_RESIDUAL_ROWS``
    rows (the two atom rows first), from the structure of H read off
    ``cfg`` and the chain's absolute ``sites``: the tridiagonal resonator
    chain plus the two atom rows and columns.  ``vectors`` holds full
    columns (all n rows), one per energy; the cost is O(n) per column and
    no temporary is larger than a block of rows."""
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
              vectors: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """For the columns of ``vectors`` (``_residual_rows``): max |H V - V E|
    over all entries (NaN if any entry is), the squared 2-norm of each
    column of H V - V E, and each column's v^T (H - E) v, summed block by
    block in row order (``_column_sums``)."""
    worst = 0.0
    squares = np.zeros(vectors.shape[1])
    quotients = np.zeros(vectors.shape[1])
    for lo, block in _residual_rows(cfg, sites, energies, vectors):
        worst = np.maximum(worst, np.abs(block).max())
        squares += np.einsum("ij,ij->j", block, block)
        quotients += _column_sums(vectors[lo:lo + block.shape[0]], block)
    return float(worst), squares, quotients


def _window(cfg: SystemConfig, sites: np.ndarray) -> np.ndarray:
    """Mask of the rows of V a bound state must hold most of its weight on:
    the atoms and the sites within ``WINDOW_PAD`` of the outermost legs."""
    first, last = cfg.outer_legs
    return np.concatenate([[True, True],
                           (sites >= first - WINDOW_PAD) & (sites <= last + WINDOW_PAD)])


def _state_weights(vectors: np.ndarray, mask: np.ndarray):
    """(IPR, photon weight, window weight) of the unit states in the columns
    of ``vectors``, each a sum along one C-contiguous row of their squared
    entries: the same pairwise sums as ``np.sum`` of each state alone, bit
    for bit.  (A boolean column mask leaves its rows strided, and numpy
    would add them in order, so the window is copied first; the fourth
    powers are taken ``_WEIGHT_STATES`` states at a time.)"""
    prob = np.square(vectors.T, order="C")
    ipr = np.concatenate([(prob[s:s + _WEIGHT_STATES] ** 2).sum(axis=1)
                          for s in range(0, len(prob), _WEIGHT_STATES)])
    return ipr, prob[:, 2:].sum(axis=1), np.ascontiguousarray(prob[:, mask]).sum(axis=1)


def _largest_overlap(left: np.ndarray, right: np.ndarray, i: np.ndarray, j: np.ndarray) -> float:
    """max |left[:, i_k] . right[:, j_k]| over the index pairs, from one
    product of the column ranges the pairs span (near a band edge the close
    pairs fill those ranges)."""
    if i.size == 0:
        return 0.0
    rows, cols = slice(i.min(), i.max() + 1), slice(j.min(), j.max() + 1)
    gram = left[:, rows].T @ right[:, cols]
    return float(np.abs(gram[i - rows.start, j - cols.start]).max())


def _checked_pass(cfg: SystemConfig, sites: np.ndarray, energies: np.ndarray,
                  starts: np.ndarray, columns, solve=None, refine=None):
    """Check an eigenbasis in one pass over its ``_BLOCK_STATES``-state
    blocks (``Eigenbasis.blocks``), reading each block once from
    ``solve(lo, hi)``, or from ``columns(lo, hi)`` if ``solve`` is None.

    ``refine(lo, hi, block, quotients)``, if given, may replace columns of a
    block (and their ``energies``) after its Rayleigh quotients are known;
    it returns whether it did.  Then, per block: the residual (``_residual``)
    and, for the classifier, rows A1 and A2 and ``_state_weights``.

    Orthonormality is bounded in O(n^2), not taken from V^T V.  For real
    vectors with residuals r = (H - E) v, (E_j - E_i) v_i . v_j =
    r_i . v_j - v_i . r_j, so |v_i . v_j| <= (rho_i |v_j| + |v_i| rho_j) /
    |E_i - E_j| with rho the residual 2-norm (raised by 3 eps ||H|| |v|,
    the rounding of the residual itself) (Davis and Kahan, SIAM J. Numer.
    Anal. 7, 1 (1970)).  Each pair is decided when the block of its upper
    state is read, with delta = 20 rho_max max|v| / ``ORTHONORMALITY_TOL``
    over the states read so far: a pair closer than delta takes its
    overlap directly (a lower state in an earlier block is read again from
    ``columns``), and every other pair is bounded as above, by at most a
    tenth of the tolerance.  The bound is the largest of |v|^2 - 1, the
    direct overlaps and the bounds on the far pairs, plus n eps max|v|^2
    for the rounding of any dot product of two columns.

    Returns (max |H V - V E|, the orthonormality bound, the number of pairs
    taken directly, atoms, weights).
    """
    n = energies.size
    eps = np.finfo(float).eps
    h_norm = _h_norm(cfg)
    mask = _window(cfg, sites)
    atoms, weights = np.empty((2, n)), np.empty((3, n))
    norms, rho = np.empty(n), np.empty(n)
    residual = ortho = 0.0
    rho_max = v_max = 0.0
    pairs = 0
    for lo, hi in _blocks(starts, _BLOCK_STATES):
        block = (solve or columns)(lo, hi)
        worst, squares, quotients = _residual(cfg, sites, energies[lo:hi], block)
        if refine is not None and refine(lo, hi, block, quotients):
            worst, squares, _ = _residual(cfg, sites, energies[lo:hi], block)
        residual = np.maximum(residual, worst)
        atoms[:, lo:hi] = block[:2]
        weights[:, lo:hi] = _state_weights(block, mask)
        norm2 = _column_sums(block, block)
        norms[lo:hi] = np.sqrt(norm2)
        rho[lo:hi] = np.sqrt(squares) + 3.0 * eps * h_norm * norms[lo:hi]
        rho_max = max(rho_max, float(rho[lo:hi].max()))
        v_max = max(v_max, float(norms[lo:hi].max()))
        delta = 20.0 * rho_max * v_max / ORTHONORMALITY_TOL
        upper = np.arange(lo, hi)
        # states lower[q]..q-1 are closer than delta below state lo + q
        lower = np.searchsorted(energies[:hi], energies[lo:hi] - delta, side="right")
        counts = upper - lower
        pairs += int(counts.sum())
        # the pairs (i, j): each upper state j with lower[j]..j-1
        j = np.repeat(upper, counts)
        i = j - (np.arange(j.size) - np.repeat(np.cumsum(counts) - counts, counts)) - 1
        ortho = np.maximum(ortho, np.abs(norm2 - 1.0).max())
        inside = i >= lo
        ortho = np.maximum(ortho, _largest_overlap(block, block, i[inside] - lo, j[inside] - lo))
        for a, b in _blocks(starts, _BLOCK_STATES):
            if b <= lower[0] or a >= lo:  # no lower state of a pair, or read already
                continue
            a, b = max(a, int(lower[0])), min(b, lo)
            take = (i >= a) & (i < b)
            ortho = np.maximum(ortho, _largest_overlap(columns(a, b), block, i[take] - a,
                                                       j[take] - lo))
        # the nearest state below each one that is not closer than delta
        far = lower > 0
        if far.any():
            q = upper[far]
            gap = energies[q] - energies[lower[far] - 1]
            ortho = np.maximum(ortho, ((rho_max * norms[q] + v_max * rho[q]) / gap).max())
    ortho += n * eps * v_max ** 2
    return float(residual), float(ortho), pairs, atoms, weights


def _check_tolerances(residual: float, h_norm: float, ortho: float) -> None:
    if not (residual <= RESIDUAL_TOL * h_norm and ortho <= ORTHONORMALITY_TOL):  # NaN fails
        raise SolverError(
            f"eigendecomposition out of tolerance: residual={residual:.3e} "
            f"(||H||~{h_norm:.3e}), orthonormality={ortho:.3e}")


def eigendecompose(ham: LatticeHamiltonian) -> Eigenbasis:
    """Complete orthonormal eigenbasis by dense ``eigh``, energies ascending:
    the test oracle of ``lattice_eigenbasis``.  Its ``columns`` slice the
    dense matrix.

    Checks residuals ||H v - E v|| <= 1e-8 ||H|| and the orthonormality
    bound of ``_checked_pass`` <= 1e-8 before returning.

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
    starts = _cluster_starts(energies, ham.cfg.xi)

    def columns(lo: int, hi: int) -> np.ndarray:
        return vectors[:, lo:hi]

    residual, ortho, _, atoms, weights = _checked_pass(ham.cfg, ham.sites, energies, starts,
                                                       columns)
    _check_tolerances(residual, _h_norm(ham.cfg), ortho)
    return Eigenbasis(energies, ham.sites, starts, atoms, weights, columns)


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


def _free_runs(runs: list[np.ndarray], u: np.ndarray,
               x: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Write the free run f(k), k = 1..length sites from an end where
    f(0) = 0, into the rows of each array in ``runs`` (length x u.size,
    length >= 0, and >= 2 for the longest: ``check_lattice_size`` keeps
    each tail at 19 sites or more) in place; return f(1), f(length) and
    f(length + 1) of each.

    In the band f runs the recurrence f(k+1) = 2x f(k) - f(k-1) from
    f(1) = sin(u), with the same rounded x that the leg system holds, so
    every row of (H - E) v inside the run vanishes to rounding (a sine per
    site would carry each argument's rounding, about 1e-13 at a few hundred
    sites).  That sequence does not depend on the length, so it is run once,
    in the longest run, and the shorter runs copy its first rows.  Out of
    the band f is ``_run``'s closed form.
    """
    band = _in_band(u)
    two_x = np.where(band, 2.0 * x, 0.0)  # bounded filler where ``_run`` takes over
    start = np.sin(np.where(band, u, 0.0))
    longest = max(runs, key=len)
    longest[0] = start
    np.multiply(longest[0], two_x, out=longest[1])
    for before, last, row in zip(longest, longest[1:], longest[2:]):
        np.multiply(last, two_x, out=row)
        row -= before
    after = two_x * longest[-1] - longest[-2]
    ends = []
    for rows in runs:
        length = len(rows)
        if rows is not longest:
            rows[:] = longest[:length]
        first = start.copy()
        end = longest[length - 1].copy() if length else np.zeros(u.size)
        beyond = longest[length].copy() if length < len(longest) else after.copy()
        if not band.all():
            closed = _run(length, np.arange(length + 2), u[~band])
            rows[:, ~band] = closed[1:-1]
            first[~band], end[~band], beyond[~band] = closed[1], closed[-2], closed[-1]
        ends.append((first, end, beyond))
    return ends


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
    runs = _free_runs([out[2:2 + cols[0]], out[3 + cols[-1]:][::-1]]
                      + [out[3 + cols[k]:2 + cols[k + 1]] for k in range(r - 1)], u, x)
    _, end, beyond = runs[0]
    legs[0][:, 0] = beyond
    m[:, 0, 0] = -xi * end  # leg 1's left neighbour
    _, end, beyond = runs[1]
    m[:, r - 1, right] = -xi * end  # leg r's right neighbour
    m[:, right, right] = xi * beyond
    band = _in_band(u)
    sign = _eta(u)[1]
    for k in range(r - 1):
        d = cols[k + 1] - cols[k]
        other_1, other_end, other_d = runs[2 + k]
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


def _build(out: np.ndarray, cfg: SystemConfig, n_c: int, u: np.ndarray,
           nulls: np.ndarray | None = None) -> np.ndarray:
    """Write the unit eigenvectors at phases u into the columns of ``out``
    ((n_c + 2) x u.size), in place: each is the lattice vector of its leg
    system's null vector, one row of ``nulls`` or, if None, the SVD's last
    right singular vector.  Returns the null vectors.  Every step acts on
    each column alone, so a column is the same bit for bit whichever phases
    are built with it."""
    x = _half_detuning(u)
    mats, legs = _leg_system(out, cfg, n_c, u, x)
    if nulls is None:
        nulls = _right_singular(mats, n_c + 2)[:, -1]
    _combine(out, cfg, n_c, u, x, nulls, legs)
    out /= np.sqrt(_column_sums(out, out))
    return nulls


def _orthogonalize_clusters(vectors: np.ndarray, cfg: SystemConfig, n_c: int,
                            u: np.ndarray, starts: np.ndarray) -> None:
    """Give each degenerate cluster among the columns of ``vectors`` (at
    phases u; clusters start at ``starts``, then u.size) an orthonormal
    basis of its null spaces, in place: member q's vector is the null
    vector of its leg system among the solutions whose lattice vectors are
    orthogonal to the members before it."""
    side = len(_leg_columns(cfg, n_c)) + 3
    for first, end in zip(starts[:-1], starts[1:]):
        for q in range(first + 1, end):
            # the lattice vectors of the unit solutions at u[q], one per column
            at = np.full(side, u[q])
            x = _half_detuning(at)
            lifts = np.empty((n_c + 2, side))
            mats, legs = _leg_system(lifts, cfg, n_c, at, x)
            _combine(lifts, cfg, n_c, at, x, np.eye(side), legs)
            basis = _right_singular(vectors[:, first:q].T @ lifts, n_c + 2)[q - first:].T
            column = lifts @ (basis @ _right_singular(mats[0] @ basis, n_c + 2)[-1])
            vectors[:, q] = column / np.linalg.norm(column)


def _rebuild(cfg: SystemConfig, n_c: int, u: np.ndarray, nulls: np.ndarray,
             starts: np.ndarray, lo: int, hi: int, solve: bool = False) -> np.ndarray:
    """Columns lo..hi-1 of the eigenvector matrix from their phases u and
    the rows of ``nulls``, their leg systems' null vectors (with ``solve``,
    solved for and written there): the whole degenerate clusters (starting
    at ``starts``) that hold them are built (``_build``) and made
    orthonormal (``_orthogonalize_clusters``), then sliced."""
    first = int(starts[np.searchsorted(starts, lo, side="right") - 1])
    end = int(starts[np.searchsorted(starts, hi)])
    out = np.empty((n_c + 2, end - first))
    if solve:
        nulls[first:end] = _build(out, cfg, n_c, u[first:end])
    else:
        _build(out, cfg, n_c, u[first:end], nulls[first:end])
    inside = starts[(starts >= first) & (starts <= end)] - first
    _orthogonalize_clusters(out, cfg, n_c, u[first:end], inside)
    return out[:, lo - first:hi - first]


def lattice_eigenbasis(cfg: SystemConfig, n_c: int) -> Eigenbasis:
    """Complete orthonormal eigenbasis of the ``n_c``-site lattice, energies
    ascending: the contract of ``eigendecompose(build_hamiltonian(cfg, n_c))``
    without the dense Hamiltonian, an n x n eigensolver or an n x n array.

    Energies come from ``_phases`` (safeguarded regula falsi, bracketed by
    an O(1) inertia count), vectors from the null vectors of the per-energy
    leg systems of side r + 3 for r distinct leg sites (``_leg_system``),
    whatever the leg span, with the free runs between and beyond the legs
    written in place.  Degenerate clusters are made orthonormal by
    ``_orthogonalize_clusters``.  One pass over ``_BLOCK_STATES``-state
    blocks (``_checked_pass``) builds every column, takes one
    Rayleigh-quotient step, v^T (H - E) v, and rebuilds the columns of
    states outside a cluster whose energy it moves by more than
    ``_REFINE_TOL`` ||H|| at the moved phase; then it checks the residual
    and bounds the orthonormality of the final columns.  The basis keeps
    the final phases u and each state's leg-system null vector (r + 3
    numbers, so a rebuild takes no SVD), and its ``columns`` rebuild any
    block from them (``_rebuild``), each column bit for bit as this pass
    built it.
    ``report`` records the checks and the solver's sizes.

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
    starts = _cluster_starts(energies, cfg.xi)
    clustered = np.repeat(np.diff(starts) > 1, np.diff(starts))
    sites = lattice_sites(cfg, n_c)
    nulls = np.empty((n_c + 2, len(_leg_columns(cfg, n_c)) + 3))
    columns = functools.partial(_rebuild, cfg, n_c, u, nulls, starts)

    def refine(lo: int, hi: int, block: np.ndarray, quotients: np.ndarray) -> bool:
        quotients[clustered[lo:hi]] = 0.0
        redo = np.flatnonzero(np.abs(quotients) > _REFINE_TOL * h_norm)
        if redo.size == 0:
            return False
        q = lo + redo
        u[q] += quotients[redo] / (2.0 * cfg.xi * _energy_slope(u[q]))
        energies[q] = cfg.omega_c - 2.0 * cfg.xi * _half_detuning(u[q])
        fresh = np.empty((n_c + 2, redo.size))
        nulls[q] = _build(fresh, cfg, n_c, u[q])
        block[:, redo] = fresh
        return True

    residual, ortho, pairs, atoms, weights = _checked_pass(
        cfg, sites, energies, starts, columns, functools.partial(columns, solve=True), refine)
    _check_tolerances(residual, h_norm, ortho)
    return Eigenbasis(energies, sites, starts, atoms, weights, columns, SolveReport(
        residual=residual, h_norm=h_norm, orthonormality=ortho, close_pairs=pairs,
        leg_system_dim=len(_leg_columns(cfg, n_c)) + 3, count_steps=steps))


@dataclass(frozen=True)
class ClassifiedSpectrum:
    """The classified lattice spectrum, one entry per eigenstate in the
    order of ``Eigenbasis.energies``: a degenerate cluster's members are its
    localized rotation (``_localized_rotation``) and share the cluster's
    mean energy."""

    energies: np.ndarray          # each state's energy, a cluster's at its mean
    labels: np.ndarray            # "BIC" | "BOC" | "extended"
    ipr: np.ndarray               # inverse participation ratio
    atoms: np.ndarray             # 2 x n: atomic amplitudes A1 (row 0) and A2
    photon: dict[int, np.ndarray]  # state index -> |B_j|^2 per chain column; BIC and BOC only


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


def classify_bound_states(basis: Eigenbasis, cfg: SystemConfig) -> ClassifiedSpectrum:
    """Label every eigenstate as BIC, BOC, or extended.

    A state is a bound-state candidate when its inverse participation ratio
    is at least ``IPR_THRESHOLD`` and at least half of its weight sits on
    the atoms plus the sites within 5 of the outermost legs; candidates
    inside the open band are BICs, outside it BOCs.  Nearly degenerate
    states (``basis.starts``, within 1e-6 xi) are first rotated to a
    maximally-localized basis (``_localized_rotation``), which untangles
    bound states from accidentally degenerate band states; the returned
    spectrum is that rotated basis.  States with essentially no photon
    weight (a decoupled atom) and states within 1e-3 xi of a band edge are
    never bound states.

    The weights and atomic amplitudes of all states are those the pass
    that checked the basis recorded (``basis.weights``, ``basis.atoms``).
    The basis is read only as the columns of each degenerate cluster, whose
    rotated states replace its members' weights, and of each BIC and BOC,
    whose photon probabilities ``photon`` keeps.  The labels are set for
    all states at once.
    """
    energies = basis.energies.copy()
    mask = _window(cfg, basis.sites)
    ipr, photon_weight, window = basis.weights.copy()
    atoms = basis.atoms.copy()
    rotated: dict[int, np.ndarray] = {}  # the rotated column of each clustered state
    for i, j in zip(basis.starts[:-1], basis.starts[1:]):
        if j - i > 1:
            window[i:j], vecs = _localized_rotation(basis.columns(i, j), mask)
            ipr[i:j], photon_weight[i:j], _ = _state_weights(vecs, mask)
            energies[i:j] = np.mean(basis.energies[i:j])
            atoms[:, i:j] = vecs[:2]
            rotated.update(zip(range(i, j), vecs.T))

    in_band = (cfg.band_bottom < energies) & (energies < cfg.band_top)
    near_edge = ((np.abs(energies - cfg.band_bottom) < BAND_EDGE_GUARD * cfg.xi)
                 | (np.abs(energies - cfg.band_top) < BAND_EDGE_GUARD * cfg.xi))
    localized = ((ipr >= IPR_THRESHOLD) & (window >= WINDOW_MIN_WEIGHT)
                 & (photon_weight >= MIN_PHOTON_WEIGHT))
    labels = np.where(localized & in_band & ~near_edge, "BIC",
                      np.where(localized & ~in_band, "BOC", "extended"))
    photon = {q: (rotated[q] if q in rotated else basis.columns(q, q + 1)[:, 0])[2:] ** 2
              for q in np.flatnonzero(labels != "extended").tolist()}
    return ClassifiedSpectrum(energies, labels, ipr, atoms, photon)


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


def exact_propagate(
    cfg: SystemConfig,
    psi0: WavefunctionState,
    grid: TimeGrid,
    basis: Eigenbasis,
    snapshot_times: tuple[float, ...] = (),
) -> tuple[AtomTrajectory, list[FieldSnapshot]]:
    """Propagate by spectral decomposition: psi(t) = sum_q e^{-iE_q t} <v_q|psi0> v_q.

    ``basis`` is the eigenbasis of an n_c-site lattice (n = n_c + 2 states),
    read once, in the blocks of about ``_BLOCK_STATES`` states of
    ``basis.blocks``.  The atomic amplitudes use the uniform grid: with
    B = ceil(sqrt(T)) for T nodes, node n = jB + k has t_n = (jB + k) dt, so
    a_i(t_n) = sum_q e^{-iE_q k dt} [w_iq e^{-iE_q jB dt}], w_iq = v_q[i] <v_q|psi0>.
    Each block's overlaps <v_q|psi0> come from the rows psi0 touches and
    w_1, w_2 from rows 0 and 1; the block adds the complex product of its
    (B x block) inner-phase table and its (block x 2 ceil(T/B))
    outer-phase table, scaled by w_1 and w_2, to the (B x 2 ceil(T/B))
    amplitude table, and the real product of its columns with the real and
    imaginary parts of its (block x #snapshots) coefficient table to the
    snapshots.  That is about 2nT complex multiply-adds and about
    2n sqrt(T) complex exponentials in all.  Besides the O(T) result and
    the O(n #snapshots) snapshots, the scratch is one block of columns and
    O(block sqrt(T)) for the phase tables: no n x n or n x sqrt(T) array
    is made.  Without snapshots and photon sites in ``psi0`` only rows A1
    and A2 are read, from ``basis.atoms``: no column is rebuilt.

    Warns (does not fail) when n_c is below the wavefront criterion for
    the requested horizon, i.e. when the horizon goes past
    :func:`reflection_free_time`.  Snapshots of
    the full photon field are returned for the requested times (which must
    lie on the grid).  A photon site of ``psi0`` that is not one of
    ``basis.sites`` raises ValueError.
    """
    energies = basis.energies
    n_c = energies.size - 2
    t_free = reflection_free_time(cfg, n_c, grid.dt)
    if grid.t_end > t_free:
        warnings.warn(
            f"n_c={n_c} is below the wavefront criterion for t_max={grid.t_end}: "
            f"radiation reflected off the chain ends is back at the legs after "
            f"t={t_free:g}", stacklevel=2)
    photon_rows = []  # (row of V, amplitude) of each photon site of psi0
    for site, amp in psi0.beta.items():
        col = np.flatnonzero(basis.sites == site)
        if col.size != 1:
            raise ValueError(f"site {site} lies outside the lattice")
        photon_rows.append((2 + col[0], complex(amp)))

    times = grid.times()
    n_t = times.size
    inner = math.isqrt(n_t - 1) + 1  # ceil(sqrt(T)): nodes per outer step
    n_outer = -(-n_t // inner)
    inner_times = np.arange(inner) * grid.dt
    outer_times = np.arange(n_outer) * (inner * grid.dt)
    nodes = [grid.node(t) for t in snapshot_times]
    n_s = len(nodes)
    # amps[k, j] = a_1 at node j*inner + k; columns n_outer.. hold a_2
    amps = np.zeros((inner, 2 * n_outer), dtype=complex)
    # psi[:, i] and psi[:, n_s + i]: real and imaginary parts of snapshot i
    psi = np.zeros((n_c + 2, 2 * n_s))
    atoms_only = not (n_s or photon_rows)
    for lo, hi in basis.blocks(_BLOCK_STATES):
        vectors = basis.atoms[:, lo:hi] if atoms_only else basis.columns(lo, hi)
        part = energies[lo:hi]
        coeff = vectors[0] * complex(psi0.alpha_1) + vectors[1] * complex(psi0.alpha_2)
        for row, amp in photon_rows:
            coeff += vectors[row] * amp
        inner_phase = -1j * np.outer(inner_times, part)
        np.exp(inner_phase, out=inner_phase)
        # the outer phases are formed in place in the first half of ``scaled``
        scaled = np.empty((hi - lo, 2 * n_outer), dtype=complex)
        outer_phase = scaled[:, :n_outer]
        np.multiply(-1j, np.outer(part, outer_times), out=outer_phase)
        np.exp(outer_phase, out=outer_phase)
        np.multiply(outer_phase, (vectors[1] * coeff)[:, None], out=scaled[:, n_outer:])
        outer_phase *= (vectors[0] * coeff)[:, None]
        amps += inner_phase @ scaled
        if n_s:
            table = coeff[:, None] * np.exp(-1j * np.outer(part, times[nodes]))
            psi += vectors @ np.concatenate([table.real, table.imag], axis=1)
        del vectors, inner_phase, scaled, outer_phase  # freed before the next block is built
    a1 = amps[:, :n_outer].T.reshape(-1)[:n_t]
    a2 = amps[:, n_outer:].T.reshape(-1)[:n_t]
    trajectory = AtomTrajectory(grid=grid, alpha_1=a1, alpha_2=a2)
    beta = psi[2:, :n_s] + 1j * psi[2:, n_s:]
    return trajectory, [FieldSnapshot(time=times[n], sites=basis.sites, beta=beta[:, i])
                        for i, n in enumerate(nodes)]
