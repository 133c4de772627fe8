"""Beyond-Markovian single-excitation dynamics.

Eliminating the waveguide modes exactly (photon field initially in vacuum)
leaves two coupled Volterra integro-differential equations for the atomic
amplitudes,

    d alpha_1/dt = -i Omega_1 alpha_1
                   - 2 g_1^2   int_0^t K_1(tau) alpha_1(t - tau) dtau
                   -   g_1 g_2 int_0^t K_c(tau) alpha_2(t - tau) dtau,

(and the 1 <-> 2 partner), with memory kernels built from Bessel functions:

    K_i(tau) = e^{-i omega_c tau} [J_0(2 xi tau) + i^{N_i} J_{N_i}(2 xi tau)],
    K_c(tau) = e^{-i omega_c tau} sum_{j,j'} i^{n_j - m_j'} J_{n_j - m_j'}(2 xi tau).

The same kernels integrated over [0, t] give a time-dependent 2x2 matrix
M(t) whose eigenvalue imaginary parts diagnose the number of bound states
in the continuum (no decaying eigenvalue <-> two BICs, one <-> one, none
<-> zero).  The photon field in real space is reconstructed a posteriori by
convolving the atomic histories with single-site kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import (
    AtomTrajectory,
    ConfigError,
    FieldSnapshot,
    SolverError,
    SystemConfig,
    TimeGrid,
    WavefunctionState,
    light_cone_reach,
)
from .specfun import bessel_j_table

MAX_KERNEL_DT = 0.1
# Nodes per Volterra block (set by measurement: the resolvent build and the
# S-sized scratch grow with it, the sums over earlier blocks shrink; 1024
# is faster on fig3 but adds about 1 MB of peak memory).
_BLOCK = 512
# Nodes per Bessel table block of photon_field: its scratch is
# O(_FIELD_CHUNK * orders) whatever the horizon.
_FIELD_CHUNK = 2048
# Bytes of Bessel table per node block of build_kernels, whatever the leg
# span and the horizon.
_KERNEL_SCRATCH = 1 << 20
# Bytes of phase tables and block sums per momentum block of photon_norm,
# whatever the field's extent and the horizon.
_K_SCRATCH = 1 << 20
# Solver aborts when a population exceeds this (quadrature instability).
POPULATION_ABORT = 1.0 + 1e-3

_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def unit_power(p: int) -> complex:
    """i**p by exact lookup.  For the Bessel combinations used here
    i^p J_p = i^{|p|} J_{|p|}, so only |p| mod 4 matters."""
    return _I_POW[abs(int(p)) % 4]


@dataclass(frozen=True)
class KernelSet:
    """Memory-kernel integrands tabulated on a time grid."""

    k_self_1: np.ndarray
    k_self_2: np.ndarray
    k_cross: np.ndarray


def check_kernel_grid(cfg: SystemConfig, grid: TimeGrid) -> None:
    """Raise ConfigError unless ``dt <= 0.1/xi``, so the oscillatory Bessel
    tails of the kernels are resolved."""
    if grid.dt > MAX_KERNEL_DT / cfg.xi:
        raise ConfigError(f"dt={grid.dt} too coarse for kernel tables; need dt <= 0.1/xi")


def kernel_order_max(cfg: SystemConfig) -> int:
    """Highest Bessel order of the memory kernels: the leg distances."""
    return max(cfg.size_1, cfg.size_2, *cfg.cross_distances)


def build_kernels(cfg: SystemConfig, grid: TimeGrid) -> KernelSet:
    """Tabulate K_1, K_2 and K_c at every grid node.

    Requires ``dt <= 0.1/xi`` (see :func:`check_kernel_grid`).
    At tau = 0 the self kernels equal 1 and the cross kernel equals the
    number of shared legs (zero for braided, non-touching geometries).
    The Bessel table up to ``kernel_order_max`` is filled in node blocks of
    at most ``_KERNEL_SCRATCH`` bytes, and only its columns the kernels
    read (order 0, the atom sizes and the cross distances) are kept: a row
    of ``bessel_j_table`` depends only on the highest order and its
    argument, so the kernels are those of one table over all nodes, bit
    for bit, whatever the leg span and the horizon.
    """
    check_kernel_grid(cfg, grid)
    taus = grid.times()
    order_max = kernel_order_max(cfg)
    orders = sorted({0, cfg.size_1, cfg.size_2, *cfg.cross_distances})
    table = np.empty((taus.size, len(orders)))
    rows = max(1, _KERNEL_SCRATCH // (8 * (order_max + 1)))
    for s in range(0, taus.size, rows):
        table[s:s + rows] = bessel_j_table(order_max, 2.0 * cfg.xi * taus[s:s + rows])[:, orders]
    column = dict(zip(orders, table.T))
    phase = np.exp(-1j * cfg.omega_c * taus)
    k1 = phase * (column[0] + unit_power(cfg.size_1) * column[cfg.size_1])
    k2 = phase * (column[0] + unit_power(cfg.size_2) * column[cfg.size_2])
    kc = np.zeros_like(phase)
    for p in cfg.cross_distances:
        kc += unit_power(p) * column[p]
    kc *= phase
    return KernelSet(k_self_1=k1, k_self_2=k2, k_cross=kc)


def _cumulative_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    out = np.zeros(values.shape[0], dtype=complex)
    out[1:] = np.cumsum(0.5 * (values[1:] + values[:-1])) * dt
    return out


@dataclass(frozen=True)
class EigenTrace:
    """Continuity-ordered eigenvalues of M(t) along the grid, with the
    matrix entries kept for trace/determinant consistency checks."""

    grid: TimeGrid
    lambda_1: np.ndarray
    lambda_2: np.ndarray
    a_1: np.ndarray
    a_2: np.ndarray
    b: np.ndarray

    def trace_determinant_residual(self) -> float:
        """Max relative violation of lam1+lam2 = A1+A2 and
        lam1*lam2 = A1 A2 - B^2 over the grid."""
        tr = self.a_1 + self.a_2
        det = self.a_1 * self.a_2 - self.b ** 2
        r1 = np.abs(self.lambda_1 + self.lambda_2 - tr) / np.maximum(np.abs(tr), 1.0)
        r2 = np.abs(self.lambda_1 * self.lambda_2 - det) / np.maximum(np.abs(det), 1.0)
        return float(max(r1.max(), r2.max()))


def m_eigenvalues_trace(cfg: SystemConfig, grid: TimeGrid,
                        kernels: KernelSet | None = None) -> EigenTrace:
    """Eigenvalues lambda_+-(t) of M(t) at every node, ordered so each trace
    is continuous in the complex plane (nearest-neighbor matching between
    consecutive nodes, see :func:`_continuity_order`)."""
    if kernels is None:
        kernels = build_kernels(cfg, grid)
    dt = grid.dt
    a1 = cfg.omega_1 - 2j * cfg.g_1 ** 2 * _cumulative_trapezoid(kernels.k_self_1, dt)
    a2 = cfg.omega_2 - 2j * cfg.g_2 ** 2 * _cumulative_trapezoid(kernels.k_self_2, dt)
    b = -1j * cfg.g_1 * cfg.g_2 * _cumulative_trapezoid(kernels.k_cross, dt)
    mean = 0.5 * (a1 + a2)
    root = np.sqrt(0.25 * (a1 - a2) ** 2 + b ** 2)
    lam1, lam2 = _continuity_order(mean + root, mean - root)
    return EigenTrace(grid=grid, lambda_1=lam1, lambda_2=lam2, a_1=a1, a_2=a2, b=b)


def _continuity_order(lam1: np.ndarray, lam2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reorder two eigenvalue traces so each is continuous: node 0 puts the
    larger real part first, and node n swaps its pair when the swapped pair
    is strictly closer (sum of distances) to the ordered pair at n - 1.

    Vectorized over nodes.  Compared with the raw pairs of nodes n - 1 and
    n, the swapped pair is the closer one ("flip"), the kept one, or neither
    (an exact tie, or NaN).  Relative to the ordered previous pair the two
    distance sums trade places when node n - 1 was swapped, so the swap
    state is the running parity of flips, restarted at every node where
    neither is closer: there the pair is never swapped.
    """
    def dist(u, v):  # |u - v| rounded as the scalar abs() rounds it
        d = u - v
        return np.hypot(d.real, d.imag)

    keep = dist(lam1[1:], lam1[:-1])
    keep += dist(lam2[1:], lam2[:-1])
    swap = dist(lam2[1:], lam1[:-1])
    swap += dist(lam1[1:], lam2[:-1])
    flip = np.concatenate(([lam1[0].real < lam2[0].real], swap < keep))
    restart = np.concatenate(([True], ~flip[1:] & ~(keep < swap)))
    last = np.maximum.accumulate(np.where(restart, np.arange(lam1.size), 0))
    # parity of the flips at nodes last..n; flip[last] is False unless last = 0
    parity = np.logical_xor.accumulate(flip)
    swapped = parity ^ parity[last] ^ flip[last]
    return np.where(swapped, lam2, lam1), np.where(swapped, lam1, lam2)


def _phases(cfg: SystemConfig, dt: float) -> np.ndarray:
    """The integrating factor's diagonal, e^{-i Omega_i dt}."""
    return np.exp(-1j * np.array([cfg.omega_1, cfg.omega_2]) * dt)


def _closure(cfg: SystemConfig, psi0: WavefunctionState, u: np.ndarray,
             kernels: KernelSet) -> tuple:
    """The memory equations as a real system of the four components
    r = (Re alpha_1, Re alpha_2, Im alpha_1, Im alpha_2), as (r0, U, series,
    terms, keep): U = [[U_r, -U_i], [U_i, U_r]], and the entry (i, j) of
    K = [[K_r, -K_i], [K_i, K_r]] is ``sign`` times c * part for each
    (i, j, k, sign) of ``terms`` and (c, part) = ``series[k]``, the
    coupled real parts of K_1, K_2, K_c (k < 3), then their imaginary parts.
    Terms of a zero coupling or part are left out.  ``keep`` marks the
    components that the nonzero entries of r0 reach through nonzero
    entries of U and K; the others stay exactly zero."""
    a_1, a_2 = complex(psi0.alpha_1), complex(psi0.alpha_2)
    r0 = np.array([a_1.real, a_2.real, a_1.imag, a_2.imag])
    u_r, u_i = np.diag(u.real), np.diag(u.imag)
    u_mat = np.block([[u_r, -u_i], [u_i, u_r]])
    couplings = (-2.0 * cfg.g_1 ** 2, -2.0 * cfg.g_2 ** 2, -cfg.g_1 * cfg.g_2)
    kernel_list = (kernels.k_self_1, kernels.k_self_2, kernels.k_cross)
    series = [(c, kernel.real) for c, kernel in zip(couplings, kernel_list)]
    series += [(c, kernel.imag) for c, kernel in zip(couplings, kernel_list)]
    nonzero = [c != 0.0 and part.any() for c, part in series]
    pattern = ((0, 0, 0), (1, 1, 1), (0, 1, 2), (1, 0, 2))  # (i, j, kernel) of the 2 x 2 K
    terms = [t for i, j, k in pattern for t in (
        (i, j, k, 1.0), (i + 2, j + 2, k, 1.0), (i + 2, j, k + 3, 1.0), (i, j + 2, k + 3, -1.0))
        if nonzero[t[2]]]
    link = u_mat != 0.0  # link[i, j]: component j feeds component i
    for i, j, _, _ in terms:
        link[i, j] = True
    keep = r0 != 0.0
    for _ in range(3):  # a path between four components takes at most 3 steps
        keep |= (link & keep).any(axis=1)
    return r0, u_mat, series, terms, keep


def volterra_components(cfg: SystemConfig, psi0: WavefunctionState, grid: TimeGrid,
                        kernels: KernelSet) -> int:
    """Real components of the system :func:`solve_volterra` integrates:
    the parts of the amplitudes that psi0 reaches (``_closure``; no FFT)."""
    return int(_closure(cfg, psi0, _phases(cfg, grid.dt), kernels)[-1].sum())


@dataclass(frozen=True)
class _RealForm:
    """The memory equations as a real system of m components r: the local
    term of d r/dt is taken out by the integrating factor ``u`` (m x m),
    the memory term is the convolution K * r of an m x m matrix of kernels
    with the couplings folded in, and r(0) = ``r0``.  K's entry (i, j)
    is ``sign`` times kernel series ``k`` for each (i, j, k, sign) of
    ``terms``, zero elsewhere.  ``head`` holds K over the first block as
    m x m matrices, and ``spectra[k, d - 1]`` the length-2S real FFT of
    series k over nodes (d-1)S..(d+1)S-1 (zero past the last node), for
    S = ``_BLOCK`` and every block lag d >= 1.  Component c is part
    ``parts[c]`` of (Re alpha_1, Re alpha_2, Im alpha_1, Im alpha_2)."""

    head: np.ndarray
    spectra: np.ndarray
    terms: tuple[tuple[int, int, int, float], ...]
    u: np.ndarray
    r0: np.ndarray
    parts: tuple[int, ...]


def _real_form(cfg: SystemConfig, psi0: WavefunctionState, u: np.ndarray,
               kernels: KernelSet) -> _RealForm:
    """The system of ``_closure`` cut down to its kept components, in
    order.  Only the series that their terms read are formed, and all of
    them are transformed in one batched FFT."""
    r0, u_mat, series, terms, keep = _closure(cfg, psi0, u, kernels)
    parts = np.flatnonzero(keep)
    index = np.cumsum(keep) - 1  # a component's position among the kept
    terms = [t for t in terms if keep[t[1]]]  # a kept column keeps its row too
    used = sorted({k for _, _, k, _ in terms})
    n_nodes = kernels.k_self_1.size
    s = _BLOCK
    n_blocks = -(-n_nodes // s)
    length = max(n_blocks, 2) * s  # whole blocks, and at least one 2S segment
    formed = np.zeros((len(used), length))
    for row, k in zip(formed, used):
        np.multiply(*series[k], out=row[:n_nodes])
    terms = tuple((int(index[i]), int(index[j]), used.index(k), sign) for i, j, k, sign in terms)
    head = np.zeros((min(s, n_nodes), parts.size, parts.size))
    for i, j, k, sign in terms:
        np.multiply(sign, formed[k, :head.shape[0]], out=head[:, i, j])
    spectra = np.fft.rfft(sliding_window_view(formed, 2 * s, axis=1)[:, :(n_blocks - 1) * s:s])
    return _RealForm(head, spectra, terms, u_mat[np.ix_(parts, parts)], r0[parts],
                     tuple(parts.tolist()))


def solve_volterra(cfg: SystemConfig, psi0: WavefunctionState, grid: TimeGrid,
                   kernels: KernelSet | None = None) -> AtomTrajectory:
    """Integrate the exact memory equations with a second-order
    predictor-corrector trapezoidal convolution scheme.

    The photon field must start in vacuum (the kernel derivation assumes
    it).  Each step is an exponential-Euler predictor and an
    exponential-trapezoid corrector; an integrating factor takes out the
    local phases U = diag(e^{-i omega dt}).  The solve runs on the real
    and imaginary parts of the amplitudes, keeping only those that psi0
    reaches through nonzero entries of U and the kernels (``_real_form``):
    atom1 on resonance, with even-sized atoms and cross distances of one
    parity (every preset and sweep), reaches 2, and off resonance 4.  A
    part that is not reached is never computed, so it is exactly +0.0.
    See ``_solve_form`` for the block resolvent; the cost for T nodes,
    S = ``_BLOCK`` and m components is O(m^3 S^2) once plus
    O(m^2 T^2 / S + m T log S), and the memory O(m T).  Deterministic.

    Raises
    ------
    SolverError
        If a population exceeds 1 + 1e-3 (step too coarse) or is not finite,
        at the first such node of the causal sums (one overflow turns a
        whole FFT into NaN).
    """
    if not psi0.photon_vacuum:
        raise ValueError("solve_volterra requires an initially empty photon sector")
    if kernels is None:
        kernels = build_kernels(cfg, grid)
    n_nodes = grid.n_steps + 1
    form = _real_form(cfg, psi0, _phases(cfg, grid.dt), kernels)
    alpha_1, alpha_2 = _solve_form(form, grid.dt, n_nodes)
    return AtomTrajectory(grid=grid, alpha_1=alpha_1, alpha_2=alpha_2)


def _solve_form(form: _RealForm, dt: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """alpha_1 and alpha_2 at ``n_nodes`` nodes from the real form.

    The scheme is linear and shift-invariant, so in a block of
    S = ``_BLOCK`` nodes from lo on the amplitudes are the causal
    convolution of a forcing F (every term from before lo) with one m x m
    resolvent X = (1 - U z - W(z))^{-1} (Hairer, Lubich & Schlichte, SIAM
    J. Sci. Stat. Comput. 6, 532 (1985)), built once by
    X_k = U X_{k-1} + sum_d W_d X_{k-d} and applied by length-2S real
    FFTs.  U enters no rounded matrix: X_k U r_{lo-1} is a direct product.
    The kernel series are transformed once, in segments
    K[(d-1)S:(d+1)S] for block lags d >= 1: the second half of a length-2S
    circular product of such a segment with a zero-padded block of
    amplitudes is that block's contribution to the history sums d blocks
    later (the wrapped terms land in the first half).  As soon as a block
    is done, its m amplitude spectra are multiplied into the history
    spectra of every later block, one product per term of K and per lag,
    node 0 at the trapezoid's half weight.
    """
    s = _BLOCK
    n_blocks = -(-n_nodes // s)
    m = form.r0.size
    terms, u_mat, kmat, k_hat = form.terms, form.u, form.head, form.spectra
    n_x = kmat.shape[0]

    q_mat = 0.25 * dt * dt * kmat[0] @ u_mat  # r_{n-1} in node n's predictor tau = 0 term
    b_mat = 0.5 * dt * u_mat + dt * q_mat  # weight of f_{n-1} in r_n
    w = 0.5 * dt * dt * kmat[1:]  # w[d - 1] = W_d
    w[1:] += dt * b_mat @ kmat[1:-1]
    w[:1] += q_mat + 0.5 * dt * b_mat @ kmat[0]
    # x_rev[n_x - 1 - k] = X_k, so X_{k-1}, .., X_0 is one contiguous view
    w_row = w.transpose(1, 0, 2).reshape(m, m * (n_x - 1))  # [W_1 W_2 ..], also for m = 0
    x_rev = np.tile(np.eye(m), (n_x, 1, 1))  # X_0 = 1, the rest overwritten
    x_col = x_rev.reshape(m * n_x, m)
    with np.errstate(over="ignore", invalid="ignore"):  # see the population check
        for i in range(n_x - 2, -1, -1):
            np.matmul(w_row[:, :m * (n_x - 1 - i)], x_col[m * i + m:], out=x_rev[i])
            x_rev[i] += u_mat @ x_rev[i + 1]
        x = x_rev[::-1]
        x_hat = np.fft.rfft(x.transpose(1, 2, 0), n=2 * s)  # [i, j, frequency]

    alpha = np.zeros((2, n_nodes), dtype=complex)  # parts not solved stay +0.0
    views = [alpha[p % 2].imag if p >= 2 else alpha[p % 2].real
             for p in form.parts]  # component c's view
    prev = form.r0  # r_{lo-1}
    for view, r in zip(views, prev):
        view[0] = r
    f_prev = np.zeros(m)  # memory derivative at lo - 1
    hist_hat = np.zeros((m, n_blocks, s + 1), dtype=complex)  # history sums of each block
    prod = np.empty((n_blocks - 1, s + 1), dtype=complex)
    for b in range(n_blocks):
        start = b * s
        lo = max(start, 1)
        stop = min(start + s, n_nodes)
        if b == 0:  # node 0 at the trapezoid's half weight
            h = 0.5 * (kmat[lo:stop] @ form.r0).T
        else:
            h = np.fft.irfft(hist_hat[:, b], n=2 * s)[:, s + lo - start:s + stop - start]
        f = 0.5 * dt * dt * h
        f[:, 1:] += dt * b_mat @ h[:, :-1]
        f[:, 0] += q_mat @ prev + b_mat @ f_prev
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value fails the check
            direct = x[:stop - lo] @ (u_mat @ prev)
            f_hat = np.fft.rfft(f, n=2 * s)
            block = np.fft.irfft((x_hat * f_hat).sum(axis=1), n=2 * s)[:, :stop - lo]
            block += direct.T
            if not (_populations(block, form.parts) <= POPULATION_ABORT).all():
                for k in range(stop - lo):  # the first bad node, from the causal sums
                    block[:, k] = direct[k] + np.einsum("kij,jk->i", x[k::-1], f[:, :k + 1])
                    p_1, p_2 = _populations(block[:, k], form.parts)
                    if not (p_1 <= POPULATION_ABORT and p_2 <= POPULATION_ABORT):
                        raise SolverError(
                            f"population exceeded {POPULATION_ABORT} at t={(lo + k) * dt:.6g} "
                            f"(|a1|^2={p_1:.6g}, |a2|^2={p_2:.6g}); reduce dt")
        for view, row in zip(views, block):
            view[lo:stop] = row
        if b < n_blocks - 1:  # carry r and the memory derivative at stop - 1
            f_prev = dt * (h[:, -1] + 0.5 * kmat[0] @ block[:, -1] + np.einsum(
                "dij,jd->i", kmat[stop - lo - 1:0:-1], block[:, :-1]))
            prev = block[:, -1]
            if b == 0:  # node 0 at the trapezoid's half weight
                block = np.concatenate([0.5 * form.r0[:, None], block], axis=1)
            a_hat = np.fft.rfft(block, n=2 * s)
            lags = n_blocks - 1 - b
            for i, j, k, sign in terms:
                np.multiply(k_hat[k, :lags], a_hat[j], out=prod[:lags])
                later = hist_hat[i, b + 1:]
                (np.add if sign > 0.0 else np.subtract)(later, prod[:lags], out=later)
    return alpha[0], alpha[1]


def _populations(r: np.ndarray, parts: tuple[int, ...]) -> np.ndarray:
    """|alpha_1|^2 and |alpha_2|^2 from the real components r (rows), row
    c part ``parts[c]`` of (Re alpha_1, Re alpha_2, Im alpha_1, Im alpha_2)."""
    populations = np.zeros((2, *r.shape[1:]))
    for row, part in zip(r, parts):
        populations[part % 2] += row * row
    return populations


def field_order_max(cfg: SystemConfig, sites) -> int:
    """Highest Bessel order :func:`photon_field` needs for a site window:
    the largest distance from a site to a leg."""
    sites = np.asarray(sites, dtype=int)
    return max(int(np.abs(sites - leg).max()) for leg in cfg.legs)


def photon_field(cfg: SystemConfig, trajectory: AtomTrajectory, sites,
                 times) -> list[FieldSnapshot]:
    """Reconstruct the real-space photon amplitudes at the requested times.

    beta_j(t) = -i sum_atoms g int_0^t alpha(t - tau) * e^{-i omega_c tau}
                sum_legs i^{j-leg} J_{j-leg}(2 xi tau) dtau

    by trapezoidal quadrature on the trajectory grid.  For every atom the
    tau integral is reduced to one weighted sum per Bessel order, shared by
    both legs and by all sites at equal distance from a leg.  The Bessel
    table over the nodes up to the latest requested time is filled once, in
    ``_FIELD_CHUNK``-node blocks; each block is added to the per-order sums
    of every requested time as soon as it is filled, so the cost is one
    table plus one matrix product per block and time, and the scratch
    memory does not grow with the horizon.
    """
    grid = trajectory.grid
    sites = np.asarray(sites, dtype=int)
    nodes = [grid.node(t) for t in sorted(float(t) for t in times)]
    atoms = ((cfg.g_1, (cfg.n_1, cfg.n_2)), (cfg.g_2, (cfg.m_1, cfg.m_2)))
    alphas = np.array([trajectory.alpha_1, trajectory.alpha_2])
    order_max = field_order_max(cfg, sites)
    i_powers = np.array([unit_power(p) for p in range(order_max + 1)])
    dt = grid.dt
    taus = grid.times()
    phase = np.exp(-1j * cfg.omega_c * taus)
    weighted = dt * phase  # trapezoid weights, full inside the interval

    # sums[i] = real and imaginary parts of the per-order sums of atoms 1, 2
    # at nodes[i]: sum_k w_k e^{-i omega_c tau_k} alpha(t_n - tau_k) J(2 xi tau_k)
    sums = np.zeros((len(nodes), 4, order_max + 1))
    n_rows = max(nodes, default=-1) + 1
    for s in range(0, n_rows, _FIELD_CHUNK):
        e = min(s + _FIELD_CHUNK, n_rows)
        table = bessel_j_table(order_max, 2.0 * cfg.xi * taus[s:e])
        for i, n in enumerate(nodes):
            if n == 0 or n < s:  # empty integral, or no rows of this block
                continue
            stop = min(e, n + 1)
            # rows tau_s..tau_{stop-1} meet alpha(t_n - tau), read backwards
            v = weighted[s:stop] * alphas[:, n - stop + 1:n - s + 1][:, ::-1]
            if s == 0:
                v[:, 0] = 0.5 * dt * phase[0] * alphas[:, n]
            if stop == n + 1:
                v[:, -1] = 0.5 * dt * phase[n] * alphas[:, 0]
            # real and imaginary parts in one real product with the block
            sums[i] += np.concatenate([v.real, v.imag]) @ table[:stop - s]
        del table  # one table alive at a time, whatever the allocator does with freed blocks

    snapshots = []
    for n, part in zip(nodes, sums):
        beta = np.zeros(sites.size, dtype=complex)
        if n > 0:
            for (g, legs), u in zip(atoms, part[:2] + 1j * part[2:]):
                if g == 0.0:
                    continue
                for leg in legs:
                    dist = np.abs(sites - leg)
                    beta += -1j * g * i_powers[dist] * u[dist]
        snapshots.append(FieldSnapshot(time=taus[n], sites=sites, beta=beta))
    return snapshots


def field_extent(cfg: SystemConfig, t: float) -> int:
    """Consecutive sites the field spans at time t: the legs and, on each
    side, ``model.light_cone_reach``."""
    return cfg.span + 2 * light_cone_reach(cfg, t) + 1


def field_k_points(extent: int) -> int:
    """Size M of :func:`photon_norm`'s momentum grid for a field within
    ``extent`` consecutive sites: the smallest power of two at or above it."""
    return 1 << max(extent - 1, 0).bit_length()


def photon_norm(cfg: SystemConfig, trajectory: AtomTrajectory, t: float) -> float:
    """sum_j |beta_j|^2 of :func:`photon_field` at grid time t, for the
    field within ``field_extent(cfg, t)`` sites, from the same trapezoid
    sums summed in momentum space.

    By Jacobi-Anger, i^d J_d(x) = (1/2 pi) int e^{ix cos k} e^{-idk} dk, so
    beta_j = (1/M) sum_m e^{-ijk_m} B(k_m) with k_m = 2 pi m / M,

        B(k) = -i sum_a g_a (sum_{l in a} e^{ilk})
               sum_n w_n e^{-i omega_c tau_n} alpha_a(t - tau_n) e^{2i xi tau_n cos k},

    and photon_field's weights w_n, up to the images beta_{j + pM},
    p != 0.  By discrete Parseval (1/M) sum_m |B(k_m)|^2 is the norm of
    that field repeated with period M, which is the norm of the field
    itself when M = ``field_k_points`` of the extent keeps the copies
    apart.  The sum over n is a polynomial in e^{2i xi dt cos k}, one per
    atom, even in k: it is taken at the M/2 + 1 distinct cosines, in node
    blocks of about sqrt(N) for N nodes, with the phases within a block
    and the one phase of each block start from the cosine and sine of the
    whole angle (no running product), so each term's phase error is a few
    rounding units of its angle.  The momenta go in blocks of
    ``_K_SCRATCH`` bytes of scratch.  Each leg's phase takes its offset from
    the first leg l_0 as an exact integer mod M: |B| does not change when
    every leg shifts alike, and absolute positions would lose accuracy.
    Cost O(M N) time in BLAS products, O(N + M) memory.
    """
    grid = trajectory.grid
    n = grid.node(t)
    atoms = [(g, legs, alpha) for g, legs, alpha in (
        (cfg.g_1, (cfg.n_1, cfg.n_2), trajectory.alpha_1),
        (cfg.g_2, (cfg.m_1, cfg.m_2), trajectory.alpha_2)) if g != 0.0]
    if n == 0 or not atoms:
        return 0.0
    m = field_k_points(field_extent(cfg, t))
    taus = np.arange(n + 1) * grid.dt  # grid.times() up to t

    # coefficients c[a, b, j] of node bB + j, zero past node n
    width = max(1, int(np.sqrt(n + 1)))
    n_blocks = -(-(n + 1) // width)
    weights = np.exp(-1j * cfg.omega_c * taus)
    weights *= grid.dt
    c = np.zeros((len(atoms), n_blocks * width), dtype=complex)
    for row, (_, _, alpha) in zip(c, atoms):
        np.multiply(alpha[n::-1], weights, out=row[:n + 1])
    del weights
    c[:, [0, n]] *= 0.5
    c = c.reshape(-1, width)
    starts = taus[::width]

    # polynomial values at k_0..k_{M/2}, then the even extension
    poly = np.empty((len(atoms), m), dtype=complex)
    half = m // 2 + 1
    # k_m to about twice double precision: 2 pi = two_pi + two_pi_rest with
    # m two_pi exact; fl(2 pi) alone would scale the whole grid, which moves
    # beta by about 1e-15 at t = 200
    two_pi = math.ldexp(round(math.ldexp(2.0 * math.pi, 32)), -32)
    two_pi_rest = (2.0 * math.pi - two_pi) - math.sin(2.0 * math.pi)
    k = np.arange(half) * (two_pi / m)
    cos_k = np.cos(k) - np.sin(k) * (np.arange(half) * (two_pi_rest / m))
    k_block = max(1, _K_SCRATCH // (24 * width + (24 + 16 * len(atoms)) * n_blocks))
    for k0 in range(0, half, k_block):
        x = 2.0 * cfg.xi * cos_k[k0:k0 + k_block]
        inner = _unit_phases(np.multiply.outer(taus[:width], x))
        sums = (c @ inner).reshape(len(atoms), n_blocks, -1)
        sums *= _unit_phases(np.multiply.outer(starts, x))
        sums.sum(axis=1, out=poly[:, k0:k0 + x.size])
    poly[:, half:] = poly[:, m - half:0:-1]

    # B(k_m) up to the common factor -i e^{i l_0 k_m}
    first = cfg.outer_legs[0]
    steps = np.arange(m)
    field = np.zeros(m, dtype=complex)
    for (g, legs, _), p in zip(atoms, poly):
        legs_sum = sum(_unit_phases((leg - first) * steps % m * (2.0 * math.pi / m))
                       for leg in legs)
        field += g * legs_sum * p
    return float(np.vdot(field, field).real / m)


def _unit_phases(angles: np.ndarray) -> np.ndarray:
    """e^{i angle} for a real array, from the cosine and sine of each angle."""
    out = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=out.real)
    np.sin(angles, out=out.imag)
    return out


def steady_state_prediction(psi0: WavefunctionState, classified) -> tuple[float, float]:
    """Long-time atomic populations from the overlap with a unique BIC.

    When the system hosts exactly one bound state in the continuum, the
    extended components dephase away and the atoms approach
    |alpha_i(inf)|^2 = |<E_BIC|psi0>|^2 |A_i|^2 with A_i the normalized BIC
    atomic amplitudes.  ``classified`` is the classified lattice spectrum
    (``spectrum.classify_bound_states``), whose ``atoms`` column of the BIC
    gives A_1 and A_2.  Requires exactly one state labelled "BIC" and a
    photon-vacuum psi0.
    """
    if not psi0.photon_vacuum:
        raise ValueError("steady-state projection assumes an initially empty photon sector")
    bics = np.flatnonzero(classified.labels == "BIC")
    if bics.size != 1:
        raise ValueError(f"steady-state prediction needs exactly one BIC, found {bics.size}")
    amp_1, amp_2 = classified.atoms[:, bics[0]].tolist()
    overlap = abs(amp_1 * psi0.alpha_1 + amp_2 * psi0.alpha_2) ** 2
    return overlap * amp_1 ** 2, overlap * amp_2 ** 2


def plateau(trajectory: AtomTrajectory, xi: float) -> tuple[float, float, bool]:
    """Population means over the final 50 / xi of evolution time (``xi``
    the hopping) and a convergence flag, set when both populations vary
    by less than 1e-4 relative over that window.
    """
    grid = trajectory.grid
    n_win = max(2, int(round(50.0 / (xi * grid.dt))))
    n_win = min(n_win, grid.n_steps)
    p1 = trajectory.pop_1[-n_win:]
    p2 = trajectory.pop_2[-n_win:]
    def settled(p):
        top = p.max()
        return top == 0.0 or (top - p.min()) <= 1e-4 * top
    return float(p1.mean()), float(p2.mean()), bool(settled(p1) and settled(p2))
