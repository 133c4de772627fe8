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
from .specfun import bessel_j_table

MAX_KERNEL_DT = 0.1
# Nodes per block of the Volterra history sums (set by measurement: the
# direct within-block products grow with it, the FFT products between
# blocks shrink).
_BLOCK = 512
# Solver aborts when a population exceeds this (quadrature instability).
POPULATION_ABORT = 1.0 + 1e-3

_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def unit_power(p: int) -> complex:
    """i**p by exact lookup.  For the Bessel combinations used here
    i^p J_p = i^{|p|} J_{|p|}, so only |p| mod 4 matters."""
    return _I_POW[abs(int(p)) % 4]


class SolverError(RuntimeError):
    """Raised when the Volterra integration becomes unstable."""


@dataclass(frozen=True)
class KernelSet:
    """Memory-kernel integrands tabulated on a time grid."""

    grid: TimeGrid
    k_self_1: np.ndarray
    k_self_2: np.ndarray
    k_cross: np.ndarray
    cfg: SystemConfig


def check_kernel_grid(cfg: SystemConfig, grid: TimeGrid) -> None:
    """Raise ConfigError unless ``dt <= 0.1/xi``, so the oscillatory Bessel
    tails of the kernels are resolved."""
    if grid.dt > MAX_KERNEL_DT / cfg.xi:
        raise ConfigError(f"dt={grid.dt} too coarse for kernel tables; need dt <= 0.1/xi")


def build_kernels(cfg: SystemConfig, grid: TimeGrid) -> KernelSet:
    """Tabulate K_1, K_2 and K_c at every grid node.

    Requires ``dt <= 0.1/xi`` (see :func:`check_kernel_grid`).
    At tau = 0 the self kernels equal 1 and the cross kernel equals the
    number of shared legs (zero for braided, non-touching geometries).
    """
    cfg = validate_config(cfg)
    check_kernel_grid(cfg, grid)
    taus = grid.times()
    order_max = max(cfg.size_1, cfg.size_2, *cfg.cross_distances)
    table = bessel_j_table(order_max, 2.0 * cfg.xi * taus)
    phase = np.exp(-1j * cfg.omega_c * taus)
    k1 = phase * (table[:, 0] + unit_power(cfg.size_1) * table[:, cfg.size_1])
    k2 = phase * (table[:, 0] + unit_power(cfg.size_2) * table[:, cfg.size_2])
    kc = np.zeros_like(phase)
    for p in cfg.cross_distances:
        kc += unit_power(p) * table[:, p]
    kc *= phase
    return KernelSet(grid=grid, k_self_1=k1, k_self_2=k2, k_cross=kc, cfg=cfg)


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
    consecutive nodes, ties broken by real part)."""
    cfg = validate_config(cfg)
    if kernels is None:
        kernels = build_kernels(cfg, grid)
    dt = grid.dt
    a1 = cfg.omega_1 - 2j * cfg.g_1 ** 2 * _cumulative_trapezoid(kernels.k_self_1, dt)
    a2 = cfg.omega_2 - 2j * cfg.g_2 ** 2 * _cumulative_trapezoid(kernels.k_self_2, dt)
    b = -1j * cfg.g_1 * cfg.g_2 * _cumulative_trapezoid(kernels.k_cross, dt)
    mean = 0.5 * (a1 + a2)
    root = np.sqrt(0.25 * (a1 - a2) ** 2 + b ** 2)
    lam1 = mean + root
    lam2 = mean - root
    if lam1[0].real < lam2[0].real:
        lam1[0], lam2[0] = lam2[0], lam1[0]
    for n in range(1, lam1.size):
        keep = abs(lam1[n] - lam1[n - 1]) + abs(lam2[n] - lam2[n - 1])
        swap = abs(lam2[n] - lam1[n - 1]) + abs(lam1[n] - lam2[n - 1])
        if swap < keep:
            lam1[n], lam2[n] = lam2[n], lam1[n]
    return EigenTrace(grid=grid, lambda_1=lam1, lambda_2=lam2, a_1=a1, a_2=a2, b=b)


def solve_volterra(cfg: SystemConfig, psi0: WavefunctionState, grid: TimeGrid,
                   kernels: KernelSet | None = None) -> AtomTrajectory:
    """Integrate the exact memory equations with a second-order
    predictor-corrector trapezoidal convolution scheme.

    The photon field must start in vacuum (the kernel derivation assumes
    it).  The history sums sum_{j<m} K(tau_{m-j}) alpha_j form a
    lower-triangular Toeplitz product.  Nodes are stepped in blocks of S
    nodes (``_BLOCK``).  Before a block is stepped, the part of its sums over
    earlier blocks is added from length-2S real FFT products accumulated in
    the frequency domain; within the block only the at most S remaining
    terms are direct dot products.  The correction of the newest node only
    touches the tau = 0 endpoint term.  For T nodes the cost is
    O(T^2/S + T S) multiply-adds plus O(T log S) for the transforms, with
    O(T) memory plus O(S) FFT scratch.  Deterministic.

    Raises
    ------
    SolverError
        If either population exceeds 1 + 1e-3 (step size too coarse).
    """
    cfg = validate_config(cfg)
    if not psi0.photon_vacuum:
        raise ValueError("solve_volterra requires an initially empty photon sector")
    if kernels is None:
        kernels = build_kernels(cfg, grid)
    dt = grid.dt
    n_nodes = grid.n_steps + 1
    s = _BLOCK
    n_blocks = -(-n_nodes // s)
    k1, k2, kc = kernels.k_self_1, kernels.k_self_2, kernels.k_cross

    # Real-FFT transforms of the real and imaginary parts of the kernel
    # segments K[(d-1)S:(d+1)S] for block lags d >= 1.  The second half of a
    # length-2S circular product of such a segment with a zero-padded block of
    # amplitudes is that block's contribution to the history sums d blocks
    # later (the wrapped terms land in the first half).  Convolving real and
    # imaginary parts separately keeps a part that is exactly zero exactly
    # zero, as the direct sums do: on resonance each amplitude stays purely
    # real or purely imaginary.
    k_hat = np.empty((n_blocks - 1, 2, 3, s + 1), dtype=complex)  # [lag, re/im, kernel]
    for d in range(1, n_blocks):
        for k, kernel in enumerate((k1, k2, kc)):
            segment = kernel[(d - 1) * s:(d + 1) * s]
            np.fft.rfft(segment.real, n=2 * s, out=k_hat[d - 1, 0, k])
            np.fft.rfft(segment.imag, n=2 * s, out=k_hat[d - 1, 1, k])
    a_hat = np.empty((n_blocks - 1, 2, 2, s + 1), dtype=complex)  # [block, re/im, atom]
    # products of kernel part p and amplitude part q, summed over earlier
    # blocks: acc[0, p, q] for [K_1 alpha_1, K_2 alpha_2], acc[1, p, q] for
    # [K_c alpha_1, K_c alpha_2]
    acc = np.empty((2, 2, 2, 2, s + 1), dtype=complex)
    prod = np.empty((2, 2, 2, s + 1), dtype=complex)
    spec = np.empty((2, 2, 2, s + 1), dtype=complex)  # [re/im of the sums, self/cross, atom]
    far = np.empty((2, 2, 2, 2 * s))
    # head[k][s-1-i] = K_k(tau_i) for i < s, so the within-block window of
    # node start + r is the contiguous view head[:, s-1-r:s-1]
    head = np.zeros((3, s), dtype=complex)
    n_head = min(s, n_nodes)
    for k, kernel in enumerate((k1, k2, kc)):
        head[k, s - n_head:] = kernel[n_head - 1::-1]

    amp = np.zeros((2, n_blocks * s), dtype=complex)
    a1 = amp[0, 0] = complex(psi0.alpha_1)
    a2 = amp[1, 0] = complex(psi0.alpha_2)

    c_self_1 = -2.0 * cfg.g_1 ** 2
    c_self_2 = -2.0 * cfg.g_2 ** 2
    c_cross = -cfg.g_1 * cfg.g_2
    # integrating factor removes the local -i Omega term, so free evolution
    # is reproduced to rounding and only the memory terms are quadratured
    u1 = complex(np.exp(-1j * cfg.omega_1 * dt))
    u2 = complex(np.exp(-1j * cfg.omega_2 * dt))
    # half-weight tau = 0 endpoint of the trapezoid
    h1, h2, hc = (0.5 * complex(kernel[0]) for kernel in (k1, k2, kc))

    f1, f2 = 0.0j, 0.0j  # memory derivative at node 0 (empty integrals)
    for b in range(n_blocks):
        start = b * s
        stop = min(start + s, n_nodes)
        acc.fill(0.0)
        for c in range(b):
            np.multiply(k_hat[b - c - 1, :, None, :2], a_hat[c], out=prod)
            acc[0] += prod
            np.multiply(k_hat[b - c - 1, :, None, 2:], a_hat[c], out=prod)
            acc[1] += prod
        np.subtract(acc[:, 0, 0], acc[:, 1, 1], out=spec[0])
        np.add(acc[:, 0, 1], acc[:, 1, 0], out=spec[1])
        np.fft.irfft(spec, n=2 * s, out=far)
        # history from earlier blocks, less the half-weight tau = t_m endpoint
        # term of node 0 (the trapezoid counts it fully in the sum)
        end = slice(start, stop)
        hist = far[0, ..., s:s + stop - start] + 1j * far[1, ..., s:s + stop - start]
        hist_11 = (hist[0, 0] - 0.5 * k1[end] * amp[0, 0]).tolist()
        hist_22 = (hist[0, 1] - 0.5 * k2[end] * amp[1, 0]).tolist()
        hist_c1 = (hist[1, 0] - 0.5 * kc[end] * amp[0, 0]).tolist()
        hist_c2 = (hist[1, 1] - 0.5 * kc[end] * amp[1, 0]).tolist()
        for m in range(max(start, 1), stop):
            r = m - start
            # within-block history: rows alpha_1, alpha_2; columns K_1, K_2, K_c
            (n11, _, nc1), (_, n22, nc2) = (
                amp[:, start:m] @ head[:, s - 1 - r:s - 1].T).tolist()
            # exponential-Euler predictor to the new node
            p1 = u1 * (a1 + dt * f1)
            p2 = u2 * (a2 + dt * f2)
            i1 = dt * (hist_11[r] + n11 + h1 * p1)
            i2 = dt * (hist_22[r] + n22 + h2 * p2)
            ic1 = dt * (hist_c2[r] + nc2 + hc * p2)
            ic2 = dt * (hist_c1[r] + nc1 + hc * p1)
            e1 = c_self_1 * i1 + c_cross * ic1
            e2 = c_self_2 * i2 + c_cross * ic2
            # exponential-trapezoidal corrector
            a1 = u1 * a1 + 0.5 * dt * (u1 * f1 + e1)
            a2 = u2 * a2 + 0.5 * dt * (u2 * f2 + e2)
            amp[0, m] = a1
            amp[1, m] = a2
            if (a1.real * a1.real + a1.imag * a1.imag > POPULATION_ABORT
                    or a2.real * a2.real + a2.imag * a2.imag > POPULATION_ABORT):
                raise SolverError(
                    f"population exceeded {POPULATION_ABORT} at t={m * dt:.6g} "
                    f"(|a1|^2={abs(a1) ** 2:.6g}, |a2|^2={abs(a2) ** 2:.6g}); reduce dt")
            # memory derivative at the corrected node: only the tau=0 endpoint moved
            i1 += dt * h1 * (a1 - p1)
            i2 += dt * h2 * (a2 - p2)
            ic1 += dt * hc * (a2 - p2)
            ic2 += dt * hc * (a1 - p1)
            f1 = c_self_1 * i1 + c_cross * ic1
            f2 = c_self_2 * i2 + c_cross * ic2
        if b < n_blocks - 1:
            np.fft.rfft(amp[:, start:start + s].real, n=2 * s, out=a_hat[b, 0])
            np.fft.rfft(amp[:, start:start + s].imag, n=2 * s, out=a_hat[b, 1])
    return AtomTrajectory(grid=grid, alpha_1=amp[0, :n_nodes].copy(),
                          alpha_2=amp[1, :n_nodes].copy())


def field_order_max(cfg: SystemConfig, sites) -> int:
    """Highest Bessel order :func:`photon_field` needs for a site window:
    the largest distance from a site to a leg."""
    sites = np.asarray(sites, dtype=int)
    return max(int(np.abs(sites - leg).max()) for leg in cfg.legs)


def photon_field(cfg: SystemConfig, trajectory: AtomTrajectory, sites,
                 times, chunk: int = 2048) -> list[FieldSnapshot]:
    """Reconstruct the real-space photon amplitudes at the requested times.

    beta_j(t) = -i sum_atoms g int_0^t alpha(t - tau) * e^{-i omega_c tau}
                sum_legs i^{j-leg} J_{j-leg}(2 xi tau) dtau

    by trapezoidal quadrature on the trajectory grid.  For every atom the
    tau integral is reduced to one weighted sum per Bessel order, shared by
    both legs and by all sites at equal distance from a leg.  The Bessel
    table over the nodes up to the latest requested time is filled once, in
    ``chunk``-node blocks (so early, small-argument rows do not pay the
    recurrence depth of the largest argument); each block is added to the
    per-order sums of every requested time as soon as it is filled, so the
    cost is one table plus one matrix product per block and time, and the
    scratch memory is O(chunk * orders) whatever the horizon.
    """
    cfg = validate_config(cfg)
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
    for s in range(0, n_rows, chunk):
        e = min(s + chunk, n_rows)
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


def norm_check(trajectory: AtomTrajectory, snapshot: FieldSnapshot,
               cfg: SystemConfig) -> float:
    """Unitarity deficit |1 - pop1 - pop2 - sum_j |beta_j|^2| at the
    snapshot time.

    Meaningful only when the site window contains all emitted radiation;
    warns when the window does not extend 2 xi t + 20 sites beyond the
    outermost legs of ``cfg``.
    """
    t = snapshot.time
    reach = 2.0 * cfg.xi * t + 20.0
    legs_min = min(cfg.n_1, cfg.m_1)
    legs_max = max(cfg.n_2, cfg.m_2)
    if snapshot.sites.min() > legs_min - reach or snapshot.sites.max() < legs_max + reach:
        warnings.warn(
            f"site window [{snapshot.sites.min()}, {snapshot.sites.max()}] may not "
            f"contain all radiation at t={t} (need +-{reach:.0f} around the legs)",
            stacklevel=2)
    n = trajectory.grid.node(t)
    pops = abs(trajectory.alpha_1[n]) ** 2 + abs(trajectory.alpha_2[n]) ** 2
    return float(abs(1.0 - pops - np.sum(snapshot.probabilities)))


def steady_state_prediction(psi0: WavefunctionState, profiles) -> tuple[float, float]:
    """Long-time atomic populations from the overlap with a unique BIC.

    When the system hosts exactly one bound state in the continuum, the
    extended components dephase away and the atoms approach
    |alpha_i(inf)|^2 = |<E_BIC|psi0>|^2 |A_i|^2 with A_i the normalized BIC
    atomic amplitudes.  ``profiles`` is the classified lattice spectrum
    (``spectrum.classify_bound_states``).  Requires exactly one profile
    labelled "BIC" and a photon-vacuum psi0.
    """
    if not psi0.photon_vacuum:
        raise ValueError("steady-state projection assumes an initially empty photon sector")
    bics = [p for p in profiles if p.label == "BIC"]
    if len(bics) != 1:
        raise ValueError(f"steady-state prediction needs exactly one BIC, found {len(bics)}")
    b = bics[0]
    overlap = abs(b.amp_1 * psi0.alpha_1 + b.amp_2 * psi0.alpha_2) ** 2
    return overlap * b.amp_1 ** 2, overlap * b.amp_2 ** 2


def plateau(trajectory: AtomTrajectory, window: float = 50.0,
            rel_tol: float = 1e-4) -> tuple[float, float, bool]:
    """Trailing-window population means and a convergence flag.

    The flag is set when both populations vary by less than ``rel_tol``
    relative over the final ``window`` of evolution time.
    """
    grid = trajectory.grid
    n_win = max(2, int(round(window / grid.dt)))
    n_win = min(n_win, grid.n_steps)
    p1 = trajectory.pop_1[-n_win:]
    p2 = trajectory.pop_2[-n_win:]
    def settled(p):
        top = p.max()
        return top == 0.0 or (top - p.min()) <= rel_tol * top
    return float(p1.mean()), float(p2.mean()), bool(settled(p1) and settled(p2))
