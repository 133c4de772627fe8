"""Independent reference implementations shared by the test modules."""

import math
import tracemalloc
from dataclasses import dataclass
from decimal import Decimal, getcontext

import numpy as np

from crwqed import bic, spectrum
from crwqed.dynamics import POPULATION_ABORT, KernelSet, SolverError
from crwqed.model import AtomTrajectory, SystemConfig, validate_config
from crwqed.specfun import bessel_j_table


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes of Python and numpy heap allocated while
    ``fn(*args, **kwargs)`` runs, from ``tracemalloc``."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def series_oracle(n: int, x: float, digits: int = 60) -> float:
    """J_n(x) from the alternating power series
    sum_k (-1)^k (x/2)^{2k+n} / (k! (k+n)!), evaluated in exact decimal
    arithmetic so the result carries no cancellation error."""
    getcontext().prec = digits
    half = Decimal(x) / 2
    term = half ** n
    for k in range(1, n + 1):
        term /= k
    total = term
    k = 0
    while True:
        k += 1
        term *= -half * half / (k * (k + n))
        new = total + term
        if new == total:
            return float(total)
        total = new


@dataclass(frozen=True)
class BesselRow:
    """J_0(x)..J_order_max(x) at a fixed argument."""

    order_max: int
    x: float
    values: np.ndarray

    def sum_rule_residual(self) -> float:
        """|J_0^2 + 2 sum_{n>=1} J_n^2 - 1|; tends to 0 as order_max grows
        past x + 20."""
        v = self.values
        return abs(v[0] ** 2 + 2.0 * np.sum(v[1:] ** 2) - 1.0)


def bessel_j_row(order_max: int, x: float) -> BesselRow:
    """All orders 0..order_max of ``bessel_j_table`` at a single argument."""
    values = bessel_j_table(order_max, [x])[0]
    return BesselRow(order_max=order_max, x=float(x), values=values)


def bessel_j(n: int, x: float) -> float:
    """J_n(x) for integer n (may be negative) and x >= 0 from
    ``bessel_j_table``.

    Negative orders use the parity identity J_{-n}(x) = (-1)^n J_n(x).
    """
    n = int(n)
    sign = 1.0
    if n < 0:
        n = -n
        sign = -1.0 if n % 2 else 1.0
    return sign * float(bessel_j_table(n, [x])[0, n])


def photon_profile(vector: np.ndarray) -> np.ndarray:
    """Per-site photon probabilities |B_j|^2 of one eigenvector
    (A1, A2, B_1..B_nc); they sum to 1 - |A1|^2 - |A2|^2."""
    return np.abs(vector[2:]) ** 2


def m_matrix(cfg: SystemConfig, t: float, kernels: KernelSet) -> np.ndarray:
    """Effective 2x2 matrix M(t) = [[A_1, B], [B, A_2]] at one grid time.

    A_i(t) = Omega_i - 2i g_i^2 int_0^t K_i, B(t) = -i g_1 g_2 int_0^t K_c,
    integrals by the trapezoid rule over the kernel tables; the reference
    for the cumulative integrals of ``dynamics.m_eigenvalues_trace``.
    """
    cfg = validate_config(cfg)
    n = kernels.grid.node(t)
    dt = kernels.grid.dt
    def integral(k):
        if n == 0:
            return 0.0j
        return complex(np.sum(0.5 * (k[1:n + 1] + k[:n])) * dt)
    a1 = cfg.omega_1 - 2j * cfg.g_1 ** 2 * integral(kernels.k_self_1)
    a2 = cfg.omega_2 - 2j * cfg.g_2 ** 2 * integral(kernels.k_self_2)
    b = -1j * cfg.g_1 * cfg.g_2 * integral(kernels.k_cross)
    return np.array([[a1, b], [b, a2]])


def lamb_shift_sum_oracle(E: float, cfg: SystemConfig, n_modes: int, branch: int = +1) -> complex:
    """Discrete-momentum evaluation of the waveguide-induced level shift.

    Sums g^2/N_c sum_k [2 + 2 cos(kN) + s sum cos(k |n_j - m_j'|)] / (E - omega_k)
    over ``n_modes`` equally spaced modes folded onto (0, pi], with the mode
    comb shifted so the resonant wavenumber falls exactly midway between two
    modes (the discrete analogue of a principal value); the comb offset is
    compensated at the fold ends so the error decays cleanly with 1/N_c.
    Converges to the Hermitian shift g^2/xi * Re(bracket) used by
    ``bic.transcendental_residual``.
    """
    cfg = validate_config(cfg)
    if not cfg.symmetric_resonant:
        raise ValueError("the momentum sum assumes g_1 = g_2, omega_1 = omega_2 "
                         "and equal atom sizes")
    if branch not in bic.BRANCHES:
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    if n_modes < 8:
        raise ValueError(f"n_modes too small: {n_modes}")
    if not (cfg.band_bottom + bic.EDGE_GUARD * cfg.xi <= E
            <= cfg.band_top - bic.EDGE_GUARD * cfg.xi):
        raise ValueError(f"E={E} is outside the band or too close to an edge")
    if cfg.g_1 == 0.0:
        return 0.0 + 0.0j

    k_res = math.acos((cfg.omega_c - E) / (2.0 * cfg.xi))
    half = n_modes // 2
    h = math.pi / half
    r = k_res % h
    delta = r + 0.5 * h if r < 0.5 * h else r - 0.5 * h
    ks = np.arange(half) * h + delta

    big_n = cfg.size_1

    def numerator(k):
        out = 2.0 + 2.0 * np.cos(k * big_n)
        for p in cfg.cross_distances:
            out = out + branch * np.cos(k * p)
        return out

    integrand = numerator(ks) / (E - (cfg.omega_c - 2.0 * cfg.xi * np.cos(ks)))
    total = h * float(np.sum(integrand))
    # the comb covers (shift, pi + shift); restore the (0, pi) window
    shift = delta - 0.5 * h
    f_0 = numerator(0.0) / (E - cfg.band_bottom)
    f_pi = numerator(math.pi) / (E - cfg.band_top)
    total += shift * (f_0 - f_pi)
    return complex((cfg.g_1 ** 2) * total / math.pi)


def volterra_direct(cfg, psi0, grid, kernels) -> AtomTrajectory:
    """The predictor-corrector scheme of ``dynamics.solve_volterra`` with
    every history sum taken as one direct product over all earlier nodes
    (O(T^2) in the number of nodes)."""
    n_steps = grid.n_steps
    dt = grid.dt
    n_nodes = n_steps + 1

    # kernels stored reversed: rev[k][n_nodes-1-m] = K_k(tau_m), so the
    # window ending at node m is the contiguous view rev[:, n_nodes-1-m:].
    rev = np.empty((3, n_nodes), dtype=complex)
    rev[0] = kernels.k_self_1[::-1]
    rev[1] = kernels.k_self_2[::-1]
    rev[2] = kernels.k_cross[::-1]
    k_at_0 = np.array([kernels.k_self_1[0], kernels.k_self_2[0], kernels.k_cross[0]])

    amp = np.zeros((n_nodes, 2), dtype=complex)
    amp[0, 0] = psi0.alpha_1
    amp[0, 1] = psi0.alpha_2

    c_self_1 = -2.0 * cfg.g_1 ** 2
    c_self_2 = -2.0 * cfg.g_2 ** 2
    c_cross = -cfg.g_1 * cfg.g_2
    # integrating factor removes the local -i Omega term, so free evolution
    # is reproduced to rounding and only the memory terms are quadratured
    u1 = np.exp(-1j * cfg.omega_1 * dt)
    u2 = np.exp(-1j * cfg.omega_2 * dt)

    def memory(i1, i2, ic1, ic2):
        return c_self_1 * i1 + c_cross * ic1, c_self_2 * i2 + c_cross * ic2

    f1, f2 = 0.0j, 0.0j  # memory derivative at node 0 (empty integrals)
    for n in range(n_steps):
        m = n + 1
        # exponential-Euler predictor to the new node
        p1 = u1 * (amp[n, 0] + dt * f1)
        p2 = u2 * (amp[n, 1] + dt * f2)
        # history part of the convolutions at node m: sum_{j<m} K(tau_{m-j}) alpha_j
        hist = rev[:, n_nodes - 1 - m:n_nodes - 1] @ amp[:m]
        k_at_m = rev[:, n_nodes - 1 - m]
        # trapezoid: dt * (full sum) - dt/2 * (tau=0 and tau=m endpoint terms)
        i1 = dt * (hist[0, 0] + k_at_0[0] * p1) - 0.5 * dt * (k_at_0[0] * p1 + k_at_m[0] * amp[0, 0])
        i2 = dt * (hist[1, 1] + k_at_0[1] * p2) - 0.5 * dt * (k_at_0[1] * p2 + k_at_m[1] * amp[0, 1])
        ic1 = dt * (hist[2, 1] + k_at_0[2] * p2) - 0.5 * dt * (k_at_0[2] * p2 + k_at_m[2] * amp[0, 1])
        ic2 = dt * (hist[2, 0] + k_at_0[2] * p1) - 0.5 * dt * (k_at_0[2] * p1 + k_at_m[2] * amp[0, 0])
        e1, e2 = memory(i1, i2, ic1, ic2)
        # exponential-trapezoidal corrector
        a1 = u1 * amp[n, 0] + 0.5 * dt * (u1 * f1 + e1)
        a2 = u2 * amp[n, 1] + 0.5 * dt * (u2 * f2 + e2)
        amp[m, 0] = a1
        amp[m, 1] = a2
        if (a1.real * a1.real + a1.imag * a1.imag > POPULATION_ABORT
                or a2.real * a2.real + a2.imag * a2.imag > POPULATION_ABORT):
            raise SolverError(
                f"population exceeded {POPULATION_ABORT} at t={m * dt:.6g} "
                f"(|a1|^2={abs(a1) ** 2:.6g}, |a2|^2={abs(a2) ** 2:.6g}); reduce dt")
        # memory derivative at the corrected node: only the tau=0 endpoint moved
        i1 += 0.5 * dt * k_at_0[0] * (a1 - p1)
        i2 += 0.5 * dt * k_at_0[1] * (a2 - p2)
        ic1 += 0.5 * dt * k_at_0[2] * (a2 - p2)
        ic2 += 0.5 * dt * k_at_0[2] * (a1 - p1)
        f1, f2 = memory(i1, i2, ic1, ic2)
    return AtomTrajectory(grid=grid, alpha_1=amp[:, 0].copy(), alpha_2=amp[:, 1].copy())


def exact_propagate_direct(cfg, psi0, grid, basis: spectrum.Eigenbasis) -> AtomTrajectory:
    """The atomic amplitudes of ``spectrum.exact_propagate`` with one
    complex exponential per (time node, eigenvalue), t_n = n dt, taken in
    blocks of time rows and summed against the weights w_i = v_q[i] <v_q|psi0>."""
    energies, vectors = basis.energies, basis.vectors
    vec0 = np.zeros(energies.size, dtype=complex)
    vec0[0] = psi0.alpha_1
    vec0[1] = psi0.alpha_2
    offset = spectrum.site_offset(cfg, energies.size - 2)
    for site, amp in psi0.beta.items():
        vec0[2 + offset + site] = amp
    coeff = vectors.T @ vec0
    w1 = vectors[0] * coeff
    w2 = vectors[1] * coeff

    times = grid.times()
    a1 = np.empty(times.size, dtype=complex)
    a2 = np.empty(times.size, dtype=complex)
    block = max(1, int(2e6 // energies.size))
    for s in range(0, times.size, block):
        phases = np.exp(-1j * np.outer(times[s:s + block], energies))
        a1[s:s + block] = phases @ w1
        a2[s:s + block] = phases @ w2
    return AtomTrajectory(grid=grid, alpha_1=a1, alpha_2=a2)
