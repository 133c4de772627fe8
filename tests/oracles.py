"""Independent reference implementations shared by the test modules."""

import tracemalloc
from decimal import Decimal, getcontext

import numpy as np

from crwqed import spectrum
from crwqed.dynamics import POPULATION_ABORT, SolverError
from crwqed.model import AtomTrajectory


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


def exact_propagate_direct(cfg, psi0, grid, n_c, pairs=None) -> AtomTrajectory:
    """The atomic amplitudes of ``spectrum.exact_propagate`` with one
    complex exponential per (time node, eigenvalue), t_n = n dt, taken in
    blocks of time rows and summed against the weights w_i = v_q[i] <v_q|psi0>."""
    ham = spectrum.build_hamiltonian(cfg, n_c)
    if pairs is None:
        pairs = spectrum.eigendecompose(ham)
    energies = np.array([p.energy for p in pairs])
    vectors = np.stack([p.vector for p in pairs], axis=1)
    vec0 = np.zeros(n_c + 2, dtype=complex)
    vec0[0] = psi0.alpha_1
    vec0[1] = psi0.alpha_2
    for site, amp in psi0.beta.items():
        vec0[ham.column_of(site)] = amp
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
