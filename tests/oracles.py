"""Independent reference implementations shared by the test modules."""

import math
import tracemalloc
import warnings
from dataclasses import dataclass
from decimal import Decimal, getcontext
from unittest import mock

import numpy as np

from crwqed import bic, model, spectrum
from crwqed.cli import _fmt
from crwqed.dynamics import POPULATION_ABORT, KernelSet
from crwqed.model import AtomTrajectory, FieldSnapshot, SolverError, SystemConfig
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


def basis_matrix(basis: spectrum.Eigenbasis) -> np.ndarray:
    """The whole n x n eigenvector matrix of ``basis``, read as one block."""
    return basis.columns(0, basis.energies.size)


def _orthonormality(vectors: np.ndarray) -> float:
    """max |V^T V - I| over all entries: the O(n^3) reference for the
    orthonormality bound of ``spectrum._checked_pass``.

    V^T V is symmetric, so each block of 64 columns is multiplied only
    against the columns at or after it: about half the flops of the full
    product, and no n x n temporary.
    """
    dim = vectors.shape[1]
    worst = 0.0
    for lo in range(0, dim, 64):
        hi = min(dim, lo + 64)
        block = vectors[:, lo:hi].T @ vectors[:, lo:]
        diag = np.arange(hi - lo)
        block[diag, diag] -= 1.0
        worst = max(worst, np.abs(block).max())
    return float(worst)


def write_csv_reference(path, header, columns):
    """The row-joining CSV writer that the block kernel of
    ``cli.write_csv`` replaced: every float-array cell through Python's
    ``"%.15g" %``, every other cell through ``cli._fmt`` (str cells
    unchanged), rows joined with commas and written as UTF-8 text.  Its
    files are the byte-for-byte reference for ``cli.write_csv``."""
    def cells(column):
        if isinstance(column, np.ndarray):
            if column.dtype.kind == "f":
                return ["%.15g" % x for x in column.tolist()]
            column = column.tolist()
        return [x if type(x) is str else _fmt(x) for x in column]

    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns of unequal length {lengths} for {path}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*(cells(c) for c in columns)))


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


def bessel_reference(n: int, x: float) -> float:
    """J_n(x) from ``series_oracle`` with working digits scaled to x.

    The series' largest term is about e^x / sqrt(x), so cancelling it to
    double precision takes about x log10(e) + 17 digits; 0.9 x + 40 covers
    that with room to spare at every x >= 0."""
    return series_oracle(n, x, digits=int(0.9 * x) + 40)


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


def norm_check(trajectory: AtomTrajectory, snapshot: FieldSnapshot,
               cfg: SystemConfig) -> float:
    """Unitarity deficit |1 - pop1 - pop2 - sum_j |beta_j|^2| at the
    snapshot time, from the snapshot's sites.

    Meaningful only when the site window contains all emitted radiation;
    warns when the window does not extend 2 xi t + 20 sites beyond the
    outermost legs of ``cfg``.
    """
    t = snapshot.time
    reach = 2.0 * cfg.xi * t + 20.0
    legs_min, legs_max = cfg.outer_legs
    if snapshot.sites.min() > legs_min - reach or snapshot.sites.max() < legs_max + reach:
        warnings.warn(
            f"site window [{snapshot.sites.min()}, {snapshot.sites.max()}] may not "
            f"contain all radiation at t={t} (need +-{reach:.0f} around the legs)",
            stacklevel=2)
    n = trajectory.grid.node(t)
    pops = abs(trajectory.alpha_1[n]) ** 2 + abs(trajectory.alpha_2[n]) ** 2
    return float(abs(1.0 - pops - np.sum(snapshot.probabilities)))


def m_matrix(cfg: SystemConfig, grid, t: float, kernels: KernelSet) -> np.ndarray:
    """Effective 2x2 matrix M(t) = [[A_1, B], [B, A_2]] at one time of the
    kernels' grid.

    A_i(t) = Omega_i - 2i g_i^2 int_0^t K_i, B(t) = -i g_1 g_2 int_0^t K_c,
    integrals by the trapezoid rule over the kernel tables; the reference
    for the cumulative integrals of ``dynamics.m_eigenvalues_trace``.
    """
    n = grid.node(t)
    dt = grid.dt
    def integral(k):
        if n == 0:
            return 0.0j
        return complex(np.sum(0.5 * (k[1:n + 1] + k[:n])) * dt)
    a1 = cfg.omega_1 - 2j * cfg.g_1 ** 2 * integral(kernels.k_self_1)
    a2 = cfg.omega_2 - 2j * cfg.g_2 ** 2 * integral(kernels.k_self_2)
    b = -1j * cfg.g_1 * cfg.g_2 * integral(kernels.k_cross)
    return np.array([[a1, b], [b, a2]])


def continuity_order_loop(lam1: np.ndarray, lam2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node-by-node reference for ``dynamics._continuity_order``: node 0
    puts the larger real part first; node n swaps its pair when the swapped
    pair is strictly closer to the ordered pair at n - 1."""
    lam1 = np.array(lam1, dtype=complex)
    lam2 = np.array(lam2, dtype=complex)
    if lam1[0].real < lam2[0].real:
        lam1[0], lam2[0] = lam2[0], lam1[0]
    for n in range(1, lam1.size):
        keep = abs(lam1[n] - lam1[n - 1]) + abs(lam2[n] - lam2[n - 1])
        swap = abs(lam2[n] - lam1[n - 1]) + abs(lam1[n] - lam2[n - 1])
        if swap < keep:
            lam1[n], lam2[n] = lam2[n], lam1[n]
    return lam1, lam2


# Minimum distance from a band edge, in units of xi, at which the
# closed-form residual and the momentum sum are evaluated.
EDGE_GUARD = 1e-6


def bracket_shift_direct(E, cfg: SystemConfig, branch: int):
    """Real part of ``bic._bracket`` from the sine form
    [2 (-1)^{N+1} sin(N theta) + s sum (-1)^{p+1} sin(p theta)] / (2 sin theta),
    E = omega_c + 2 xi cos theta: an independent evaluation of the
    Hermitian shift."""
    theta = np.arccos((np.asarray(E) - cfg.omega_c) / (2.0 * cfg.xi))
    big_n = cfg.size_1
    num = 2.0 * (-1.0) ** (big_n + 1) * np.sin(big_n * theta)
    for p in cfg.cross_distances:
        num = num + branch * (-1.0) ** (p + 1) * np.sin(p * theta)
    return num / (2.0 * np.sin(theta))


def transcendental_residual(E: float, branch: int, cfg: SystemConfig) -> float:
    """Residual f_s(E) of the in-band eigenvalue equation for parity branch
    s = +-1 (A_1 = s A_2), the function whose roots ``bic.find_bic_roots``
    finds.

    ``E`` must lie in the band at least ``EDGE_GUARD`` xi from either edge.
    The Hermitian shift is evaluated twice (``bic._bracket``'s complex
    powers and ``bracket_shift_direct``'s sine form) and the two must agree
    to 1e-10 relative, a guard against branch-cut mistakes in the complex
    evaluation.
    """
    bic.check_closed_form(cfg)
    if branch not in bic.BRANCHES:
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    if not (cfg.band_bottom + EDGE_GUARD * cfg.xi <= E <= cfg.band_top - EDGE_GUARD * cfg.xi):
        raise ValueError(f"E={E} is outside the band or within {EDGE_GUARD} xi of an edge")
    shift = float(bic._bracket(E, cfg, branch).real)
    direct = float(bracket_shift_direct(E, cfg, branch))
    if abs(shift - direct) > 1e-10 * max(abs(shift), 1.0):
        raise AssertionError(
            f"Hermitian shift disagreement at E={E}: {shift} vs {direct}")
    return E - cfg.omega_1 - (cfg.g_1 ** 2 / cfg.xi) * shift


# The reference root search ``bic._branch_roots`` replaced: a sign scan on
# this many equal intervals of the band less ``model.BAND_EDGE_GUARD``, each
# sign change bisected to this width (in xi).
SCAN_INTERVALS = 4000
BISECTION_TOL = 1e-10


def _bisect(f, a: float, b: float, fa: float, tol: float) -> float:
    for _ in range(200):
        mid = 0.5 * (a + b)
        if b - a <= tol:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def branch_roots_scan(cfg: SystemConfig, branch: int,
                      intervals: int = SCAN_INTERVALS) -> list[tuple[float, float]]:
    """(energy, |f|) roots of one parity branch by a sign scan of the
    complex-bracket residual: every scan node where f is exactly 0, and a
    bisection in every interval where f changes sign; roots within
    ``bic.DEGENERATE_MERGE`` of the previous one are dropped.  Two roots in
    one interval are missed."""
    lo = cfg.band_bottom + model.BAND_EDGE_GUARD * cfg.xi
    hi = cfg.band_top - model.BAND_EDGE_GUARD * cfg.xi
    grid = np.linspace(lo, hi, intervals + 1)
    vals = bic._residual(grid, cfg, branch)
    f = lambda e: float(bic._residual(e, cfg, branch))
    roots: list[tuple[float, float]] = []
    zero = vals[:-1] == 0.0
    for i in np.flatnonzero(zero | (vals[:-1] * vals[1:] < 0.0)):
        if zero[i]:
            e = float(grid[i])
        else:
            e = _bisect(f, float(grid[i]), float(grid[i + 1]), float(vals[i]),
                        BISECTION_TOL * cfg.xi)
        if not roots or e - roots[-1][0] > bic.DEGENERATE_MERGE * cfg.xi:
            roots.append((e, abs(f(e))))
    return roots


# The closed form's own band-edge exclusion (in xi) before it read the
# lattice's guard, ``model.BAND_EDGE_GUARD``.
EDGE_EXCLUSION = 1e-4


def bic_roots_two_pass(cfg: SystemConfig) -> list[bic.BicRoot]:
    """The reference ``bic.find_bic_roots`` replaced: candidates down to
    ``EDGE_EXCLUSION`` xi from the band edges (``bic._branch_roots`` with its
    guard patched, so a branch that does not couple to the chain has none
    here either), merged per branch (a candidate within
    ``bic.DEGENERATE_MERGE`` xi of the branch's previous root replaces it
    when its |f| is smaller), then each root of each branch in turn joining
    the first root already listed within that distance, else listed on its
    own.  Labelled by the width rule of ``bic.find_bic_roots``."""
    bic.check_closed_form(cfg)
    tol = bic.DEGENERATE_MERGE * cfg.xi
    merged: list[dict] = []
    for s in bic.BRANCHES:
        with mock.patch.object(bic, "BAND_EDGE_GUARD", EDGE_EXCLUSION):
            candidates = sorted(bic._branch_roots(cfg, s))
        roots: list[tuple[float, float]] = []
        for e, f in candidates:
            if roots and e - roots[-1][0] <= tol:
                roots[-1] = min(roots[-1], (e, f), key=lambda root: root[1])
            else:
                roots.append((e, f))
        for e, f in roots:
            for m in merged:
                if abs(e - m["energy"]) <= tol:
                    m["branches"].append(s)
                    m["residual"] = max(m["residual"], f)
                    break
            else:
                merged.append({"energy": e, "branches": [s], "residual": f})
    merged.sort(key=lambda m: m["energy"])

    found: list[bic.BicRoot] = []
    for m in merged:
        im = {s: abs(float(bic._bracket(m["energy"], cfg, s).imag)) for s in m["branches"]}
        branches = [s for s in m["branches"] if im[s] <= bic.BIC_MAX_IM_BRACKET]
        if branches:
            label = "+-" if len(branches) == 2 else ("+" if branches[0] > 0 else "-")
            found.append(bic.BicRoot(
                energy=m["energy"], branch=label, multiplicity=len(branches),
                residual=m["residual"],
                width=(cfg.g_1 ** 2 / cfg.xi) * max(im[s] for s in branches)))
    return found


def lamb_shift_sum_oracle(E: float, cfg: SystemConfig, n_modes: int, branch: int = +1) -> complex:
    """Discrete-momentum evaluation of the waveguide-induced level shift.

    Sums g^2/N_c sum_k [2 + 2 cos(kN) + s sum cos(k |n_j - m_j'|)] / (E - omega_k)
    over ``n_modes`` equally spaced modes folded onto (0, pi], with the mode
    comb shifted so the resonant wavenumber falls exactly midway between two
    modes (the discrete analogue of a principal value); the comb offset is
    compensated at the fold ends so the error decays cleanly with 1/N_c.
    Converges to the Hermitian shift g^2/xi * Re(bracket) used by
    ``transcendental_residual``.
    """
    if not cfg.symmetric_resonant:
        raise ValueError("the momentum sum assumes g_1 = g_2, omega_1 = omega_2 "
                         "and equal atom sizes")
    if branch not in bic.BRANCHES:
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    if n_modes < 8:
        raise ValueError(f"n_modes too small: {n_modes}")
    if not (cfg.band_bottom + EDGE_GUARD * cfg.xi <= E
            <= cfg.band_top - EDGE_GUARD * cfg.xi):
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
    energies, vectors = basis.energies, basis_matrix(basis)
    vec0 = np.zeros(energies.size, dtype=complex)
    vec0[0] = psi0.alpha_1
    vec0[1] = psi0.alpha_2
    for site, amp in psi0.beta.items():
        vec0[2 + site - basis.sites[0]] = amp
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


def exact_propagate_one_product(psi0, grid, basis: spectrum.Eigenbasis) -> AtomTrajectory:
    """The atomic amplitudes of ``spectrum.exact_propagate`` with every state
    in one product: t = (jB + k) dt, B = ceil(sqrt(T)), from an (B x n)
    inner-phase table times an (n x 2 ceil(T/B)) outer-phase table scaled by
    w_1 and w_2, with n x sqrt(T) scratch."""
    energies, vectors = basis.energies, basis_matrix(basis)
    coeff = vectors[0] * complex(psi0.alpha_1) + vectors[1] * complex(psi0.alpha_2)
    for site, amp in psi0.beta.items():
        coeff += vectors[2 + site - basis.sites[0]] * complex(amp)
    n_t = grid.times().size
    inner = math.isqrt(n_t - 1) + 1
    n_outer = -(-n_t // inner)
    inner_phase = np.exp(-1j * np.outer(np.arange(inner) * grid.dt, energies))
    outer_phase = np.exp(-1j * np.outer(energies, np.arange(n_outer) * (inner * grid.dt)))
    amps = inner_phase @ np.concatenate([outer_phase * (vectors[0] * coeff)[:, None],
                                         outer_phase * (vectors[1] * coeff)[:, None]], axis=1)
    return AtomTrajectory(grid=grid, alpha_1=amps[:, :n_outer].T.reshape(-1)[:n_t],
                          alpha_2=amps[:, n_outer:].T.reshape(-1)[:n_t])


def classify_bound_states_loop(basis: spectrum.Eigenbasis,
                               cfg: SystemConfig) -> spectrum.ClassifiedSpectrum:
    """``spectrum.classify_bound_states`` one state at a time: each state's
    IPR, photon weight and window weight are ``np.sum`` calls over its own
    column (a degenerate cluster's over its ``_localized_rotation``)."""
    energies, vectors = basis.energies, basis_matrix(basis)
    dim = energies.size
    first, last = cfg.outer_legs
    mask = np.ones(dim, dtype=bool)
    mask[2:] = ((basis.sites >= first - spectrum.WINDOW_PAD)
                & (basis.sites <= last + spectrum.WINDOW_PAD))
    states, labels, photon = [], [], {}
    i = 0
    while i < dim:
        j = i
        while j + 1 < dim and energies[j + 1] - energies[j] < spectrum.DEGENERACY_TOL * cfg.xi:
            j += 1
        if j > i:
            weights, vecs = spectrum._localized_rotation(vectors[:, i:j + 1], mask)
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
            near_edge = (abs(e - cfg.band_bottom) < model.BAND_EDGE_GUARD * cfg.xi
                         or abs(e - cfg.band_top) < model.BAND_EDGE_GUARD * cfg.xi)
            localized = (ipr >= spectrum.IPR_THRESHOLD
                         and weights[c] >= spectrum.WINDOW_MIN_WEIGHT
                         and photon_weight >= spectrum.MIN_PHOTON_WEIGHT)
            if localized and in_band and not near_edge:
                label = "BIC"
            elif localized and not in_band:
                label = "BOC"
            else:
                label = "extended"
            if label != "extended":
                photon[len(states)] = prob[2:]
            states.append((e, ipr, float(v[0]), float(v[1])))
            labels.append(label)
        i = j + 1
    energy, ipr, amp_1, amp_2 = np.array(states).T
    return spectrum.ClassifiedSpectrum(energies=energy, labels=np.array(labels), ipr=ipr,
                                       atoms=np.array([amp_1, amp_2]), photon=photon)
