"""Closed-form solver for in-band bound states (BICs) of two identical
giant atoms.

In the symmetric resonant regime (g_1 = g_2, Omega_1 = Omega_2, equal atom
sizes N) the single-excitation eigenvalue problem reduces, per atomic parity
A_1 = +-A_2, to one real equation

    f_s(E) = E - Omega - g^2 [2 G_N(E) + s * sum_{j,j'} G_{|n_j - m_j'|}(E)] = 0,

where G_p(E) is the Hermitian (principal-value) part of the infinite-chain
Green's function between sites a distance p apart.  Inside the band, with
chi = exp[-i arccos((E - omega_c)/(2 xi))],

    G_p(E) = (-chi)^p / (xi (chi* - chi)),

whose real part is (-1)^{p+1} U_{p-1}(x) / (2 xi), U_k the Chebyshev
polynomials of the second kind in x = (E - omega_c)/(2 xi); the factor
(-chi) = e^{i k*} is the Bloch phase of the resonant mode.  So f_s is a
polynomial, whose real roots are the eigenvalues of one comrade matrix
(I. J. Good, Q. J. Math. 12, 61 (1961)); a band-centre root is exactly
omega_c.  -Im G_p is the half decay width, which vanishes at a genuine BIC.
Roots of f_s are bound-state candidates only, and they follow the
lattice classifier's rules: none lies within ``model.BAND_EDGE_GUARD`` xi
of a band edge, a branch that does not couple to the chain (g = 0, or the
antisymmetric branch of two atoms on the same two sites) has none, and a
root is kept on the parity branches whose half width (g^2/xi) |Im bracket|
is at most ``BIC_MAX_IM_BRACKET`` g^2/xi, which weeds out the in-band
resonances the same equation produces for geometries with no BIC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BAND_EDGE_GUARD, ConfigError, SystemConfig

# Largest leg distance (atom size or leg-to-leg path) the closed form takes:
# its comrade matrix has that order, 1.3 s and 32 MB per branch at 2000.
MAX_LEG_DISTANCE = 2000
# Candidates closer than this are one root (degenerate if from both branches).
DEGENERATE_MERGE = 1e-8
# A root's |f| must be at most this times xi (the manifest's
# ``bic_root_residual`` threshold); a root read off a complex eigenvalue
# pair is kept only if it meets it.
RESIDUAL_TOL = 1e-8
# A parity branch of a root is a bound state when |Im bracket| is at most
# this, i.e. its half width is at most 0.1 g^2/xi.  Over N = 2..12, every
# offset and g = 0.02..0.3, exact BICs (compact support) have zero width,
# quasi-BIC pairs at most 0.048 and in-band resonances at least 0.207.
BIC_MAX_IM_BRACKET = 0.1

BRANCHES = (+1, -1)


def check_closed_form(cfg: SystemConfig) -> None:
    """Raise ConfigError where the closed form does not apply (unequal
    atoms) or exceeds ``MAX_LEG_DISTANCE``."""
    if not cfg.symmetric_resonant:
        raise ConfigError(
            "the closed-form bound-state equation requires g_1 = g_2, "
            "omega_1 = omega_2 and equal atom sizes; got "
            f"g=({cfg.g_1}, {cfg.g_2}), omega=({cfg.omega_1}, {cfg.omega_2}), "
            f"sizes=({cfg.size_1}, {cfg.size_2})")
    distance = max(cfg.size_1, *cfg.cross_distances)
    if distance > MAX_LEG_DISTANCE:
        raise ConfigError(f"leg distance {distance} exceeds {MAX_LEG_DISTANCE}, the "
                          "largest the closed-form bound-state equation takes")


def _bracket(E, cfg: SystemConfig, branch: int):
    """Complex interaction bracket [2 + 2(-chi)^N + s sum (-chi)^{|p|}] / (chi* - chi).

    Vectorized over E.  Re = Hermitian level shift entering the root
    equation; -Im >= 0 is the half decay width of the in-band resonance.
    """
    x = (np.asarray(E) - cfg.omega_c) / (2.0 * cfg.xi)
    ch = x - 1j * np.sqrt(1.0 - x * x)
    mch = -ch
    big_n = cfg.size_1
    num = 2.0 + 2.0 * mch ** big_n
    for p in cfg.cross_distances:
        num = num + branch * mch ** p
    return num / (np.conj(ch) - ch)


def _residual(E, cfg: SystemConfig, branch: int):
    """f_s(E) from the complex bracket, independent of the polynomial."""
    shift = _bracket(E, cfg, branch).real
    return np.asarray(E) - cfg.omega_1 - (cfg.g_1 ** 2 / cfg.xi) * shift


@dataclass(frozen=True)
class BicRoot:
    """One in-band bound state of the closed-form equation."""

    energy: float
    branch: str           # "+", "-" (A_1 = +-A_2) or "+-" for a degenerate pair
    multiplicity: int
    residual: float       # |f| at the root, maximum over the merged branches
    width: float          # half width (g^2/xi)|Im bracket|, maximum over the counted branches


def _branch_roots(cfg: SystemConfig, branch: int) -> list[tuple[float, float]]:
    """(energy, |f|) root candidates of one parity branch at least
    ``BAND_EDGE_GUARD`` xi inside the band, unmerged; |f| from the complex
    bracket.  A branch whose g^2 terms vanish (g = 0, or they cancel: the
    antisymmetric branch of two atoms on the same two sites) does not
    couple to the chain and has none.

    In x, f_s = (omega_c - Omega) + xi U_1 - (g^2/2xi) [2 (-1)^(N-1) U_(N-1)
    + s sum_p (-1)^(p-1) U_(p-1)]: its real roots are the exactly real
    eigenvalues of the comrade matrix, x U_k = (U_(k-1) + U_(k+1))/2 with U_n
    eliminated by f = 0, each polished by a Newton step unless the step is
    longer than sqrt(eps ||C||) (at a double root the slope vanishes and the
    step can throw the root away).  A near-double real root can come back as
    a complex pair split by about that much: the real part of each pair that
    close to the real axis is polished too, and kept when its |f| meets
    ``RESIDUAL_TOL`` xi (a real eigenvalue and a pair can polish to the
    same point; ``find_bic_roots`` merges them).  The g^2 terms
    sum as integers, so on resonance f(0) is exactly 0 at a band-centre
    root: x is divided out, a_k = (q_(k-1) + q_(k+1))/2, and x = 0 kept
    exactly.
    """
    big_n = cfg.size_1
    ints = np.zeros(max(big_n, *cfg.cross_distances, 2), dtype=np.int64)
    ints[big_n - 1] += 2 * (-1) ** (big_n - 1)
    for p in cfg.cross_distances:
        if p:  # a shared leg adds U_{-1} = 0
            ints[p - 1] += branch * (-1) ** (p - 1)
    coupling = cfg.g_1 ** 2 / (2.0 * cfg.xi)
    if coupling == 0.0 or not ints.any():
        return []
    a = -coupling * ints
    a[:2] += (cfg.omega_c - cfg.omega_1, cfg.xi)
    a = a[:np.flatnonzero(a)[-1] + 1]  # a[1] = xi > 0
    x = []
    if cfg.omega_c - cfg.omega_1 == coupling * (ints[::4].sum() - ints[2::4].sum()):
        q = np.zeros(a.size + 1)
        for k in range(a.size - 1, 0, -1):
            q[k - 1] = 2.0 * a[k] - q[k + 1]
        a, x = q[:-2], [0.0]
    comrade = 0.5 * (np.eye(a.size - 1, k=1) + np.eye(a.size - 1, k=-1))
    comrade[-1:] -= a[:-1] / (2.0 * a[-1])
    eig = np.linalg.eigvals(comrade)
    # a near-double real root can come back as a complex pair split by about
    # sqrt(eps ||C||): one candidate per such pair, kept on its residual below
    norm = 1.0 + np.abs(a[:-1]).sum() / (2.0 * abs(a[-1]))  # bounds ||C||_inf
    split = math.sqrt(np.finfo(float).eps * norm)
    eig = eig[(eig.imag >= 0.0) & (eig.imag <= split) & (np.abs(eig.real) <= 1.0)]
    start = eig.real
    # one Newton step, value b and slope d by Clenshaw: b_k = a_k + 2x b_(k+1) - b_(k+2)
    b1 = b2 = d1 = d2 = np.zeros_like(start)
    for ak in a[::-1]:
        b1, b2, d1, d2 = ak + 2.0 * start * b1 - b2, b1, 2.0 * (b1 + start * d1) - d2, d1
    step = np.divide(b1, d1, out=np.zeros_like(start), where=d1 != 0.0)
    # the slope vanishes at a double root, where the step can throw the root
    # away: a step longer than a pair's splitting is not taken
    step[np.abs(step) > split] = 0.0
    lo = cfg.band_bottom + BAND_EDGE_GUARD * cfg.xi
    hi = cfg.band_top - BAND_EDGE_GUARD * cfg.xi
    candidates = [(e, paired) for e, paired in zip(
        (cfg.omega_c + 2.0 * cfg.xi * np.concatenate([x, start - step])).tolist(),
        [False] * len(x) + (eig.imag > 0.0).tolist()) if lo <= e <= hi]
    misses = np.abs(_residual(np.array([e for e, _ in candidates]), cfg, branch)).tolist()
    return [(e, f) for (e, paired), f in zip(candidates, misses)
            if not (paired and f > RESIDUAL_TOL * cfg.xi)]


def find_bic_roots(cfg: SystemConfig) -> list[BicRoot]:
    """All in-band bound states, both parity branches, ascending.

    The candidates of both branches (``_branch_roots``) are taken in energy
    order, and a candidate within ``DEGENERATE_MERGE`` xi of the previous
    one joins its root: each branch keeps its candidate with the smallest
    |f|, and the root takes the energy of the first branch in ``BRANCHES``
    that has one.  A branch s of a root counts when |Im bracket_s(E)| <=
    ``BIC_MAX_IM_BRACKET``, that is when its half width
    (g^2/xi)|Im bracket_s| is at most 0.1 g^2/xi; the multiplicity is the
    number of counting branches, the branch label names them, and a root
    with none is an in-band resonance and is dropped.
    """
    check_closed_form(cfg)
    groups: list[dict[int, tuple[float, float]]] = []  # per root: branch -> (energy, |f|)
    last = -math.inf
    for e, f, s in sorted((e, f, s) for s in BRANCHES for e, f in _branch_roots(cfg, s)):
        if e - last > DEGENERATE_MERGE * cfg.xi:
            groups.append({})
        last = e
        if s not in groups[-1] or f < groups[-1][s][1]:
            groups[-1][s] = (e, f)

    roots: list[BicRoot] = []
    for best in groups:
        energy = next(best[s][0] for s in BRANCHES if s in best)
        im = {s: abs(float(_bracket(energy, cfg, s).imag)) for s in BRANCHES if s in best}
        counted = [s for s, w in im.items() if w <= BIC_MAX_IM_BRACKET]
        if counted:  # else an in-band resonance, not a bound state
            roots.append(BicRoot(
                energy=energy, branch="".join("+" if s > 0 else "-" for s in counted),
                multiplicity=len(counted), residual=max(f for _, f in best.values()),
                width=(cfg.g_1 ** 2 / cfg.xi) * max(im[s] for s in counted)))
    return roots


def rabi_period(roots: list[BicRoot]) -> float:
    """Oscillation period 2 pi / |E_1 - E_2| of a two-bound-state pair.

    A degenerate pair (one root of multiplicity 2, or two roots at the same
    energy) has no finite period; ``inf`` is returned as the divergent
    flag.  Any other root count is an error.
    """
    if len(roots) == 1 and roots[0].multiplicity == 2:
        return math.inf
    if len(roots) != 2:
        raise ValueError(f"expected exactly 2 bound states, got {len(roots)}")
    split = abs(roots[0].energy - roots[1].energy)
    if split == 0.0:
        return math.inf
    return 2.0 * math.pi / split


@dataclass(frozen=True)
class CensusRow:
    """Bound-state census entry for one leg offset."""

    size: int
    delta: int
    n_bic: int
    roots: tuple[BicRoot, ...]

    @property
    def energies(self) -> tuple[float, ...]:
        return tuple(r.energy for r in self.roots)


def braided_config(size: int, delta, g: float = 0.1) -> SystemConfig:
    """The census geometry: two atoms of size ``size``, legs (1, 1 + size)
    and (1 + delta, 1 + delta + size), both coupled at ``g``, at the default
    band and atomic frequencies.  ``delta`` is an integer (or its numeral)
    with 0 < delta < size, else ConfigError."""
    offset = int(delta)
    if not isinstance(delta, str) and offset != delta:
        raise ConfigError(f"leg offset delta must be an integer, got {delta!r}")
    if not 0 < offset < size:
        raise ConfigError(f"braided geometry needs 0 < delta < size, got delta={offset}")
    return SystemConfig(n_1=1, n_2=1 + size, m_1=1 + offset, m_2=1 + offset + size,
                        g_1=g, g_2=g)


def bic_census(size: int, delta_list, g: float = 0.1) -> list[CensusRow]:
    """Bound-state count and energies of the ``braided_config`` geometries
    of one atom size over a list of leg offsets."""
    rows = []
    for delta in delta_list:
        cfg = braided_config(size, delta, g)
        roots = find_bic_roots(cfg)
        rows.append(CensusRow(size=size, delta=cfg.m_1 - cfg.n_1,
                              n_bic=sum(r.multiplicity for r in roots), roots=tuple(roots)))
    return rows
