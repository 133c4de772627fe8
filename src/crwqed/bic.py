"""Closed-form solver for in-band bound states (BICs) of two identical
giant atoms.

In the symmetric resonant regime (g_1 = g_2, Omega_1 = Omega_2, equal atom
sizes N) the single-excitation eigenvalue problem reduces, per atomic parity
A_1 = +-A_2, to one real transcendental equation

    f_s(E) = E - Omega - g^2 [2 G_N(E) + s * sum_{j,j'} G_{|n_j - m_j'|}(E)] = 0,

where G_p(E) is the Hermitian (principal-value) part of the infinite-chain
Green's function between sites a distance p apart.  Inside the band, with
chi = exp[-i arccos((E - omega_c)/(2 xi))],

    G_p(E) = (-chi)^p / (xi (chi* - chi)),

whose real part is (-1)^{p+1} sin(p theta) / (2 xi sin theta); the factor
(-chi) = e^{i k*} is the Bloch phase of the resonant mode.  -Im G_p is the
corresponding half decay width, which vanishes at a genuine BIC.  Roots of
f_s are bound-state candidates only: a root is kept on the parity branches
whose half width (g^2/xi) |Im bracket| is at most ``BIC_MAX_IM_BRACKET``
g^2/xi, which weeds out the in-band resonances the same equation produces
for geometries with no BIC.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, SystemConfig, validate_config

# Exclusion zone at the band edges for the root scan; chi - chi* vanishes at
# the edges and genuine BICs sit near band center.
EDGE_EXCLUSION = 1e-4
DEFAULT_SCAN_INTERVALS = 4000
BISECTION_TOL = 1e-10
# Roots from the two parity branches closer than this are one degenerate root.
DEGENERATE_MERGE = 1e-8
# A parity branch of a root is a bound state when |Im bracket| is at most
# this, i.e. its half width is at most 0.1 g^2/xi.  Over N = 2..12, every
# offset and g = 0.02..0.3, exact BICs (compact support) have zero width,
# quasi-BIC pairs at most 0.048 and in-band resonances at least 0.207.
BIC_MAX_IM_BRACKET = 0.1

BRANCHES = (+1, -1)


def _require_symmetric(cfg: SystemConfig) -> SystemConfig:
    cfg = validate_config(cfg)
    if not cfg.symmetric_resonant:
        raise ConfigError(
            "the closed-form bound-state equation requires g_1 = g_2, "
            "omega_1 = omega_2 and equal atom sizes; got "
            f"g=({cfg.g_1}, {cfg.g_2}), omega=({cfg.omega_1}, {cfg.omega_2}), "
            f"sizes=({cfg.size_1}, {cfg.size_2})")
    return cfg


def chi(E: float, cfg: SystemConfig) -> complex:
    """Unit-modulus root chi = (E-omega_c)/(2 xi) - i sqrt(1 - ((E-omega_c)/(2 xi))^2).

    Defined strictly inside the band.
    """
    cfg = validate_config(cfg)
    x = (E - cfg.omega_c) / (2.0 * cfg.xi)
    if not -1.0 < x < 1.0:
        raise ValueError(f"E={E} lies outside the open band "
                         f"({cfg.band_bottom}, {cfg.band_top})")
    return complex(x, -math.sqrt(1.0 - x * x))


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


def _residual_grid(E, cfg: SystemConfig, branch: int):
    shift = _bracket(E, cfg, branch).real
    return np.asarray(E) - cfg.omega_1 - (cfg.g_1 ** 2 / cfg.xi) * shift


@dataclass(frozen=True)
class BicRoot:
    """One in-band bound state of the closed-form equation."""

    energy: float
    branch: str           # "+", "-" (A_1 = +-A_2) or "+-" for a degenerate pair
    chi: complex
    multiplicity: int
    residual: float       # |f| at the root, maximum over the merged branches
    width: float          # half width (g^2/xi)|Im bracket|, maximum over the counted branches


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


def _branch_roots(cfg: SystemConfig, branch: int) -> list[tuple[float, float]]:
    """(energy, |f|) roots of one parity branch: every scan node where f is
    exactly 0, and a bisection in every scan interval where f changes sign."""
    lo = cfg.band_bottom + EDGE_EXCLUSION * cfg.xi
    hi = cfg.band_top - EDGE_EXCLUSION * cfg.xi
    grid = np.linspace(lo, hi, DEFAULT_SCAN_INTERVALS + 1)
    vals = _residual_grid(grid, cfg, branch)
    f = lambda e: float(_residual_grid(e, cfg, branch))
    tol = BISECTION_TOL * cfg.xi

    roots: list[tuple[float, float]] = []
    zero = vals[:-1] == 0.0
    for i in np.flatnonzero(zero | (vals[:-1] * vals[1:] < 0.0)):
        if zero[i]:
            roots.append((float(grid[i]), 0.0))
        else:
            e = _bisect(f, float(grid[i]), float(grid[i + 1]), float(vals[i]), tol)
            roots.append((e, abs(f(e))))
    # roots ascend with the scan; collapse duplicates from adjacent scan cells
    dedup: list[tuple[float, float]] = []
    for e, fe in roots:
        if dedup and abs(e - dedup[-1][0]) <= DEGENERATE_MERGE * cfg.xi:
            continue
        dedup.append((e, fe))
    width = (hi - lo) / DEFAULT_SCAN_INTERVALS
    for (e1, _), (e2, _) in zip(dedup, dedup[1:]):
        if e2 - e1 < 2.0 * width:
            warnings.warn(
                f"roots at E={e1:.6g} and E={e2:.6g} are closer than two scan "
                f"intervals ({2.0 * width:.3g}); the scan may miss roots between them",
                stacklevel=3)
    return dedup


def find_bic_roots(cfg: SystemConfig) -> list[BicRoot]:
    """All in-band bound states, both parity branches.

    Roots of the two branches are merged when they coincide within 1e-8 xi.
    A branch s of a merged root counts when |Im bracket_s(E)| <=
    ``BIC_MAX_IM_BRACKET``, that is when its half width
    (g^2/xi)|Im bracket_s| is at most 0.1 g^2/xi; the multiplicity is the
    number of counting branches, the branch label names them, and a root
    with none is an in-band resonance and is dropped.  Decoupled atoms
    (g = 0) carry no photon amplitude and have no bound state.
    """
    cfg = _require_symmetric(cfg)
    if cfg.g_1 == 0.0:
        return []
    per_branch = {s: _branch_roots(cfg, s) for s in BRANCHES}

    # merge across branches
    merged: list[dict] = []
    for s in BRANCHES:
        for e, fe in per_branch[s]:
            for m in merged:
                if abs(e - m["energy"]) <= DEGENERATE_MERGE * cfg.xi:
                    m["branches"].append(s)
                    m["residual"] = max(m["residual"], fe)
                    break
            else:
                merged.append({"energy": e, "branches": [s], "residual": fe})
    merged.sort(key=lambda m: m["energy"])

    roots: list[BicRoot] = []
    for m in merged:
        im = {s: abs(float(_bracket(m["energy"], cfg, s).imag)) for s in m["branches"]}
        branches = [s for s in m["branches"] if im[s] <= BIC_MAX_IM_BRACKET]
        if not branches:
            continue  # in-band resonance, not a bound state
        label = "+-" if len(branches) == 2 else ("+" if branches[0] > 0 else "-")
        roots.append(BicRoot(
            energy=m["energy"], branch=label, chi=chi(m["energy"], cfg),
            multiplicity=len(branches), residual=m["residual"],
            width=(cfg.g_1 ** 2 / cfg.xi) * max(im[s] for s in branches)))
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


def bic_census(size: int, delta_list, g: float = 0.1) -> list[CensusRow]:
    """Bound-state count and energies for braided geometries of equal atom
    size over a list of integral leg offsets delta (0 < delta < size, else
    ConfigError), at the default band and atomic frequencies."""
    rows = []
    for value in delta_list:
        delta = int(value)
        if not isinstance(value, str) and delta != value:
            raise ConfigError(f"leg offset delta must be an integer, got {value!r}")
        if not 0 < delta < size:
            raise ConfigError(f"braided geometry needs 0 < delta < size, got delta={delta}")
        cfg = SystemConfig(n_1=1, n_2=1 + size, m_1=1 + delta, m_2=1 + delta + size,
                           g_1=g, g_2=g)
        roots = find_bic_roots(cfg)
        rows.append(CensusRow(
            size=size, delta=delta,
            n_bic=sum(r.multiplicity for r in roots),
            roots=tuple(roots)))
    return rows
