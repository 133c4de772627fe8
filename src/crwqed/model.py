"""Domain types and shared physics for two giant atoms coupled to a 1-D
coupled-resonator waveguide (CRW).

All energies are measured in units of the photon hopping strength ``xi``
and times in ``1/xi`` (hbar = 1).  Resonator sites are labelled by integer
"absolute" indices, the same indexing used for the atom coupling legs, so a
leg at ``n_1 = 1`` couples to resonator 1 wherever the finite lattice is
placed.  The lattice constant is unity throughout.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

CONFIG_KEYS = (
    "omega_c", "xi", "omega_1", "omega_2", "g_1", "g_2",
    "n_1", "n_2", "m_1", "m_2", "t_max", "dt", "n_c",
)
_INT_KEYS = frozenset({"n_1", "n_2", "m_1", "m_2", "n_c"})

# Neither the closed form nor the lattice labels a state closer than this
# (in xi) to a band edge a BIC: light is slow there.  An exact BIC needs
# e^{ikN} = -1 or e^{ik delta} = -s, and the smallest such k lies this close
# to an edge only for leg distances of about 100 sites or more.
BAND_EDGE_GUARD = 1e-3
# Widths of the Bessel front, about (2 xi t)^{1/3} sites, that the field
# reaches past its light cone 2 xi t.  With 4.5 the Volterra and lattice
# routes agree to the scheme's own error up to the round-trip window's end
# on fig3's geometry (n_c 200 to 1462); a constant 30 sites falls short.
LIGHT_CONE_PAD = 4.5
# Scales a SystemConfig accepts (legs (1, 7, 4, 10), n_c = 200): run, bic
# and spectrum pass at each bound; beyond, xi = 1e300 or 1e-150 and omegas
# of 1e9 xi fail the lattice checks, g = 1e4 xi the root residual, and
# g = 1e200 overflows g ** 2.
MIN_XI, MAX_XI = 1e-100, 1e100
MAX_FREQUENCY_RATIO = 1e7  # |omega_c|, |omega_1|, |omega_2| over xi
MAX_COUPLING_RATIO = 1e3  # g_1, g_2 over xi


def light_cone_reach(cfg: SystemConfig, t: float) -> int:
    """Sites beyond the outermost legs that the field emitted since time 0
    reaches by time t: the light cone at group velocity 2 xi and
    ``LIGHT_CONE_PAD`` widths of its front."""
    cone = 2.0 * cfg.xi * t
    return math.ceil(cone + LIGHT_CONE_PAD * cone ** (1.0 / 3.0))


class ConfigError(ValueError):
    """Invalid physical configuration or config-file content."""


class SolverError(RuntimeError):
    """A numerical method failed on a valid configuration: the Volterra
    integration became unstable or the eigensolver failed its checks."""


@dataclass(frozen=True)
class SystemConfig:
    """Physical parameters of the two-giant-atom / CRW system.

    Parameters
    ----------
    n_1, n_2 : int
        Resonator sites the first atom couples to.
    m_1, m_2 : int
        Resonator sites the second atom couples to.
    omega_c : float
        Bare resonator frequency (band center).
    xi : float
        Photon hopping strength between adjacent resonators; the global
        energy unit.  Must be positive.
    omega_1, omega_2 : float
        Atomic transition frequencies.
    g_1, g_2 : float
        Atom-waveguide coupling strengths (per leg), non-negative.

    The resonant regime used by all bundled presets is
    ``omega_1 = omega_2 = omega_c = 0`` with ``g = 0.1 xi``.

    A ``SystemConfig`` that exists is valid, with its legs sorted:
    construction raises ConfigError otherwise (see ``__post_init__``).
    """

    n_1: int
    n_2: int
    m_1: int
    m_2: int
    omega_c: float = 0.0
    xi: float = 1.0
    omega_1: float = 0.0
    omega_2: float = 0.0
    g_1: float = 0.1
    g_2: float = 0.1

    def __post_init__(self):
        """Reject non-integral legs, non-finite frequencies or couplings,
        non-positive ``xi``, negative couplings, scales beyond ``MIN_XI``,
        ``MAX_XI``, ``MAX_FREQUENCY_RATIO`` or ``MAX_COUPLING_RATIO`` and
        coincident legs (ConfigError), then store the legs as ints, sorted
        so that ``n_1 < n_2`` and ``m_1 < m_2`` (the physics is invariant
        under leg relabelling)."""
        for name in ("n_1", "n_2", "m_1", "m_2"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)
                    and value == int(value)):
                raise ConfigError(f"leg {name} must be an integer, got {value!r}")
        if not (self.xi > 0.0) or not math.isfinite(self.xi):
            raise ConfigError(f"hopping strength xi must be positive, got {self.xi}")
        for name in ("omega_c", "omega_1", "omega_2", "g_1", "g_2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.g_1 < 0.0 or self.g_2 < 0.0:
            raise ConfigError(
                f"couplings must be non-negative, got g_1={self.g_1}, g_2={self.g_2}")
        if not MIN_XI <= self.xi <= MAX_XI:
            raise ConfigError(f"hopping strength xi must lie in [{MIN_XI:g}, {MAX_XI:g}], "
                              f"got {self.xi}")
        for names, bound in ((("omega_c", "omega_1", "omega_2"), MAX_FREQUENCY_RATIO),
                             (("g_1", "g_2"), MAX_COUPLING_RATIO)):
            for name in names:
                if abs(getattr(self, name)) > bound * self.xi:
                    raise ConfigError(f"|{name}| must be at most {bound:g} xi, "
                                      f"got {getattr(self, name)} at xi = {self.xi}")
        if self.n_1 == self.n_2:
            raise ConfigError(f"coincident legs for the first atom: n_1 = n_2 = {self.n_1}")
        if self.m_1 == self.m_2:
            raise ConfigError(f"coincident legs for the second atom: m_1 = m_2 = {self.m_1}")
        for first, second in (("n_1", "n_2"), ("m_1", "m_2")):
            lo, hi = sorted((int(getattr(self, first)), int(getattr(self, second))))
            object.__setattr__(self, first, lo)
            object.__setattr__(self, second, hi)

    @property
    def size_1(self) -> int:
        """Extent of the first giant atom, n_2 - n_1."""
        return self.n_2 - self.n_1

    @property
    def size_2(self) -> int:
        return self.m_2 - self.m_1

    @property
    def legs(self) -> tuple[int, int, int, int]:
        return (self.n_1, self.n_2, self.m_1, self.m_2)

    @property
    def outer_legs(self) -> tuple[int, int]:
        """Leftmost and rightmost leg, whichever atoms they belong to."""
        return min(self.legs), max(self.legs)

    @property
    def span(self) -> int:
        """Distance between the outermost legs."""
        first, last = self.outer_legs
        return last - first

    @property
    def cross_distances(self) -> tuple[int, int, int, int]:
        """|n_j - m_j'| over the four leg pairs (waveguide path lengths)."""
        return (abs(self.n_1 - self.m_1), abs(self.n_1 - self.m_2),
                abs(self.n_2 - self.m_1), abs(self.n_2 - self.m_2))

    @property
    def photon_free_states(self) -> int:
        """Number of atomic states the legs do not see: an atom with g = 0,
        or g_2 A_1 - g_1 A_2 of two coupled atoms on the same two sites at
        equal frequencies.  They are no bound states of the waveguide."""
        if self.g_1 == 0.0 or self.g_2 == 0.0:
            return (self.g_1 == 0.0) + (self.g_2 == 0.0)
        return int((self.n_1, self.n_2) == (self.m_1, self.m_2) and self.omega_1 == self.omega_2)

    @property
    def band_bottom(self) -> float:
        return self.omega_c - 2.0 * self.xi

    @property
    def band_top(self) -> float:
        return self.omega_c + 2.0 * self.xi

    @property
    def symmetric_resonant(self) -> bool:
        """Equal couplings, equal transition frequencies, equal atom sizes."""
        return (self.g_1 == self.g_2 and self.omega_1 == self.omega_2
                and self.size_1 == self.size_2)


@dataclass(frozen=True)
class WavefunctionState:
    """Single-excitation amplitudes: two atoms plus real-space photon field.

    ``beta`` maps absolute resonator index -> complex amplitude; sites not
    present hold zero amplitude.
    """

    alpha_1: complex
    alpha_2: complex
    beta: dict[int, complex] = field(default_factory=dict)

    @property
    def photon_vacuum(self) -> bool:
        return all(abs(b) == 0.0 for b in self.beta.values())


_INITIAL_STATES = ("atom1", "atom2", "symmetric", "antisymmetric")


def initial_state(which: str) -> WavefunctionState:
    """Unit-norm initial state with the photon field in vacuum.

    ``which`` selects atom1, atom2, or the (anti)symmetric superposition
    ``(atom1 +- atom2)/sqrt(2)``.
    """
    if which == "atom1":
        return WavefunctionState(1.0 + 0.0j, 0.0j)
    if which == "atom2":
        return WavefunctionState(0.0j, 1.0 + 0.0j)
    s = 1.0 / math.sqrt(2.0)
    if which == "symmetric":
        return WavefunctionState(s + 0.0j, s + 0.0j)
    if which == "antisymmetric":
        return WavefunctionState(s + 0.0j, -s + 0.0j)
    raise ConfigError(f"unknown initial state {which!r}; choose one of {_INITIAL_STATES}")


# Most nodes a stage that reads the time grid takes (t_max = 2e4 at
# dt = 0.02).  The Volterra solve is quadratic in them: 0.74 s at 2e5 nodes
# and 5.9 s at 5e5 on resonance, so about half a minute here.  A run holds
# about 270 bytes per node (fig3: 65 MB peak at 1e5 nodes, 91 MB at 2e5),
# and dynamics.csv and mtrace.csv take about 85 bytes per node each.
MAX_GRID_NODES = 10 ** 6


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid; node times are n*dt exactly (no accumulation)."""

    t_max: float
    dt: float

    def __post_init__(self):
        if not (math.isfinite(self.t_max) and math.isfinite(self.dt)):
            raise ConfigError(f"t_max and dt must be finite, got t_max={self.t_max}, dt={self.dt}")
        if not (self.dt > 0.0):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.dt > self.t_max:
            raise ConfigError(f"dt={self.dt} exceeds t_max={self.t_max}")
        if not math.isfinite(self.t_max / self.dt):
            raise ConfigError(f"t_max={self.t_max} over dt={self.dt} is no finite step count")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_max / self.dt))

    @property
    def t_end(self) -> float:
        return self.n_steps * self.dt

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    def node(self, t: float) -> int:
        """Index of the grid node at time t; ConfigError unless t lies on
        the grid."""
        n = int(round(t / self.dt))
        if n < 0 or n > self.n_steps or abs(t - n * self.dt) > 1e-9 * max(1.0, self.dt):
            raise ConfigError(f"t={t} is not a node of the grid (dt={self.dt}, t_end={self.t_end})")
        return n


@dataclass(frozen=True)
class AtomTrajectory:
    """Time series of the two atomic amplitudes on a uniform grid."""

    grid: TimeGrid
    alpha_1: np.ndarray
    alpha_2: np.ndarray

    @property
    def pop_1(self) -> np.ndarray:
        return np.abs(self.alpha_1) ** 2

    @property
    def pop_2(self) -> np.ndarray:
        return np.abs(self.alpha_2) ** 2


@dataclass(frozen=True)
class FieldSnapshot:
    """Real-space photon amplitudes over a site window at one time."""

    time: float
    sites: np.ndarray
    beta: np.ndarray

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.beta) ** 2


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse ``key = value`` configuration text.

    Blank lines and ``#`` comments are ignored.  Unknown keys are an error
    (reported with their line number), as are duplicate keys and malformed
    values.  Returns a plain dict with ints for site/lattice keys and floats
    otherwise.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = int(val) if key in _INT_KEYS else float(val)
        except ValueError:
            raise ConfigError(f"{source}:{lineno}: bad value {val!r} for {key!r}") from None
    return values


def parse_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {str(path)!r}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def config_from_mapping(values: dict) -> tuple[SystemConfig, TimeGrid | None, int | None]:
    """Build (SystemConfig, TimeGrid, n_c) from parsed config values.

    The grid is returned only when both ``t_max`` and ``dt`` are present;
    ``n_c`` only when given.
    """
    missing = [k for k in ("n_1", "n_2", "m_1", "m_2") if k not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    cfg_kwargs = {k: values[k] for k in values if k not in ("t_max", "dt", "n_c")}
    cfg = SystemConfig(**cfg_kwargs)
    grid = None
    if "t_max" in values or "dt" in values:
        if not ("t_max" in values and "dt" in values):
            raise ConfigError("t_max and dt must be given together")
        grid = TimeGrid(t_max=values["t_max"], dt=values["dt"])
    n_c = int(values["n_c"]) if "n_c" in values else None
    return cfg, grid, n_c
