import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crwqed.model import (
    MAX_COUPLING_RATIO,
    MAX_FREQUENCY_RATIO,
    MAX_XI,
    MIN_XI,
    ConfigError,
    SystemConfig,
    TimeGrid,
    config_from_mapping,
    initial_state,
    parse_config_text,
)


def test_validate_fig3_geometry():
    cfg = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10)
    assert cfg.size_1 == cfg.size_2 == 6
    assert cfg.cross_distances == (3, 9, 3, 3)


def test_validate_fig4_geometry():
    cfg = SystemConfig(n_1=1, n_2=9, m_1=3, m_2=11)
    assert cfg.size_1 == cfg.size_2 == 8
    assert cfg.cross_distances == (2, 10, 6, 2)


def test_coincident_legs_rejected():
    with pytest.raises(ConfigError, match="first atom: n_1 = n_2 = 5"):
        SystemConfig(n_1=5, n_2=5, m_1=1, m_2=2)
    with pytest.raises(ConfigError, match="second atom: m_1 = m_2 = 7"):
        SystemConfig(n_1=1, n_2=2, m_1=7, m_2=7)


def test_bad_scalars_rejected():
    with pytest.raises(ConfigError, match="xi must be positive, got 0.0"):
        SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, xi=0.0)
    with pytest.raises(ConfigError, match="xi must be positive, got -1.0"):
        SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, xi=-1.0)
    with pytest.raises(ConfigError, match="xi must be positive, got nan"):
        SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, xi=math.nan)
    with pytest.raises(ConfigError, match="non-negative, got g_1=-0.1, g_2=0.1"):
        SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_1=-0.1)
    # replace() constructs anew, so it cannot make an invalid config either
    with pytest.raises(ConfigError, match="coincident"):
        replace(SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10), n_2=1)


@pytest.mark.parametrize("xi", [MIN_XI, 1.0, MAX_XI])
def test_scale_bounds_are_inclusive(xi):
    # every bound at its edge is accepted, and one step past it is not
    edges = {"omega_c": -MAX_FREQUENCY_RATIO * xi, "omega_1": MAX_FREQUENCY_RATIO * xi,
             "omega_2": -MAX_FREQUENCY_RATIO * xi, "g_1": MAX_COUPLING_RATIO * xi,
             "g_2": MAX_COUPLING_RATIO * xi}
    SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, xi=xi, **edges)
    for name, value in edges.items():
        with pytest.raises(ConfigError, match=rf"\|{name}\| must be at most"):
            SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, xi=xi,
                         **{**edges, name: value * (1 + 1e-15)})
    for outside in (MIN_XI * (1 - 1e-15), MAX_XI * (1 + 1e-15)):
        with pytest.raises(ConfigError, match=r"xi must lie in \[1e-100, 1e\+100\]"):
            SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, xi=outside)


@pytest.mark.parametrize("name", ["omega_c", "omega_1", "omega_2", "g_1", "g_2"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_scalars_rejected(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, **{name: value})


@pytest.mark.parametrize("value", [7.5, math.nan, math.inf, "7", None])
def test_non_integral_legs_rejected(value):
    with pytest.raises(ConfigError, match=f"leg n_2 must be an integer, got {value!r}"):
        SystemConfig(n_1=1, n_2=value, m_1=4, m_2=10.5 if value == 7.5 else 10)


@pytest.mark.parametrize("value", [7.0, np.int64(7), np.float64(7.0)])
def test_integral_legs_stored_as_int(value):
    cfg = SystemConfig(n_1=value, n_2=1, m_1=4, m_2=10)
    assert cfg.legs == (1, 7, 4, 10) and all(type(leg) is int for leg in cfg.legs)
    assert cfg == SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10)


@pytest.mark.parametrize("t_max, dt", [(math.nan, 0.02), (math.inf, 0.02),
                                       (1.0, math.nan), (1.0, math.inf),
                                       (1e308, 0.02), (1.0, 1e-320)])
def test_time_grid_rejects_non_finite(t_max, dt):
    with pytest.raises(ConfigError, match="finite"):
        TimeGrid(t_max=t_max, dt=dt)


def test_leg_normalization_sorts():
    cfg = SystemConfig(n_1=7, n_2=1, m_1=10, m_2=4)
    assert (cfg.n_1, cfg.n_2, cfg.m_1, cfg.m_2) == (1, 7, 4, 10)
    assert cfg == SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10)


@given(st.integers(-40, 40), st.integers(1, 12), st.integers(-40, 40), st.integers(1, 12))
def test_validate_idempotent(n_1, size_1, m_1, size_2):
    cfg = SystemConfig(n_1=n_1 + size_1, n_2=n_1, m_1=m_1 + size_2, m_2=m_1)
    assert cfg.legs == (n_1, n_1 + size_1, m_1, m_1 + size_2)
    assert SystemConfig(**asdict(cfg)) == cfg


def test_initial_states():
    s1 = initial_state("atom1")
    assert (s1.alpha_1, s1.alpha_2) == (1.0 + 0.0j, 0.0j)
    assert s1.photon_vacuum
    s2 = initial_state("atom2")
    assert (s2.alpha_1, s2.alpha_2) == (0.0j, 1.0 + 0.0j)
    for which in ("symmetric", "antisymmetric"):
        s = initial_state(which)
        assert abs(s.alpha_1) ** 2 + abs(s.alpha_2) ** 2 == pytest.approx(1.0, abs=1e-15)
        assert not s.beta
    with pytest.raises(ConfigError):
        initial_state("atom3")


def test_time_grid_nodes_exact():
    grid = TimeGrid(t_max=1.0, dt=0.1)
    times = grid.times()
    assert times.size == 11
    assert np.all(times == np.arange(11) * 0.1)
    assert grid.node(0.5) == 5
    with pytest.raises(ConfigError, match="not a node"):
        grid.node(0.55001)
    with pytest.raises(ConfigError):
        TimeGrid(t_max=1.0, dt=2.0)
    with pytest.raises(ConfigError):
        TimeGrid(t_max=1.0, dt=0.0)


def test_parse_config_roundtrip():
    text = """
    # comment
    omega_c = 0.0
    xi = 1.0
    g_1 = 0.1
    g_2 = 0.1
    n_1 = 1
    n_2 = 7
    m_1 = 4
    m_2 = 10
    t_max = 700
    dt = 0.02
    n_c = 600
    """
    values = parse_config_text(text)
    cfg, grid, n_c = config_from_mapping(values)
    assert cfg == SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10)
    assert grid.t_max == 700.0 and grid.dt == 0.02
    assert n_c == 600


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match=":2: unknown key"):
        parse_config_text("n_1 = 1\nbogus = 3\n")
    with pytest.raises(ConfigError, match=":3: duplicate"):
        parse_config_text("n_1 = 1\nn_2 = 7\nn_2 = 8\n")
    with pytest.raises(ConfigError, match=":1: bad value"):
        parse_config_text("xi = fast\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("just some words\n")


def test_config_from_mapping_requires_legs_and_paired_grid():
    with pytest.raises(ConfigError, match="missing required"):
        config_from_mapping({"n_1": 1, "n_2": 7, "m_1": 4})
    with pytest.raises(ConfigError, match="together"):
        config_from_mapping({"n_1": 1, "n_2": 7, "m_1": 4, "m_2": 10, "t_max": 5.0})


def test_photon_free_states():
    fig3 = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10)
    same = SystemConfig(n_1=1, n_2=7, m_1=7, m_2=1, g_1=0.1, g_2=0.3)
    assert fig3.photon_free_states == 0
    assert replace(fig3, g_2=0.0).photon_free_states == 1
    assert replace(fig3, g_1=0.0, g_2=0.0).photon_free_states == 2
    assert same.photon_free_states == 1  # g_2 A_1 - g_1 A_2
    assert replace(same, g_1=0.0).photon_free_states == 1
    assert replace(same, omega_2=0.01).photon_free_states == 0
