import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    bic_roots_two_pass,
    branch_roots_scan,
    lamb_shift_sum_oracle,
    transcendental_residual,
)

from crwqed.model import BAND_EDGE_GUARD, ConfigError, SystemConfig
from crwqed import bic, spectrum
from crwqed.bic import (
    BicRoot,
    bic_census,
    find_bic_roots,
    rabi_period,
)

FIG3 = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10)      # size 6, delta 3
FIG4 = SystemConfig(n_1=1, n_2=9, m_1=3, m_2=11)      # size 8, delta 2
NO_BIC = SystemConfig(n_1=1, n_2=9, m_1=4, m_2=12)    # size 8, delta 3
DOUBLE = SystemConfig(n_1=1, n_2=7, m_1=3, m_2=9)     # size 6, delta 2


def test_residual_zero_at_band_center_for_size8_even_offset():
    # perfect destructive interference: the interaction numerator vanishes
    # identically at band center, 4 + (-4) = 0 over the leg-distance powers
    assert transcendental_residual(0.0, +1, FIG4) == pytest.approx(0.0, abs=1e-14)
    assert transcendental_residual(0.0, -1, FIG4) == pytest.approx(0.0, abs=1e-14)


def test_residual_reduces_to_detuning_when_decoupled():
    cfg = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_1=0.0, g_2=0.0, omega_1=0.3, omega_2=0.3)
    for e in (-1.5, -0.2, 0.0, 0.7, 1.9):
        assert transcendental_residual(e, +1, cfg) == pytest.approx(e - 0.3, abs=1e-14)


def test_residual_rejects_asymmetric_and_edge():
    asym = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_1=0.1, g_2=0.2)
    with pytest.raises(ValueError, match="g_1 = g_2"):
        transcendental_residual(0.0, +1, asym)
    with pytest.raises(ValueError, match="edge"):
        transcendental_residual(2.0 - 1e-9, +1, FIG3)
    with pytest.raises(ValueError, match="branch"):
        transcendental_residual(0.0, 2, FIG3)


def test_sign_change_brackets_the_splitting():
    vals = [transcendental_residual(e, b, FIG3) for e in (0.005, 0.015) for b in (+1, -1)]
    # one parity branch crosses zero between 0.005 and 0.015
    assert any(transcendental_residual(0.005, b, FIG3)
               * transcendental_residual(0.015, b, FIG3) < 0 for b in (+1, -1))
    assert all(math.isfinite(v) for v in vals)


@pytest.fixture(scope="module")
def fig3_roots():
    return find_bic_roots(FIG3)


def test_fig3_root_pair(fig3_roots):
    assert len(fig3_roots) == 2
    energies = sorted(r.energy for r in fig3_roots)
    assert energies[0] == pytest.approx(-0.0097, abs=1e-3)
    assert energies[1] == pytest.approx(+0.0097, abs=1e-3)
    for r in fig3_roots:
        assert r.multiplicity == 1
        assert r.residual <= 1e-8


def test_fig3_branch_labels_match_lattice_parity(fig3_roots):
    # the +(symmetric, A1 = +A2) branch root must coincide with the lattice
    # eigenstate of even atomic parity, and the - branch with odd parity
    ham = spectrum.build_hamiltonian(FIG3, 600)
    profiles = spectrum.bound_states(
        spectrum.classify_bound_states(spectrum.eigendecompose(ham), FIG3))
    for r in fig3_roots:
        match = min(profiles, key=lambda p: abs(p.energy - r.energy))
        parity = "+" if match.amp_1 * match.amp_2 > 0 else "-"
        assert r.branch == parity


def test_double_root_at_band_center():
    roots = find_bic_roots(DOUBLE)
    assert len(roots) == 1
    assert roots[0].multiplicity == 2
    assert roots[0].branch == "+-"
    assert abs(roots[0].energy) <= 1e-6


def test_no_roots_survive_for_size8_odd_offset():
    assert find_bic_roots(NO_BIC) == []


def test_size8_even_offset_single_root():
    roots = find_bic_roots(FIG4)
    assert len(roots) == 1
    assert roots[0].multiplicity == 1
    assert abs(roots[0].energy) <= 1e-6


@settings(max_examples=20, deadline=None)
@given(st.integers(-30, 30), st.sampled_from([-1.34, -0.41, 0.0, 0.55, 1.62]))
def test_residual_translation_invariant(shift, energy):
    moved = SystemConfig(n_1=1 + shift, n_2=7 + shift, m_1=4 + shift, m_2=10 + shift)
    for branch in (+1, -1):
        assert transcendental_residual(energy, branch, moved) == pytest.approx(
            transcendental_residual(energy, branch, FIG3), abs=1e-13)


def test_mirror_symmetry_of_root_set():
    # at resonance the residual is odd under E -> -E; the branch swaps when
    # the leg distances are odd (they all share the parity of the offset)
    for cfg in (FIG3, FIG4, DOUBLE, NO_BIC):
        swap = (cfg.m_1 - cfg.n_1) % 2 == 1
        for e in (0.3, 0.87, 1.4):
            for s in (+1, -1):
                partner = -s if swap else s
                assert transcendental_residual(-e, s, cfg) == pytest.approx(
                    -transcendental_residual(e, partner, cfg), abs=1e-12)
    roots = find_bic_roots(FIG3)
    energies = sorted(r.energy for r in roots)
    assert energies[0] == pytest.approx(-energies[1], abs=1e-9)


def test_sum_oracle_vanishes_when_decoupled():
    cfg = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10, g_1=0.0, g_2=0.0)
    assert lamb_shift_sum_oracle(0.3, cfg, 4000) == 0.0


@pytest.mark.parametrize("energy", [0.3, -0.9])
def test_sum_oracle_first_order_convergence(energy):
    target = transcendental_residual(energy, +1, FIG3)
    shift_exact = energy - FIG3.omega_1 - target  # = g^2/xi * Re(bracket)
    errs = [abs(complex(lamb_shift_sum_oracle(energy, FIG3, n, +1)).real - shift_exact)
            for n in (4000, 40000)]
    order = math.log10(errs[0] / errs[1])
    assert order >= 1.0


def test_sum_oracle_band_center_limit():
    # approaching the degenerate root of the size-8 even-offset geometry
    for e in (1e-2, 1e-3, 1e-4):
        shift_exact = e - FIG4.omega_1 - transcendental_residual(e, +1, FIG4)
        approx = complex(lamb_shift_sum_oracle(e, FIG4, 100000, +1)).real
        assert abs(approx - shift_exact) <= 1e-3


def test_rabi_period_values(fig3_roots):
    t = rabi_period(fig3_roots)
    split = abs(fig3_roots[0].energy - fig3_roots[1].energy)
    assert t == pytest.approx(2.0 * math.pi / split, rel=1e-12)
    assert t == pytest.approx(323.9, rel=0.01)


def test_rabi_period_degenerate_flag_and_errors():
    double = find_bic_roots(DOUBLE)
    assert math.isinf(rabi_period(double))
    root = BicRoot(energy=0.25, branch="+", multiplicity=1, residual=0.0, width=0.0)
    assert math.isinf(rabi_period([root, replace(root, branch="-")]))  # two roots, one energy
    single = find_bic_roots(FIG4)
    with pytest.raises(ValueError):
        rabi_period(single)
    with pytest.raises(ValueError):
        rabi_period([])


def test_census_rows():
    rows = bic_census(6, [2, 3])
    by_delta = {r.delta: r for r in rows}
    assert by_delta[2].n_bic == 2 and by_delta[2].roots[0].multiplicity == 2
    assert by_delta[3].n_bic == 2
    assert sorted(by_delta[3].energies) == pytest.approx([-0.0097, 0.0097], abs=1e-3)
    with pytest.raises(ValueError, match="0 < delta < size"):
        bic_census(6, [6])


RESONANCE_NEAR_CENTER = SystemConfig(n_1=1, n_2=4, m_1=3, m_2=6)  # size 3, delta 2


def test_resonance_near_a_bic_is_not_counted():
    # the - branch also has a root at E = -0.0202 xi, but with half width
    # 0.0194 xi: an in-band resonance, which a width-widened energy match
    # used to pair with the one E = 0 lattice BIC
    assert any(abs(e + 0.0202) <= 1e-4 for e, _ in bic._branch_roots(
        RESONANCE_NEAR_CENTER, -1))
    roots = find_bic_roots(RESONANCE_NEAR_CENTER)
    assert len(roots) == 1
    assert roots[0].multiplicity == 1 and roots[0].branch == "+"
    assert abs(roots[0].energy) <= 1e-6
    assert roots[0].width == 0.0


def test_width_decides_each_branch():
    g2 = FIG3.g_1 ** 2 / FIG3.xi
    # quasi-BIC pair: small but finite width, one branch each
    for r in find_bic_roots(FIG3):
        assert 0.0 < r.width <= 1e-3 * g2  # 4.18e-4 g^2/xi
        s = +1 if r.branch == "+" else -1
        assert r.width == pytest.approx(g2 * abs(bic._bracket(r.energy, FIG3, s).imag), rel=1e-15)
    # compact-support BICs: zero width on every counted branch
    assert [r.width for r in find_bic_roots(FIG4)] == [0.0]
    assert [r.width for r in find_bic_roots(DOUBLE)] == [0.0]
    # the size-8 odd-offset geometry has roots of f_s, all too wide to count
    widths = [abs(bic._bracket(e, NO_BIC, s).imag)
              for s in bic.BRANCHES for e, _ in bic._branch_roots(NO_BIC, s)]
    assert widths and min(widths) > bic.BIC_MAX_IM_BRACKET


def test_band_centre_roots_are_exactly_omega_c():
    # the compact-support BICs: x = 0 is divided out of the polynomial
    assert [r.energy for r in find_bic_roots(FIG4)] == [0.0]
    assert [r.energy for r in find_bic_roots(DOUBLE)] == [0.0]
    shifted = SystemConfig(n_1=1, n_2=9, m_1=3, m_2=11, omega_c=0.3, omega_1=0.3, omega_2=0.3)
    assert [r.energy for r in find_bic_roots(shifted)] == [0.3]


def test_two_roots_in_one_scan_interval_are_both_found():
    cfg = SystemConfig(n_1=-22, n_2=-3, m_1=24, m_2=43, g_1=0.40212120527825085,
                       g_2=0.40212120527825085, omega_c=-0.4898619485211566,
                       omega_1=0.782887334737727, omega_2=0.782887334737727)
    pair = (1.358110335212618, 1.358949306539053)
    # both sit in the interval [1.358025, 1.359025] of a 3995-interval scan,
    # where f has no sign change, so the scan reports neither
    assert not any(min(pair) - 1e-3 <= e <= max(pair) + 1e-3
                   for e, _ in branch_roots_scan(cfg, +1, intervals=3995))
    energies = [e for e, _ in bic._branch_roots(cfg, +1)]
    for e in pair:
        assert min(abs(np.array(energies) - e)) <= 1e-9
    # a finer scan confirms each root by a sign change of the bracket form
    for e in pair:
        f = bic._residual(np.array([e - 1e-5, e + 1e-5]), cfg, +1)
        assert f[0] * f[1] < 0.0


RESIDUAL_CASE = SystemConfig(n_1=-20, n_2=6, m_1=28, m_2=54, g_1=0.4126241543625412,
                             g_2=0.4126241543625412, omega_c=0.6171273270628221,
                             omega_1=-1.0660945726617705, omega_2=-1.0660945726617705,
                             xi=0.5774124868625323)


def test_roots_meet_the_residual_check_where_bisection_did_not():
    # the 1e-10 xi bisection left |f| = 8.5e-9 here, above the 1e-8 xi check
    roots = find_bic_roots(RESIDUAL_CASE)
    assert roots
    assert max(r.residual for r in roots) <= 1e-10 * RESIDUAL_CASE.xi


@st.composite
def symmetric_geometries(draw):
    size = draw(st.integers(1, 30))
    n_1 = draw(st.integers(-30, 30 - size))
    m_1 = draw(st.integers(-30, 30 - size))
    g = draw(st.floats(0.001, 0.5))
    omega = draw(st.floats(-1.5, 1.5))
    return SystemConfig(n_1=n_1, n_2=n_1 + size, m_1=m_1, m_2=m_1 + size,
                        omega_c=draw(st.floats(-1.5, 1.5)), xi=draw(st.floats(0.5, 2.0)),
                        omega_1=omega, omega_2=omega, g_1=g, g_2=g)


@settings(max_examples=60, deadline=None)
@given(symmetric_geometries(), st.sampled_from(bic.BRANCHES))
def test_branch_roots_contain_every_scan_root(cfg, branch):
    roots = bic._branch_roots(cfg, branch)
    if branch < 0 and cfg.n_1 == cfg.m_1:
        # two atoms on the same two sites: the antisymmetric branch does not
        # couple to the chain, and f = E - Omega has its one root at Omega
        assert roots == []
        return
    energies = np.array([e for e, _ in roots])
    for e, _ in branch_roots_scan(cfg, branch):
        assert np.abs(energies - e).min() <= 1e-9 * cfg.xi
    for e, residual in roots:
        assert residual <= 1e-10 * cfg.xi
        assert residual == abs(float(bic._residual(e, cfg, branch)))


@st.composite
def selection_cases(draw):
    """Symmetric geometries of every leg offset up to 3 beyond the atom
    size (shared legs and the same two sites included), off-centre bands
    and detunings near both band edges."""
    size = draw(st.integers(1, 12))
    offset = draw(st.integers(-size - 3, size + 3))
    g = draw(st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3, 0.6, 1.0]))
    omega_c, xi = draw(st.sampled_from([-0.7, 0.4])), draw(st.sampled_from([0.6, 1.7]))
    detuning = draw(st.sampled_from([-2.0, 2.0])) + draw(st.floats(-0.1, 0.1))
    omega = omega_c + xi * detuning
    return SystemConfig(n_1=0, n_2=size, m_1=offset, m_2=offset + size, omega_c=omega_c,
                        xi=xi, omega_1=omega, omega_2=omega, g_1=g, g_2=g)


def _bits(roots):
    return [(r.energy.hex(), r.branch, r.multiplicity, r.residual.hex(), r.width.hex())
            for r in roots]


@settings(max_examples=300, deadline=None)
@given(selection_cases())
@example(SystemConfig(n_1=0, n_2=1, m_1=-3, m_2=-2, g_1=0.05, g_2=0.05,
                      omega_1=1.9970666957921912, omega_2=1.9970666957921912))
@example(SystemConfig(n_1=1, n_2=7, m_1=1, m_2=7))
def test_one_pass_selection_matches_the_two_pass_reference(cfg):
    # the reference's candidates come from the same ``_branch_roots``, so
    # photon-free branches have none on either side; roots within the
    # shared band-edge guard are the reference's only extra
    roots = find_bic_roots(cfg)
    guard = BAND_EDGE_GUARD * cfg.xi
    reference = [r for r in bic_roots_two_pass(cfg)
                 if cfg.band_bottom + guard <= r.energy <= cfg.band_top - guard]
    assert _bits(roots) == _bits(reference)
    if cfg.g_1 == 0.0:
        assert roots == []
    if cfg.n_1 == cfg.m_1:
        assert bic._branch_roots(cfg, -1) == []


def test_candidates_within_the_merge_distance_are_one_root(monkeypatch):
    # each branch keeps its candidate with the smallest |f|, the root takes
    # the energy of the first branch in BRANCHES and the largest kept |f|
    candidates = {+1: [(0.5, 3e-9), (0.5 + 5e-9, 1e-9), (0.9, 0.0)],
                  -1: [(0.5 + 2e-9, 2e-9), (0.5 + 8e-9, 4e-9)]}
    monkeypatch.setattr(bic, "_branch_roots", lambda cfg, s: candidates[s])
    monkeypatch.setattr(bic, "BIC_MAX_IM_BRACKET", math.inf)
    roots = find_bic_roots(FIG3)
    assert [(r.energy, r.branch, r.multiplicity, r.residual) for r in roots] == [
        (0.5 + 5e-9, "+-", 2, 2e-9), (0.9, "+", 1, 0.0)]


def test_leg_distance_beyond_the_limit_is_a_config_error(monkeypatch):
    monkeypatch.setattr(bic, "MAX_LEG_DISTANCE", 9)
    assert find_bic_roots(FIG3)  # largest leg distance 9
    with pytest.raises(ConfigError, match="leg distance 10 exceeds 9"):
        find_bic_roots(FIG4)


def test_decoupled_atoms_have_no_bound_state():
    cfg = SystemConfig(n_1=1, n_2=9, m_1=3, m_2=11, g_1=0.0, g_2=0.0)
    assert find_bic_roots(cfg) == []


def test_census_rejects_offsets_out_of_range_as_config_error():
    for delta in (0, 6, -1):
        with pytest.raises(ConfigError, match="0 < delta < size"):
            bic_census(6, [delta])
    with pytest.raises(ConfigError, match="must be an integer, got 2.5"):
        bic_census(6, [2.5])


def test_braided_config_builds_the_census_geometry():
    assert bic.braided_config(6, 3) == FIG3 and bic.braided_config(8, "2") == FIG4
    assert bic.braided_config(8, 3.0, g=0.05) == replace(NO_BIC, g_1=0.05, g_2=0.05)
    assert [r.delta for r in bic_census(8, [2.0, "3"])] == [2, 3]


def test_bic_module_builds_no_lattice():
    assert not hasattr(bic, "spectrum")


def test_dynamics_module_builds_no_lattice():
    from crwqed import dynamics
    assert not hasattr(dynamics, "spectrum")


def _u_series(coefficients):
    """sum_k c_k U_k(x), U the Chebyshev polynomials of the second kind, as a
    power-basis polynomial."""
    total = np.polynomial.Polynomial([0.0])
    u_prev, u = np.polynomial.Polynomial([0.0]), np.polynomial.Polynomial([1.0])
    for c in coefficients:
        total = total + c * u
        u_prev, u = u, np.polynomial.Polynomial([0.0, 2.0]) * u - u_prev
    return total


def _constructed_double_root():
    """(cfg, energy) of a double root of branch - at x* = -0.7 on fig3's legs.

    In x = (E - omega_c) / 2 xi, f_s = (omega_c - Omega) + xi U_1 - (g^2 / 2 xi) Q
    with Q = 2 (-1)^(N-1) U_(N-1) + s sum_p (-1)^(p-1) U_(p-1).  g sets f' = 0
    and Omega sets f = 0 at x*: the comrade eigensolver returns that double
    root as a complex pair split by about 4e-9."""
    branch, x_star = -1, -0.7
    base = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10)
    ints = np.zeros(max(base.size_1, *base.cross_distances))
    ints[base.size_1 - 1] += 2 * (-1) ** (base.size_1 - 1)
    for p in base.cross_distances:
        ints[p - 1] += branch * (-1) ** (p - 1)
    q = _u_series(ints)
    coupling = 2.0 / q.deriv()(x_star)  # (g^2 / 2 xi) Q'(x*) = xi U_1'(x*) = 2 xi
    omega = 2.0 * x_star - coupling * q(x_star)
    g = math.sqrt(2.0 * coupling)
    return replace(base, omega_1=omega, omega_2=omega, g_1=g, g_2=g), 2.0 * x_star


def test_constructed_double_root_is_found():
    branch = -1
    cfg, energy = _constructed_double_root()
    f = lambda e: float(bic._residual(e, cfg, branch))
    assert abs(f(energy)) <= 1e-14
    assert f(energy - 1e-4) * f(energy + 1e-4) > 0.0  # a tangency: no sign change
    near = [(e, r) for e, r in bic._branch_roots(cfg, branch) if abs(e - energy) <= 1e-6]
    assert len(near) == 1
    assert near[0][1] <= bic.RESIDUAL_TOL * cfg.xi


def test_real_eigenvalue_and_pair_at_one_root_are_one_root(monkeypatch):
    # a near-triple root can come back as a real eigenvalue next to a complex
    # pair; where both land on one energy they are one root of one branch,
    # not a degenerate pair
    cfg, energy = _constructed_double_root()
    eigvals = np.linalg.eigvals

    def with_a_real_copy(matrix):
        eig = eigvals(matrix)
        pair = eig[np.argmin(np.abs(eig - energy / 2.0))]
        return np.concatenate([eig, [pair.real]])

    monkeypatch.setattr(np.linalg, "eigvals", with_a_real_copy)
    monkeypatch.setattr(bic, "BIC_MAX_IM_BRACKET", math.inf)  # label the resonance too
    roots = bic.find_bic_roots(cfg)
    near = [r for r in roots if abs(r.energy - energy) <= 1e-6]
    assert len(near) == 1
    assert (near[0].branch, near[0].multiplicity) == ("-", 1)
    # a Newton step from the real copy, where the slope vanishes, must not
    # throw it to a spurious root nearby
    assert not [r for r in roots if 1e-6 < abs(r.energy - energy) < 0.1]
    assert near[0].residual <= bic.RESIDUAL_TOL * cfg.xi
