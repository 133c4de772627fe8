import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import lamb_shift_sum_oracle

from crwqed.model import SystemConfig
from crwqed import bic, spectrum
from crwqed.bic import (
    BicRoot,
    bic_census,
    chi,
    find_bic_roots,
    rabi_period,
    transcendental_residual,
)

FIG3 = SystemConfig(n_1=1, n_2=7, m_1=4, m_2=10)      # size 6, delta 3
FIG4 = SystemConfig(n_1=1, n_2=9, m_1=3, m_2=11)      # size 8, delta 2
NO_BIC = SystemConfig(n_1=1, n_2=9, m_1=4, m_2=12)    # size 8, delta 3
DOUBLE = SystemConfig(n_1=1, n_2=7, m_1=3, m_2=9)     # size 6, delta 2


def test_chi_reference_points():
    assert chi(0.0, FIG3) == pytest.approx(-1j, abs=1e-15)
    assert chi(1.0, FIG3) == pytest.approx(cmath.exp(-1j * math.pi / 3), abs=1e-15)
    assert chi(1.0, FIG3) == pytest.approx(0.5 - 1j * math.sqrt(3) / 2, abs=1e-15)
    assert abs(chi(1.999, FIG3)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        chi(2.0, FIG3)
    with pytest.raises(ValueError):
        chi(-2.5, FIG3)


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
        assert abs(abs(r.chi) - 1.0) <= 1e-12
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
        swap = cfg.delta % 2 == 1
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
        RESONANCE_NEAR_CENTER, -1, bic.DEFAULT_SCAN_INTERVALS))
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
              for s in bic.BRANCHES for e, _ in bic._branch_roots(NO_BIC, s, 4000)]
    assert widths and min(widths) > bic.BIC_MAX_IM_BRACKET


def test_decoupled_atoms_have_no_bound_state():
    cfg = SystemConfig(n_1=1, n_2=9, m_1=3, m_2=11, g_1=0.0, g_2=0.0)
    assert find_bic_roots(cfg) == []


def test_census_rejects_offsets_out_of_range_as_config_error():
    from crwqed.model import ConfigError
    for delta in (0, 6, -1):
        with pytest.raises(ConfigError, match="0 < delta < size"):
            bic_census(6, [delta])
    with pytest.raises(ConfigError, match="must be an integer, got 2.5"):
        bic_census(6, [2.5])


def test_bic_module_builds_no_lattice():
    assert not hasattr(bic, "spectrum")


def test_dynamics_module_builds_no_lattice():
    from crwqed import dynamics
    assert not hasattr(dynamics, "spectrum")
