import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import bessel_j, bessel_j_row, bessel_reference, series_oracle, traced_peak

from crwqed import specfun
from crwqed.specfun import HANKEL_FROM, bessel_j_table


def test_trivial_values_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(3, 0.0) == 0.0
    assert np.array_equal(bessel_j_row(2, 0.0).values, [1.0, 0.0, 0.0])


def test_j0_of_one_matches_series():
    # oracle gives 0.7651976865579666; quoted to 15 digits: 0.765197686557967
    assert bessel_j(0, 1.0) == pytest.approx(series_oracle(0, 1.0), abs=1e-15)
    assert bessel_j(0, 1.0) == pytest.approx(0.765197686557967, abs=1e-15)


def test_negative_order_parity_identity():
    assert bessel_j(-2, 1.7) == bessel_j(2, 1.7)
    assert bessel_j(-3, 1.7) == -bessel_j(3, 1.7)


@settings(max_examples=60, deadline=None)
@given(st.integers(-64, 64), st.floats(0.0, 2000.0))
def test_parity_identity_exact(n, x):
    expect = bessel_j(abs(n), x) * (-1.0 if (n < 0 and n % 2) else 1.0)
    assert bessel_j(n, x) == expect


@pytest.mark.parametrize("x", [0.25, 0.5, 1.0, 2.0, 4.0, 7.5, 11.0, 15.0])
def test_series_agreement_low_orders(x):
    row = bessel_j_row(20, x).values
    for n in range(21):
        ref = series_oracle(n, x)
        if abs(ref) > 1e-3:
            assert abs(row[n] - ref) <= 1e-12 * abs(ref)
        else:
            assert abs(row[n] - ref) <= 1e-12


def test_tiny_arguments_match_series_oracle():
    # the one-term limit (1e-9) and Miller's recurrence (1e-5, 5e-3) in one table
    xs = [1e-9, 1e-5, 5e-3]
    table = bessel_j_table(20, xs)
    for row, x in zip(table, xs):
        for n in range(21):
            ref = series_oracle(n, x)
            assert abs(row[n] - ref) <= 1e-14 * abs(ref), (n, x)


@pytest.mark.parametrize("x", [50.0, 150.0, 400.0])
def test_series_agreement_large_arguments(x):
    # the series needs more working digits here; still exact arithmetic
    row = bessel_j_row(64, x).values
    for n in (0, 1, 7, 33, 64):
        ref = bessel_reference(n, x)
        if abs(ref) > 1e-3:
            assert abs(row[n] - ref) <= 1e-12 * abs(ref)
        else:
            assert abs(row[n] - ref) <= 1e-12


@pytest.mark.parametrize("x", [0.5, 1.0, 10.0, 50.0, 200.0])
def test_three_term_recurrence(x):
    row = bessel_j_row(52, x).values
    scale = np.abs(row).max()
    for n in range(1, 51):
        if abs(row[n]) < 1e-280:
            continue
        resid = row[n - 1] + row[n + 1] - (2.0 * n / x) * row[n]
        assert abs(resid) <= 1e-10 * scale


_ROUTE_ORDERS = (0, 1, 9, 29, 64)


def _switch(order_max):
    return max(HANKEL_FROM, 2.0 * order_max)


_reference = functools.lru_cache(maxsize=None)(bessel_reference)


@pytest.mark.parametrize("order_max", _ROUTE_ORDERS)
@pytest.mark.parametrize("x", [25.0, 58.0, 60.02, 137.3, 400.0, 703.14, 1400.0,
                               "switch-", "switch+"])
def test_both_routes_match_series_oracle(order_max, x):
    # just below the switch Miller serves x, at and above it the Hankel route
    if isinstance(x, str):
        x = _switch(order_max) + (1e-9 if x == "switch+" else -1e-9)
    row = bessel_j_row(order_max, x).values
    orders = sorted({0, 1, 2, 3, order_max // 2, order_max - 1, order_max} & set(range(order_max + 1)))
    if x < 500.0:  # the reference is cheap here: check every order
        orders = range(order_max + 1)
    for n in orders:
        assert abs(row[n] - _reference(n, x)) <= 1e-15, (n, x)


@pytest.mark.parametrize("t_max, order_max", [(700.0, 9), (600.0, 10), (700.0, 29)])
def test_hankel_route_matches_miller_on_preset_grids(t_max, order_max):
    # fig3 (order 9) and fig4 (order 10) kernel grids, and the fig3 plot window
    xs = 2.0 * np.arange(int(round(t_max / 0.02)) + 1) * 0.02
    far = xs >= _switch(order_max)
    assert far.sum() > 0.9 * xs.size
    table = bessel_j_table(order_max, xs[far])
    miller = np.zeros_like(table)
    for s in range(0, miller.shape[0], 4096):
        specfun._miller_rows(order_max, xs[far][s:s + 4096], miller[s:s + 4096])
    assert np.abs(table - miller).max() <= 5e-15


def test_route_depends_on_the_argument_only(monkeypatch):
    # a row of every route is the same alone and inside a mixed, chunked table
    monkeypatch.setattr(specfun, "_CHUNK", 3)
    xs = np.array([0.0, 1e-9, 0.005, 3.0, 57.9, 58.0, 90.5, 1400.0])
    table = bessel_j_table(29, xs)
    for i, x in enumerate(xs):
        assert np.array_equal(table[i], bessel_j_row(29, x).values), x


@st.composite
def _orders_and_arguments(draw):
    # tiny values, values next to the one-term and Hankel switches, and the rest
    order_max = draw(st.integers(0, 500))
    switch = _switch(order_max)
    edge = st.sampled_from([np.nextafter(1e-8, 0.0), 1e-8, np.nextafter(switch, 0.0), switch])
    xs = st.one_of(st.floats(0.0, 1e-7), edge, st.floats(0.0, 2000.0))
    return order_max, draw(st.lists(xs, min_size=1, max_size=12))


@settings(max_examples=40, deadline=None)
@given(_orders_and_arguments())
@example((20, [5.0, 24.0]))  # Miller rows once started at the largest argument of a chunk
def test_table_rows_are_one_argument_tables(case):
    order_max, xs = case
    table = bessel_j_table(order_max, xs)
    for row, x in zip(table, xs):
        assert np.array_equal(row, bessel_j_table(order_max, [x])[0]), x


def test_sum_rule_at_25():
    row = bessel_j_row(60, 25.0)
    assert row.sum_rule_residual() <= 1e-10


def test_row_matches_scalar():
    row = bessel_j_row(12, 9.3).values
    for n in range(13):
        assert abs(row[n] - bessel_j(n, 9.3)) <= 1e-12


def test_table_matches_rows_across_chunks(monkeypatch):
    monkeypatch.setattr(specfun, "_CHUNK", 10)
    xs = np.linspace(0.0, 30.0, 57)
    table = bessel_j_table(8, xs)
    for i, x in enumerate(xs):
        assert np.array_equal(table[i], bessel_j_row(8, x).values)


def test_negative_order_and_multidimensional_arguments_rejected():
    with pytest.raises(ValueError, match="order_max must be >= 0, got -1"):
        bessel_j_table(-1, [0.5])
    with pytest.raises(ValueError, match="xs must be one-dimensional"):
        bessel_j_table(4, np.ones((2, 3)))


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        bessel_j(0, -1.0)
    with pytest.raises(ValueError):
        bessel_j_table(4, [0.5, -0.5])


def test_bounded_by_one():
    xs = np.linspace(0.0, 120.0, 241)
    table = bessel_j_table(40, xs)
    assert np.abs(table).max() <= 1.0 + 1e-14


def test_table_is_filled_in_place():
    # the field-norm check's first block: order 439 over 2048 grid arguments
    xs = 0.04 * np.arange(2048)
    table = bessel_j_table(439, xs)
    assert traced_peak(bessel_j_table, 439, xs) <= 1.25 * table.nbytes


def test_scattered_arguments_fill_the_same_rows():
    # non-consecutive arguments of a route go through one scratch chunk
    xs = np.random.default_rng(7).uniform(0.0, 60.0, 300)
    xs[:5] = [0.0, 1e-9, 0.009, 45.0, 40.0]  # zero, one term, Miller, Hankel at the switch
    order = np.argsort(xs)
    assert np.array_equal(bessel_j_table(20, xs)[order], bessel_j_table(20, xs[order]))


def test_miller_route_refuses_arguments_beyond_its_validated_range():
    assert specfun.MILLER_X_MAX == 2000.0
    with pytest.raises(ValueError, match="MILLER_X_MAX"):
        bessel_j_table(1100, [1.0, 2000.5])
    # 2300 takes the Hankel route at order 1100 (switch 2200); 1500 is in range
    table = bessel_j_table(1100, [1500.0, 2300.0])
    assert np.isfinite(table).all()
    assert specfun.miller_reach(1100, 2300.0) == 2200.0
    assert specfun.miller_reach(9, 1400.0) == 25.0
