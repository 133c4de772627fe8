"""Integer-order Bessel functions of the first kind.

The memory kernels of the waveguide dynamics are built entirely from
J_n(2 xi tau), so this module provides exactly that: tables of J_0..J_max
at non-negative real arguments, vectorized over many arguments.

Each argument takes one of two routes, chosen by ``order_max`` and x alone:

* x >= max(HANKEL_FROM, 2*order_max): J_0 and J_1 from the Hankel
  asymptotic expansion (DLMF 10.17.3), summed until the next term is below
  1e-17, and J_2..J_order_max by the upward three-term recurrence, which is
  stable for n < x (here n <= x/2).  Cost O(order_max) per argument;
  measured error <= 1e-16 absolute against exact-decimal series values.
* smaller x: Miller's downward recurrence normalized by the sum rule
  J_0(x) + 2 sum_{k>=1} J_2k(x) = 1, started far enough above max(n, x)
  that the seed contamination is below double precision.  Cost O(x +
  order_max) per argument; measured accuracy ~1e-14 relative for
  n <= 64 up to x ~ 2000, so a table that would send a larger argument
  here (possible only for order_max > 1000) raises ValueError.

Arguments below ``_SERIES_BELOW`` use the power series.
"""

from __future__ import annotations

import numpy as np

# Renormalize when the unscaled recurrence exceeds this magnitude.
_RESCALE_AT = 1e250
_RESCALE_BY = 1e-250
# Below this argument the recurrence ratio 2m/x outruns the rescaling;
# the power series is exact to machine precision there in a few terms.
_SERIES_BELOW = 0.01
# Arguments at or above max(HANKEL_FROM, 2*order_max) take the Hankel route.
# At x = 25 the expansion's terms fall below 1e-17 after 20 terms (its
# smallest term is about 2e-23), and n <= x/2 keeps the upward recurrence
# well inside its stable range n < x.  Measured (2 cores, numpy 2.4): worst
# error 4.2e-17 against exact-decimal series values at x from 25 to 1400
# and orders up to 64 (Miller 2.7e-16 at the same points), and the fig3
# kernel table (order 9, 35 001 arguments up to 1400) builds in 0.004 s
# instead of 0.050 s, because Miller's recurrence has to start above x.
HANKEL_FROM = 25.0
# The Hankel sums stop once every term is below this (P, Q ~ 1).
_HANKEL_TERM_TOL = 1e-17
# Largest argument Miller's recurrence is validated for; only order_max >
# 1000 sends such arguments to it, and bessel_j_table refuses them.
MILLER_X_MAX = 2000.0


def miller_reach(order_max: int, x_max: float) -> float:
    """Bound on the arguments Miller's route takes in a table of orders
    0..order_max over arguments up to x_max."""
    return min(x_max, max(HANKEL_FROM, 2.0 * order_max))


def _start_order(order_max: int, x_max: float) -> int:
    """Downward-recurrence start index; even, comfortably above the turning
    point so the arbitrary seed has decayed below 1e-16 by order_max."""
    base = max(order_max, int(np.ceil(x_max)))
    m = base + 50 + int(np.ceil(12.0 * base ** (1.0 / 3.0)))
    return m + (m % 2)


def _series_rows(order_max: int, xs: np.ndarray, rows: np.ndarray) -> None:
    """Fill ``rows`` with the power series for small arguments; leading
    factors built iteratively so high orders underflow to zero instead of
    overflowing."""
    half = xs / 2.0
    half_sq = half * half
    lead = np.ones_like(xs)
    for n in range(order_max + 1):
        if n > 0:
            lead = lead * half / n
        term = lead.copy()
        acc = lead.copy()
        for k in range(1, 40):
            term = -term * half_sq / (k * (k + n))
            prev = acc.copy()
            acc += term
            if np.array_equal(acc, prev):
                break
        rows[:, n] = acc


def _miller_rows(order_max: int, xs: np.ndarray, rows: np.ndarray) -> None:
    """Fill ``rows`` with J_0(x)..J_order_max(x) for every x in xs (all
    x > 0).  A rescale touches only the orders already stored."""
    n_x = xs.shape[0]
    m_start = _start_order(order_max, float(xs.max()))
    j_above = np.zeros(n_x)
    j_here = np.full(n_x, 1e-30)
    even_sum = np.zeros(n_x)
    for m in range(m_start, 0, -1):
        j_below = (2.0 * m / xs) * j_here - j_above
        j_above = j_here
        j_here = j_below
        big = np.abs(j_here) > _RESCALE_AT
        if big.any():
            j_here[big] *= _RESCALE_BY
            j_above[big] *= _RESCALE_BY
            even_sum[big] *= _RESCALE_BY
            rows[np.flatnonzero(big), m:] *= _RESCALE_BY
        if m - 1 <= order_max:
            rows[:, m - 1] = j_here
        if (m - 1) > 0 and (m - 1) % 2 == 0:
            even_sum += 2.0 * j_here
    rows /= (j_here + even_sum)[:, None]


def _hankel_pq(nu: int, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(nu, x) and Q(nu, x) of DLMF 10.17.3, with
    J_nu(x) = sqrt(2/(pi x)) (P cos w - Q sin w), w = x - nu pi/2 - pi/4.
    Term k is a_k(nu)/x^k, a_k(nu) = prod_{j<=k} (4nu^2 - (2j-1)^2) / (k! 8^k);
    even k go to P, odd k to Q, with sign (-1)^(k//2).  Each argument stops
    adding at its own first term below ``_HANKEL_TERM_TOL``, so its value
    does not depend on the other arguments of the call."""
    mu = 4.0 * nu * nu
    p = np.ones_like(xs)
    q = np.zeros_like(xs)
    term = np.ones_like(xs)
    k = 0
    while True:
        k += 1
        term *= (mu - (2 * k - 1) ** 2) / (8.0 * k) / xs
        term[np.abs(term) < _HANKEL_TERM_TOL] = 0.0
        if not term.any():
            return p, q
        if k % 2:
            q += term if (k // 2) % 2 == 0 else -term
        else:
            p += term if (k // 2) % 2 == 0 else -term


def _hankel_rows(order_max: int, xs: np.ndarray, rows: np.ndarray) -> None:
    """Fill ``rows`` with J_0(x)..J_order_max(x) for x >= max(HANKEL_FROM,
    2*order_max): J_0, J_1 from the Hankel expansion, the rest by upward
    recurrence.
    The phases come from cos x and sin x, with
    cos(x - pi/4) = (cos x + sin x)/sqrt 2 and
    cos(x - 3pi/4) = (sin x - cos x)/sqrt 2, so no large argument is
    shifted by a rounded multiple of pi."""
    c = np.cos(xs)
    s = np.sin(xs)
    amp = np.sqrt(1.0 / (np.pi * xs))
    p, q = _hankel_pq(0, xs)
    rows[:, 0] = amp * (p * (c + s) + q * (c - s))
    if order_max >= 1:
        p, q = _hankel_pq(1, xs)
        rows[:, 1] = amp * (p * (s - c) + q * (s + c))
    for n in range(1, order_max):
        rows[:, n + 1] = (2.0 * n / xs) * rows[:, n] - rows[:, n - 1]


def bessel_j_table(order_max: int, xs, chunk: int = 4096) -> np.ndarray:
    """J_n(x) for n = 0..order_max over an array of arguments.

    Arguments x >= max(HANKEL_FROM, 2*order_max) take the Hankel route
    (J_0, J_1 asymptotic, upward recurrence above; O(order_max) each, error
    <= 1e-16 absolute); smaller ones take Miller's downward recurrence
    (O(x + order_max) each, ~1e-14 relative), and x < 0.01 the power series.
    Which route an argument takes depends only on x and ``order_max``.
    An argument above ``MILLER_X_MAX`` on Miller's route raises ValueError.
    Every route writes its rows into the returned table.

    Parameters
    ----------
    order_max : int
        Highest order, >= 0.
    xs : array_like
        Non-negative arguments.
    chunk : int
        Arguments are processed in chunks so early (small-x) entries of a
        long kernel table do not pay the recurrence depth of the largest x.
        A chunk of non-consecutive arguments is filled through one
        (chunk, order_max + 1) scratch array; consecutive ones need none.

    Returns
    -------
    (len(xs), order_max + 1) ndarray.
    """
    if order_max < 0:
        raise ValueError(f"order_max must be >= 0, got {order_max}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.ndim != 1:
        raise ValueError("xs must be one-dimensional")
    if (xs < 0.0).any():
        raise ValueError("negative argument: J_n is evaluated for x >= 0 only")
    switch = max(HANKEL_FROM, 2.0 * order_max)
    if switch > MILLER_X_MAX and ((xs > MILLER_X_MAX) & (xs < switch)).any():
        raise ValueError(f"order_max={order_max} sends arguments above MILLER_X_MAX="
                         f"{MILLER_X_MAX:g} to Miller's recurrence, which is validated "
                         f"only up to there")
    out = np.zeros((xs.shape[0], order_max + 1))
    out[xs == 0.0, 0] = 1.0  # J_0(0) = 1, J_{n>=1}(0) = 0
    small = np.flatnonzero((xs > 0.0) & (xs < _SERIES_BELOW))
    near = np.flatnonzero((xs >= _SERIES_BELOW) & (xs < switch))
    far = np.flatnonzero(xs >= switch)
    for fill, idx_all in ((_series_rows, small), (_miller_rows, near), (_hankel_rows, far)):
        for s in range(0, idx_all.size, chunk):
            idx = idx_all[s:s + chunk]
            lo, hi = idx[0], idx[-1] + 1
            if hi - lo == idx.size:  # consecutive arguments: fill out in place
                fill(order_max, xs[lo:hi], out[lo:hi])
            else:
                rows = np.zeros((idx.size, order_max + 1))
                fill(order_max, xs[idx], rows)
                out[idx] = rows
    return out
