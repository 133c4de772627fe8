"""Integer-order Bessel functions of the first kind.

The memory kernels of the waveguide dynamics are built entirely from
J_n(2 xi tau), so this module provides exactly that: tables of J_0..J_max
at non-negative real arguments, vectorized over many arguments.

Each argument takes one of three routes, chosen by ``order_max`` and x
alone, and its row depends on nothing else:

* x >= max(HANKEL_FROM, 2*order_max): J_0 and J_1 from the Hankel
  asymptotic expansion (DLMF 10.17.3), summed until the next term is below
  1e-17, and J_2..J_order_max by the upward three-term recurrence, which is
  stable for n < x (here n <= x/2).  Cost O(order_max) per argument;
  measured error <= 1e-16 absolute against exact-decimal series values.
* smaller x down to ``_ONE_TERM_BELOW``: Miller's downward recurrence
  normalized by the sum rule J_0(x) + 2 sum_{k>=1} J_2k(x) = 1, started at
  an order of its own far enough above max(n, x) that the seed
  contamination is below double precision.  Cost O(x + order_max) per
  argument; measured accuracy ~1e-14 relative for n <= 64 up to
  ``MILLER_X_MAX``, and within 2.2e-16 absolute of the series below 0.01.
* x < ``_ONE_TERM_BELOW``, x = 0 included: the series' first term
  (x/2)^n / n!, whose relative error (x/2)^2 / (n + 1) is below 2.5e-17.
"""

from __future__ import annotations

import numpy as np

# Renormalize when the unscaled recurrence exceeds this magnitude.
_RESCALE_AT = 1e250
_RESCALE_BY = 1e-250
# Below this argument one series term is exact to machine precision.  The
# recurrence ratio 2m/x outruns the rescaling only below about 1e-55.
_ONE_TERM_BELOW = 1e-8
# Rows a route fills at a time: the small-x rows of a long table skip the
# recurrence depth of the largest x, and scattered ones need no more scratch.
_CHUNK = 4096
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


def _start_orders(order_max: int, xs: np.ndarray) -> np.ndarray:
    """Downward-recurrence start index of each argument: even, and so far
    above the turning point that the seed decays below 1e-16 by order_max."""
    base = np.maximum(order_max, np.ceil(xs))
    m = (base + 50 + np.ceil(12.0 * base ** (1.0 / 3.0))).astype(int)
    return m + (m % 2)


def _one_term_rows(order_max: int, xs: np.ndarray, rows: np.ndarray) -> None:
    """Fill the zeroed ``rows`` with (x/2)^n / n!, built iteratively so high
    orders underflow to zero instead of overflowing."""
    half = xs / 2.0
    rows[:, 0] = 1.0
    for n in range(1, order_max + 1):
        rows[:, n] = rows[:, n - 1] * half / n
        if not rows[:, n].any():  # every higher order is zero too (x = 0 at once)
            break


def _miller_rows(order_max: int, xs: np.ndarray, rows: np.ndarray) -> None:
    """Fill ``rows`` with J_0(x)..J_order_max(x) for every x in xs (all
    x > 0).  Each argument's terms are exactly zero until its own start
    order seeds it.  A rescale touches only the orders already stored."""
    n_x = xs.shape[0]
    starts = _start_orders(order_max, xs)
    seeds = set(starts.tolist())
    j_above = np.zeros(n_x)
    j_here = np.zeros(n_x)
    even_sum = np.zeros(n_x)
    for m in range(int(starts.max()), 0, -1):
        if m in seeds:  # a mask on every step would cost ~5 % of a preset table
            j_here[starts == m] = 1e-30
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


def bessel_j_table(order_max: int, xs) -> np.ndarray:
    """J_n(x) for n = 0..order_max over the non-negative arguments xs: a
    (len(xs), order_max + 1) table whose row i depends only on
    ``order_max`` and xs[i], by the routes of the module docstring.  Each
    route fills up to ``_CHUNK`` rows at a time, in place where their
    arguments are consecutive.  An argument above ``MILLER_X_MAX`` on
    Miller's route raises ValueError.
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
    low = xs < _ONE_TERM_BELOW
    far = xs >= switch
    for fill, mask in ((_one_term_rows, low), (_miller_rows, ~low & ~far), (_hankel_rows, far)):
        idx_all = np.flatnonzero(mask)
        for s in range(0, idx_all.size, _CHUNK):
            idx = idx_all[s:s + _CHUNK]
            lo, hi = idx[0], idx[-1] + 1
            if hi - lo == idx.size:  # consecutive arguments: fill out in place
                fill(order_max, xs[lo:hi], out[lo:hi])
            else:
                rows = np.zeros((idx.size, order_max + 1))
                fill(order_max, xs[idx], rows)
                out[idx] = rows
    return out
