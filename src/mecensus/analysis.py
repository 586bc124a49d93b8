"""The paper's extrapolation of the class/ADG ratio past the computed n.

mecensus extrapolate runs it on two ratios read off finished reports.
Nothing here takes part in computing a census.
"""

from __future__ import annotations

import math


def _s_coefficient(k: int) -> float:
    return 2.0 + (20.0 / 3.0) * math.exp(-k / 2.0)


def extrapolate_ratio(r_prev: float, r_cur: float, n_cur: int, n_target: int) -> float:
    """Iterate r_{k+1} = r_k - (r_{k-1} - r_k) / s up to n_target.

    The damping uses s_k = 2 + 20/3 exp(-k/2); the step producing r_{k+1}
    reads s at k + 1.  Both ratios are class/ADG proportions, so they
    must satisfy 0 < r_cur <= r_prev <= 1 (which NaN and infinities fail),
    and r_prev is the ratio at n_cur - 1, so n_cur >= 2.
    Once a step leaves the value unchanged every later step subtracts 0,
    so the walk stops there: a far target costs no more than a near one.
    """
    if not 0 < r_cur <= r_prev <= 1:
        raise ValueError("need 0 < r_cur <= r_prev <= 1")
    if n_cur < 2:
        raise ValueError("n_cur must be >= 2")
    if n_target < n_cur:
        raise ValueError("target below current index")
    prev, cur = float(r_prev), float(r_cur)
    for k in range(n_cur, n_target):
        if cur == prev:
            break
        prev, cur = cur, cur - (prev - cur) / _s_coefficient(k + 1)
    return cur


def ratio_asymptote(r_prev: float, r_cur: float, n_cur: int) -> float:
    """Limit of the extrapolated sequence (converged to double precision)."""
    return extrapolate_ratio(r_prev, r_cur, n_cur, n_cur + 10_000)

