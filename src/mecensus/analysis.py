"""The paper's analytic companions to a census.

Predictions and statistics read off finished reports: the median edge
count, the class/ADG ratio extrapolated past the computed n, and the
by-edge shape's distance from a Gaussian.  Nothing here takes part in
computing a census.
"""

from __future__ import annotations

import math
from typing import Sequence

from .census import CensusReport


def median_edges_prediction(n: int) -> int:
    """floor(n/2) * ceil(n/2), the maximum of i*(n-i) over integers i."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return (n // 2) * ((n + 1) // 2)


def median_edge_count(report: CensusReport) -> int:
    """Smallest e where the cumulative class count reaches half the total."""
    total = report.total_classes
    cum = 0
    for e, c in enumerate(report.classes_by_edges):
        cum += c
        if 2 * cum >= total:
            return e
    raise ValueError("empty distribution")


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


def gaussian_chi2(by_edges: Sequence[int]) -> float:
    """Pearson distance, in proportion space, from a moment-matched Gaussian.

    The observed vector is normalized; a normal density with the same mean
    and variance is sampled at the integer bins and renormalized; bins with
    model mass below 1e-12 are dropped from the sum.
    """
    v = [float(x) for x in by_edges]
    if min(v) < 0:
        raise ValueError("negative bin count")
    total = math.fsum(v)
    if total <= 0:
        raise ValueError("empty distribution")
    p = [x / total for x in v]
    mean = math.fsum(e * pe for e, pe in enumerate(p))
    var = math.fsum((e - mean) ** 2 * pe for e, pe in enumerate(p))
    if var == 0.0:
        raise ValueError("degenerate single-bin distribution")
    q = [math.exp(-((e - mean) ** 2) / (2.0 * var)) for e in range(len(p))]
    qsum = math.fsum(q)
    q = [x / qsum for x in q]
    return math.fsum((pe - qe) ** 2 / qe for pe, qe in zip(p, q) if qe > 1e-12)
