"""Per-n census aggregation and the analytic companions.

A census walks each canonical skeleton once, classifies it, and counts
its classes per (edge count, class size), scaled by the skeleton's
labelled-copy count.  Partial reports over disjoint skeleton sets merge
commutatively, which is what makes worker partitioning safe.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .graphs import Graph, pair_count
from .markov import classify_skeleton, find_v_configurations
from .orderly import generate_all


class CensusWorkerError(RuntimeError):
    """A census worker process died before returning its slice."""


@dataclass(frozen=True)
class SkeletonRecord:
    """A canonical skeleton with its labelled-copy multiplicity."""

    graph: Graph
    labellings: int


@dataclass
class CensusReport:
    """Classes per (edge count, class size), plus the per-skeleton maxima.

    `joint` is the only class table stored; the by-edge lists and the size
    histogram are views summed from it, so they cannot drift apart.
    """

    n: int
    joint: dict[tuple[int, int], int] = field(default_factory=dict)  # (edges, size) -> classes
    max_vconfigs: int = 0
    max_vconfig_codes: list[int] = field(default_factory=list)
    max_classes_per_skeleton: int = 0
    max_class_codes: list[int] = field(default_factory=list)

    @property
    def classes_by_edges(self) -> list[int]:
        out = [0] * (pair_count(self.n) + 1)
        for (e, _), cnt in self.joint.items():
            out[e] += cnt
        return out

    @property
    def adgs_by_edges(self) -> list[int]:
        # a class of size s holds s ADGs
        out = [0] * (pair_count(self.n) + 1)
        for (e, size), cnt in self.joint.items():
            out[e] += size * cnt
        return out

    @property
    def size_histogram(self) -> dict[int, int]:
        hist = Counter()
        for (_, size), cnt in self.joint.items():
            hist[size] += cnt
        return dict(sorted(hist.items()))

    @property
    def total_classes(self) -> int:
        return sum(self.joint.values())

    @property
    def total_adgs(self) -> int:
        return sum(size * cnt for (_, size), cnt in self.joint.items())

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.total_classes, self.total_adgs)

    @property
    def size1_ratio(self) -> Fraction:
        return Fraction(self.size_histogram.get(1, 0), self.total_classes)


def merge(a: CensusReport, b: CensusReport) -> CensusReport:
    """Combine reports over disjoint skeleton sets; commutative, associative."""
    if a.n != b.n:
        raise ValueError(f"cannot merge censuses for n={a.n} and n={b.n}")
    return _report(a.n, Counter(a.joint) + Counter(b.joint),
                   [(r.max_vconfigs, c) for r in (a, b) for c in r.max_vconfig_codes],
                   [(r.max_classes_per_skeleton, c) for r in (a, b) for c in r.max_class_codes])


def _maximum(pairs: list[tuple[int, int]]) -> tuple[int, list[int]]:
    """(largest value, ascending distinct codes reaching it) of (value, code) pairs."""
    top = max((v for v, _ in pairs), default=0)
    return top, sorted({c for v, c in pairs if v == top})


def _report(n: int, joint: Counter, vconfigs: list[tuple[int, int]],
            classes: list[tuple[int, int]]) -> CensusReport:
    """A report from its joint table and the (value, code) pairs of each maximum."""
    vmax, vcodes = _maximum(vconfigs)
    cmax, ccodes = _maximum(classes)
    return CensusReport(n, dict(sorted(joint.items())), vmax, vcodes, cmax, ccodes)


def iter_skeletons(n: int, edges: tuple[int, int] | None = None) -> Iterable[SkeletonRecord]:
    """Every canonical skeleton with its labelling count, layer by layer."""
    for layer in generate_all(n):
        if edges is not None and not edges[0] <= layer.edge_count <= edges[1]:
            continue
        for g, lab in zip(layer.graphs, layer.labellings):
            yield SkeletonRecord(graph=g, labellings=lab)


def census_skeletons(n: int, records: Iterable[SkeletonRecord]) -> CensusReport:
    """Census of an explicit skeleton subset (the parallel work unit)."""
    joint = Counter()
    vconfigs, classes = [], []
    for rec in records:
        g = rec.graph
        table = classify_skeleton(g)
        for size, cnt in Counter(table.classes.values()).items():
            joint[g.edge_count, size] += rec.labellings * cnt
        vconfigs.append((len(find_v_configurations(g)), g.code))
        classes.append((len(table.classes), g.code))
    return _report(n, joint, vconfigs, classes)


def _census_slice(n: int, items: list[tuple[int, int]]) -> CensusReport:
    records = [SkeletonRecord(graph=Graph(n, code), labellings=lab) for code, lab in items]
    return census_skeletons(n, records)


def _slices(items: list, jobs: int) -> list[list]:
    """Deal items round-robin into jobs slices.

    Skeletons come layer by layer and the dense middle layers hold most
    of the orientations, so striding gives every worker the same mix of
    cheap and costly layers where contiguous runs would not.
    """
    return [items[k::jobs] for k in range(jobs)]


def census(n: int, skeletons: Iterable[SkeletonRecord] | None = None,
           jobs: int = 1) -> CensusReport:
    """Census for n vertices over `skeletons`, every skeleton by default.

    An edge slice is census(n, iter_skeletons(n, edges)).  Identical output
    for every job count: skeletons are dealt round-robin into jobs slices,
    run on at most one worker per usable CPU; workers share nothing, and
    merging is exact integer arithmetic, so neither the split nor the merge
    order shows.
    Raises CensusWorkerError if a worker process dies.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if skeletons is None:
        skeletons = iter_skeletons(n)
    skeletons = list(skeletons)
    if jobs == 1 or len(skeletons) < 2 * jobs:
        return census_skeletons(n, skeletons)
    # imported here: the pool machinery costs every CLI start, and only --jobs uses it
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    items = [(r.graph.code, r.labellings) for r in skeletons]
    slices = _slices(items, jobs)
    report = CensusReport(n)
    try:
        # the slices, and so the bytes, depend on jobs alone; more workers
        # than usable CPUs only add processes
        with ProcessPoolExecutor(max_workers=min(jobs, len(os.sched_getaffinity(0)))) as pool:
            for part in pool.map(_census_slice, [n] * len(slices), slices):
                report = merge(report, part)
    except BrokenProcessPool as exc:
        raise CensusWorkerError(str(exc)) from exc
    return report


def robinson_adg_count(n: int) -> int:
    """Labeled acyclic digraphs on n vertices, by the inclusion-exclusion recurrence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a = [1]
    for k in range(1, n + 1):
        a.append(sum((-1) ** (j + 1) * comb(k, j) * (1 << (j * (k - j))) * a[k - j]
                     for j in range(1, k + 1)))
    return a[n]


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
    reads s at k + 1.
    """
    if not 0 < r_cur <= r_prev:
        raise ValueError("need 0 < r_cur <= r_prev")
    if n_target < n_cur:
        raise ValueError("target below current index")
    prev, cur = float(r_prev), float(r_cur)
    for k in range(n_cur, n_target):
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
