"""Per-n census aggregation and the analytic companions.

A census walks every canonical skeleton once, classifies it, and scales
each per-skeleton result by the skeleton's labelled-copy count.  Partial
reports over disjoint skeleton sets merge commutatively, which is what
makes worker partitioning safe.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from . import automorphisms
from .graphs import Graph, pair_count
from .markov import classify_skeleton, find_v_configurations
from .orderly import generate_all


@dataclass(frozen=True)
class SkeletonRecord:
    """A canonical skeleton with its labelled-copy multiplicity."""

    graph: Graph
    labellings: int


@dataclass
class CensusReport:
    n: int
    classes_by_edges: list[int]
    adgs_by_edges: list[int]
    size_histogram: dict[int, int] = field(default_factory=dict)
    joint: dict[tuple[int, int], int] = field(default_factory=dict)  # (edges, size) -> classes
    max_vconfigs: int = 0
    max_vconfig_codes: list[int] = field(default_factory=list)
    max_classes_per_skeleton: int = 0
    max_class_codes: list[int] = field(default_factory=list)

    @property
    def total_classes(self) -> int:
        return sum(self.classes_by_edges)

    @property
    def total_adgs(self) -> int:
        return sum(self.adgs_by_edges)

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.total_classes, self.total_adgs)

    @property
    def size1_ratio(self) -> Fraction:
        return Fraction(self.size_histogram.get(1, 0), self.total_classes)


def empty_report(n: int) -> CensusReport:
    m = pair_count(n)
    return CensusReport(n=n, classes_by_edges=[0] * (m + 1), adgs_by_edges=[0] * (m + 1))


def merge(a: CensusReport, b: CensusReport) -> CensusReport:
    """Combine reports over disjoint skeleton sets; commutative, associative."""
    if a.n != b.n:
        raise ValueError(f"cannot merge censuses for n={a.n} and n={b.n}")
    out = empty_report(a.n)
    out.classes_by_edges = [x + y for x, y in zip(a.classes_by_edges, b.classes_by_edges)]
    out.adgs_by_edges = [x + y for x, y in zip(a.adgs_by_edges, b.adgs_by_edges)]
    for src in (a, b):
        for size, cnt in src.size_histogram.items():
            out.size_histogram[size] = out.size_histogram.get(size, 0) + cnt
        for key, cnt in src.joint.items():
            out.joint[key] = out.joint.get(key, 0) + cnt
    out.max_vconfigs, out.max_vconfig_codes = _merge_max(
        (a.max_vconfigs, a.max_vconfig_codes), (b.max_vconfigs, b.max_vconfig_codes))
    out.max_classes_per_skeleton, out.max_class_codes = _merge_max(
        (a.max_classes_per_skeleton, a.max_class_codes),
        (b.max_classes_per_skeleton, b.max_class_codes))
    out.size_histogram = dict(sorted(out.size_histogram.items()))
    out.joint = dict(sorted(out.joint.items()))
    return out


def _merge_max(a: tuple[int, list[int]], b: tuple[int, list[int]]) -> tuple[int, list[int]]:
    if a[0] > b[0]:
        return a[0], sorted(a[1])
    if b[0] > a[0]:
        return b[0], sorted(b[1])
    return a[0], sorted(set(a[1]) | set(b[1]))


def iter_skeletons(n: int, edges: tuple[int, int] | None = None) -> Iterable[SkeletonRecord]:
    """Every canonical skeleton with its labelling count, layer by layer."""
    for layer in generate_all(n):
        if edges is not None and not edges[0] <= layer.edge_count <= edges[1]:
            continue
        for g in layer.graphs:
            yield SkeletonRecord(graph=g, labellings=automorphisms.labelling_count(g))


def census_skeletons(n: int, records: Iterable[SkeletonRecord]) -> CensusReport:
    """Census of an explicit skeleton subset (the parallel work unit)."""
    report = empty_report(n)
    cbe = report.classes_by_edges
    abe = report.adgs_by_edges
    hist = report.size_histogram
    joint = report.joint
    for rec in records:
        g = rec.graph
        L = rec.labellings
        e = g.edge_count
        table = classify_skeleton(g)
        nclasses = len(table.classes)
        cbe[e] += L * nclasses
        abe[e] += L * table.total_orientations
        for size in table.classes.values():
            hist[size] = hist.get(size, 0) + L
            key = (e, size)
            joint[key] = joint.get(key, 0) + L
        vcount = len(find_v_configurations(g))
        _track_max(report, "max_vconfigs", "max_vconfig_codes", vcount, g.code)
        _track_max(report, "max_classes_per_skeleton", "max_class_codes", nclasses, g.code)
    report.size_histogram = dict(sorted(hist.items()))
    report.joint = dict(sorted(joint.items()))
    report.max_vconfig_codes.sort()
    report.max_class_codes.sort()
    return report


def _track_max(report: CensusReport, attr: str, codes_attr: str, value: int, code: int) -> None:
    cur = getattr(report, attr)
    if value > cur:
        setattr(report, attr, value)
        setattr(report, codes_attr, [code])
    elif value == cur:
        getattr(report, codes_attr).append(code)


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
           edges: tuple[int, int] | None = None, jobs: int = 1) -> CensusReport:
    """Full (or edge-filtered) census for n vertices.

    Identical output for every job count: skeletons are dealt round-robin
    into one slice per worker, workers share nothing, and merging is exact
    integer arithmetic, so neither the split nor the merge order shows.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if skeletons is None:
        skeletons = iter_skeletons(n, edges)
    elif edges is not None:
        skeletons = (r for r in skeletons if edges[0] <= r.graph.edge_count <= edges[1])
    skeletons = list(skeletons)
    if jobs == 1 or len(skeletons) < 2 * jobs:
        return census_skeletons(n, skeletons)
    items = [(r.graph.code, r.labellings) for r in skeletons]
    slices = _slices(items, jobs)
    report = empty_report(n)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for part in pool.map(_census_slice, [n] * len(slices), slices):
            report = merge(report, part)
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


def extrapolate_ratio(r_prev: float, r_cur: float, n_cur: int, n_target: int,
                      s_offset: int = 1) -> float:
    """Iterate r_{k+1} = r_k - (r_{k-1} - r_k) / s up to n_target.

    The damping uses s_k = 2 + 20/3 exp(-k/2); the step producing r_{k+1}
    reads s at k + s_offset (the index convention is not pinned down, both
    choices land within the accepted tolerance).
    """
    if not 0 < r_cur <= r_prev:
        raise ValueError("need 0 < r_cur <= r_prev")
    if n_target < n_cur:
        raise ValueError("target below current index")
    if s_offset not in (0, 1):
        raise ValueError("s_offset must be 0 or 1")
    prev, cur = float(r_prev), float(r_cur)
    for k in range(n_cur, n_target):
        prev, cur = cur, cur - (prev - cur) / _s_coefficient(k + s_offset)
    return cur


def ratio_asymptote(r_prev: float, r_cur: float, n_cur: int, s_offset: int = 1) -> float:
    """Limit of the extrapolated sequence (converged to double precision)."""
    prev, cur = float(r_prev), float(r_cur)
    k = n_cur
    while prev != cur and k < n_cur + 10_000:
        prev, cur = cur, cur - (prev - cur) / _s_coefficient(k + s_offset)
        k += 1
    return cur


def gaussian_chi2(by_edges: Sequence[int]) -> float:
    """Pearson distance, in proportion space, from a moment-matched Gaussian.

    The observed vector is normalized; a normal density with the same mean
    and variance is sampled at the integer bins and renormalized; bins with
    model mass below 1e-12 are dropped from the sum.
    """
    import numpy as np  # only this function needs it; keeps it off the CLI's import path

    v = np.asarray(by_edges, dtype=np.float64)
    if v.min() < 0:
        raise ValueError("negative bin count")
    total = v.sum()
    if total <= 0:
        raise ValueError("empty distribution")
    p = v / total
    e = np.arange(len(v), dtype=np.float64)
    mean = float((e * p).sum())
    var = float((((e - mean) ** 2) * p).sum())
    if var == 0.0:
        raise ValueError("degenerate single-bin distribution")
    q = np.exp(-((e - mean) ** 2) / (2.0 * var))
    q /= q.sum()
    keep = q > 1e-12
    return float((((p - q) ** 2 / q)[keep]).sum())
