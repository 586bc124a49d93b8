"""Per-n census aggregation, and recurrences counting labelled ADGs and size-1 classes.

A census walks each canonical skeleton once, classifies it, and counts
its classes per (edge count, class size), scaled by the skeleton's
labelled-copy count.  Partial reports over disjoint skeleton sets merge
commutatively, which is what makes worker partitioning safe.
"""

from __future__ import annotations

import os
import sys
from collections import Counter, namedtuple
from math import comb
from typing import Iterable, Iterator, NoReturn

from .graphs import pair_count
from .markov import classify_skeleton, find_v_configurations
from .orderly import generate_all


class SkeletonRecord(namedtuple("SkeletonRecord", "graph labellings")):
    """A canonical skeleton with its labelled-copy multiplicity."""

    __slots__ = ()


class CensusReport(namedtuple("CensusReport", "n joint max_vconfigs max_vconfig_codes "
                                              "max_classes_per_skeleton max_class_codes")):
    """Classes per (edge count, class size), plus the per-skeleton maxima.

    `joint`, {(edges, size): classes}, is the only class table stored; the
    by-edge lists and the size histogram are views summed from it, so they
    cannot drift apart.  Reports are equal when all their fields are.
    """

    __slots__ = ()

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


def iter_skeletons(n: int) -> Iterable[SkeletonRecord]:
    """Every canonical skeleton with its labelling count, layer by layer."""
    for layer in generate_all(n):
        yield from map(SkeletonRecord, layer.graphs, layer.labellings)


def skeleton_rows(records: Iterable[SkeletonRecord]) -> Iterator[tuple[SkeletonRecord, int, Counter]]:
    """(record, v-configurations, Counter{class size: classes}) per skeleton, lazily, in order."""
    for rec in records:
        vcs = find_v_configurations(rec.graph)  # one listing feeds the count and the codes
        counts = classify_skeleton(rec.graph, vcs).counts  # unsorted: only the sizes count here
        yield rec, len(vcs), Counter(counts.values())


def census_rows(n: int, rows: Iterable[tuple[SkeletonRecord, int, Counter]]) -> CensusReport:
    """The census folded from skeleton_rows in one pass."""
    joint = Counter()
    vconfigs, classes = [], []
    for rec, nv, sizes in rows:
        g = rec.graph
        for size, cnt in sizes.items():
            joint[g.edge_count, size] += rec.labellings * cnt
        vconfigs.append((nv, g.code))
        classes.append((sum(sizes.values()), g.code))
    return _report(n, joint, vconfigs, classes)


def census_skeletons(n: int, records: Iterable[SkeletonRecord]) -> CensusReport:
    """Census of an explicit skeleton subset (the parallel work unit)."""
    return census_rows(n, skeleton_rows(records))


def _slices(items: list, jobs: int) -> list[list]:
    """Deal items round-robin into jobs slices.

    Skeletons come layer by layer and the dense middle layers hold most
    of the orientations, so striding gives every worker the same mix of
    cheap and costly layers where contiguous runs would not.
    """
    return [items[k::jobs] for k in range(jobs)]


def usable_cpus() -> int:
    """CPUs this process may run on, or 1 where it cannot fork.

    The affinity mask where the host has one (Linux), else every CPU;
    looked up at each call, so a changed mask counts.
    """
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def census(n: int, skeletons: Iterable[SkeletonRecord] | None = None,
           jobs: int = 1) -> CensusReport:
    """Census for n vertices over `skeletons`, every skeleton by default.

    An edge slice is a census of one edge range's records.  Identical output
    for every job count: the skeletons are dealt round-robin into
    min(jobs, usable_cpus(), skeletons) slices; the calling process takes
    the first and a forked child each of the others (os.fork, so a
    caller with jobs > 1 must run no other threads).  jobs is 1 unless
    asked for, since only the caller knows whether it runs threads; the
    command line, which owns its process, asks for usable_cpus().  Each
    child pickles its report into a pipe; they are read and merged in
    slice order once this process has done its own slice.  Slices share
    nothing, and merging is exact integer arithmetic, so neither the
    split nor the merge order shows.
    Raises ChildProcessError("census worker died: ...") if a child exits
    non-zero or dies from a signal; on any error every child is killed and reaped.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if skeletons is None:
        skeletons = iter_skeletons(n)
    skeletons = list(skeletons)
    workers = min(jobs, usable_cpus(), len(skeletons))
    own, *rest = _slices(skeletons, max(workers, 1))  # one slice, maybe empty, at the least
    pids: list[int | None] = []  # None once reaped
    pipes: list[int] = []  # read ends, one per child
    try:
        for part in rest:
            import pickle  # only a census with a child needs these, not every CLI start
            import signal
            r, w = os.pipe()
            pipes.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child(n, part, w)
                pids.append(pid)
            finally:
                os.close(w)  # so the read end sees EOF once the child closes its copy
        report = census_skeletons(n, own)
        for k, (pid, r) in enumerate(zip(pids, pipes)):
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            pids[k] = None
            code = os.waitstatus_to_exitcode(status)
            if code:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise ChildProcessError(f"census worker died: worker {pid} {how}")
            report = merge(report, pickle.loads(data))
        return report
    finally:
        for pid in pids:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for r in pipes:
            os.close(r)


def _run_child(n: int, records: list[SkeletonRecord], fd: int) -> NoReturn:
    """A forked child's whole life: census its slice, pickle the report into fd.

    It leaves by os._exit whatever happens, so it never returns into the
    caller's code and runs none of the parent's exit handlers or buffer
    flushes; a failure prints its traceback and exits with status 1.
    """
    status = 1
    try:
        import pickle
        with open(fd, "wb") as out:
            pickle.dump(census_skeletons(n, records), out)
        status = 0
    except Exception:
        import traceback
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


def robinson_adg_count(n: int) -> int:
    """Labeled acyclic digraphs on n vertices, by the inclusion-exclusion recurrence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a = [1]
    for k in range(1, n + 1):
        a.append(sum((-1) ** (j + 1) * comb(k, j) * (1 << (j * (k - j))) * a[k - j]
                     for j in range(1, k + 1)))
    return a[n]


def essential_dag_count(n: int) -> int:
    """Labelled DAGs alone in their class, by inclusion-exclusion over k sinks.

    A DAG is alone in its class iff it has no covered arc (Chickering 1995):
    no u->v with pa(v) = pa(u) | {u}.  Deleting k sinks leaves an essential
    DAG on n-k vertices, and each sink's parent set must avoid the n-k
    distinct sets pa(u) | {u} of the vertices left.  e(0) = 1.
    """
    e = [1]
    for m in range(1, n + 1):
        e.append(sum((-1) ** (k + 1) * comb(m, k) * ((1 << (m - k)) - (m - k)) ** k * e[m - k]
                     for k in range(1, m + 1)))
    return e[n]


def robinson_adgs_by_edges(n: int) -> list[int]:
    """Labeled acyclic digraphs on n vertices per arc count, index = arcs.

    The coefficients of A_n(x): Robinson's recurrence with (1+x)^{k(m-k)}
    in place of 2^{k(m-k)}, since each possible arc out of the k sources
    is present or not.  A_0 = 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    a = [[1]]
    for m in range(1, n + 1):
        poly = [0] * (pair_count(m) + 1)
        for k in range(1, m + 1):
            arcs = k * (m - k)
            scale = (-1) ** (k + 1) * comb(m, k)
            for i, c in enumerate(a[m - k]):
                for j in range(arcs + 1):
                    poly[i + j] += scale * c * comb(arcs, j)
        a.append(poly)
    return a[n]
