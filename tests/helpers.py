"""Graph builders, references and statistics that only the tests call.

None of these takes part in a command: encode builds graphs from edge
lists and edges lists a graph's edges; brute_force_search and
apply_permutation are references for the canonical search and for
relabelling; enumerate_acyclic_orientations, class_codes and
covered_reversal_classes list a skeleton's orientations and join them
into classes without the kernel; and the median and Gaussian statistics
read the shape of a finished report.  Like mecensus.oracles, they share
nothing with the pipeline beyond the graph coding.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from mecensus.graphs import MAX_VERTICES, Graph, iter_pairs, pair_index
from mecensus.oracles import relabellings


def encode(edges: Iterable[tuple[int, int]], n: int) -> Graph:
    """Build a graph from vertex pairs; loops and out-of-range pairs rejected."""
    code = 0
    for i, j in edges:
        if i == j:
            raise ValueError(f"loop at vertex {i}")
        if not (1 <= i < j <= n):
            raise ValueError(f"pair ({i}, {j}) not in 1 <= i < j <= {n}")
        code |= 1 << pair_index(i, j)
    return Graph(n, code)


_PAIRS = list(iter_pairs(MAX_VERTICES))  # indexed by bit position, the same for every n


def edges(g: Graph) -> list[tuple[int, int]]:
    """g's edge list in ascending bit-position order."""
    out = []
    c = g.code
    while c:
        low = c & -c
        out.append(_PAIRS[low.bit_length() - 1])
        c ^= low
    return out


def brute_force_search(g: Graph) -> tuple[int, int]:
    """(largest code, relabellings that keep g's code) over the n! relabellings of g.

    That is orderly.canonical_search(n, adjacency_masks(g)): (maximal code, |Aut|).
    """
    images = relabellings(g.n, g.code)
    return max(images), images.count(g.code)


def apply_permutation(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel: vertex v becomes perm[v-1].  perm must be a bijection on 1..n."""
    if sorted(perm) != list(range(1, g.n + 1)):
        raise ValueError(f"not a bijection on 1..{g.n}: {perm!r}")
    code = 0
    c = g.code
    for i, j in iter_pairs(g.n):
        if c & 1:
            a, b = perm[i - 1], perm[j - 1]
            if a > b:
                a, b = b, a
            code |= 1 << pair_index(a, b)
        c >>= 1
    return Graph(g.n, code)


def enumerate_acyclic_orientations(g: Graph) -> list[tuple[int, ...]]:
    """Every acyclic orientation of g exactly once, deterministic order.

    Lists parent masks: entry v-1 has bit u-1 set iff the arc is u->v.
    Depth-first over the edges from most to least significant, trying
    low-to-high before high-to-low; a direction u->v is pruned as soon as
    v already reaches u through the edges directed so far.
    """
    pairs = edges(g)
    n = g.n
    reach = [1 << v for v in range(n)]
    parents = [0] * n
    out = []

    def rec(k: int) -> None:
        if k < 0:
            out.append(tuple(parents))
            return
        i, j = pairs[k]
        for u, v in ((i - 1, j - 1), (j - 1, i - 1)):
            if reach[v] >> u & 1:
                continue
            mv = reach[v]
            undo = []  # (w, reach[w] before u->v) for every entry the arc widens
            for w in range(n):
                rw = reach[w]
                if rw >> u & 1 and rw | mv != rw:
                    undo.append((w, rw))
                    reach[w] = rw | mv
            parents[v] |= 1 << u
            rec(k - 1)
            parents[v] ^= 1 << u
            for w, rw in undo:
                reach[w] = rw

    rec(len(pairs) - 1)
    return out


def class_codes(orientations: list[tuple[int, ...]],
                vconfigs: list[tuple[int, int, int]]) -> list[int]:
    """Per parent-mask tuple, bit i set iff vconfigs[i] is oriented as a->b<-c.

    Each v-configuration becomes one (centre, two-parent mask) pair, once
    per call, and is an immorality iff the centre's parent mask holds both.
    """
    sites = [(b - 1, 1 << (a - 1) | 1 << (c - 1), 1 << k)
             for k, (a, b, c) in enumerate(vconfigs)]
    out = []
    for parents in orientations:
        code = 0
        for b, pair, bit in sites:
            if parents[b] & pair == pair:
                code |= bit
        out.append(code)
    return out


def covered_reversal_classes(orientations: list[tuple[int, ...]],
                             vconfigs: list[tuple[int, int, int]]) -> dict[int, int]:
    """{class code: size} of one skeleton's parent-mask tuples, by covered-arc reversal.

    An arc u->v is covered iff pa(v) = pa(u) | {u}.  Reversing it keeps a
    DAG in its class, and any two equivalent DAGs are joined by covered
    reversals (Chickering 1995), so the classes are the components of the
    orientations under covered reversal, found here by depth-first search.
    Immoralities only name them: each component takes the class_codes of
    its members, and a component whose members carry two codes, or a code
    carried by two components, raises ValueError.
    """
    codes = dict(zip(orientations, class_codes(orientations, vconfigs)))
    seen = set()
    out = {}
    for first in orientations:
        if first in seen:
            continue
        code = codes[first]
        if code in out:
            raise ValueError(f"two components carry class code {code}")
        seen.add(first)
        stack = [first]
        size = 0
        while stack:
            p = stack.pop()
            size += 1
            if codes[p] != code:
                raise ValueError(f"one component carries class codes {code} and {codes[p]}")
            for v, pv in enumerate(p):
                for u, pu in enumerate(p):
                    if pv == pu | 1 << u:  # u->v is covered: reverse it
                        q = list(p)
                        q[v] ^= 1 << u
                        q[u] |= 1 << v
                        q = tuple(q)
                        if q not in seen:
                            seen.add(q)
                            stack.append(q)
        out[code] = size
    return out


def median_edges_prediction(n: int) -> int:
    """floor(n/2) * ceil(n/2), the maximum of i*(n-i) over integers i."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return (n // 2) * ((n + 1) // 2)


def median_edge_count(report) -> int:
    """Smallest e where the cumulative class count reaches half the total."""
    total = report.total_classes
    cum = 0
    for e, c in enumerate(report.classes_by_edges):
        cum += c
        if 2 * cum >= total:
            return e
    raise ValueError("empty distribution")


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
