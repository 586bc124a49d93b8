"""Immorality coding and per-skeleton class tables.

Two acyclic digraphs on the same skeleton are Markov equivalent iff they
induce the same immoralities, so the set of immoralities present, written
as a bitset over the skeleton's ordered v-configuration list, is a unique
class key.  Classifying a skeleton means enumerating its acyclic
orientations and tallying orientations per key.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, adjacency_masks
from .orientations import Orientation


def find_v_configurations(g: Graph) -> list[tuple[int, int, int]]:
    """All triples (a, b, c), a < c, with a-b and b-c edges but no a-c edge.

    Ordered by (b, a, c); the order is load-bearing, class codes index
    into it.  Never longer than n(n-1)(n-2)/6.
    """
    adj = adjacency_masks(g)
    out = []
    for b in range(1, g.n + 1):
        nbrs = [v + 1 for v in range(g.n) if adj[b - 1] >> v & 1]
        for x in range(len(nbrs)):
            a = nbrs[x]
            for y in range(x + 1, len(nbrs)):
                c = nbrs[y]
                if not adj[a - 1] >> (c - 1) & 1:
                    out.append((a, b, c))
    return out


def class_code(o: Orientation, vconfigs: list[tuple[int, int, int]]) -> int:
    """Bit i set iff vconfigs[i] is oriented as an immorality (a->b<-c)."""
    arcs = set(o.directed_edges())
    code = 0
    for i, (a, b, c) in enumerate(vconfigs):
        if (a, b) in arcs and (c, b) in arcs:
            code |= 1 << i
    return code


@dataclass
class SkeletonClassTable:
    """Class code -> orientation count for one skeleton; codes ascending."""

    classes: dict[int, int]
    total_orientations: int


def classify_skeleton(g: Graph) -> SkeletonClassTable:
    """Group the acyclic orientations of g by class code.

    Depth-first over edge directions, most significant edge first, trying
    low-to-high before high-to-low; u->v is pruned when v already reaches
    u.  reach[w] is the bitset of vertices w reaches.  An immorality site
    is decided at the later-assigned of its two edges, so steps[k] holds
    one (direction, u, v, sites) tuple per direction of edge k, and sites
    lists the (other edge, direction wanted there, site bit) triples that
    direction completes; direction 1 = low to high.  The code is tallied
    as soon as the last edge is directed.
    """
    vconfigs = find_v_configurations(g)
    edges = g.edges()[::-1]
    E = len(edges)
    if E == 0:
        return SkeletonClassTable(classes={0: 1}, total_orientations=1)
    rank = {e: k for k, e in enumerate(edges)}
    sites: list[tuple[list, list]] = [([], []) for _ in range(E)]  # by direction 0, 1
    for i, (a, b, c) in enumerate(vconfigs):
        k1, w1 = rank[(min(a, b), max(a, b))], int(a < b)  # w: direction into b
        k2, w2 = rank[(min(b, c), max(b, c))], int(c < b)
        if k1 < k2:
            sites[k2][w2].append((k1, w1, 1 << i))
        else:
            sites[k1][w1].append((k2, w2, 1 << i))
    steps = [((1, i - 1, j - 1, tuple(s[1])), (0, j - 1, i - 1, tuple(s[0])))
             for (i, j), s in zip(edges, sites)]
    last = E - 1
    dirs = [0] * E
    counts: dict[int, int] = {}

    def rec(k: int, reach: list[int], code: int) -> None:
        for bit, u, v, ksites in steps[k]:
            mv = reach[v]
            if mv >> u & 1:
                continue
            dirs[k] = bit
            c = code
            for other, want_other, flag in ksites:
                if dirs[other] == want_other:
                    c |= flag
            if k == last:
                counts[c] = counts.get(c, 0) + 1
            else:
                rec(k + 1, [r | mv if r >> u & 1 else r for r in reach], c)

    rec(0, [1 << v for v in range(g.n)], 0)
    return SkeletonClassTable(
        classes={c: counts[c] for c in sorted(counts)},
        total_orientations=sum(counts.values()),
    )


def max_vconfig_prediction(n: int) -> int:
    """(n-2)/2 * floor(n/2) * ceil(n/2); attained on balanced complete bipartite graphs."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return (n - 2) * (n // 2) * ((n + 1) // 2) // 2
