"""Immorality coding and per-skeleton class tables.

Two acyclic digraphs on the same skeleton are Markov equivalent iff they
induce the same immoralities, so the set of immoralities present, written
as a bitset over the skeleton's ordered v-configuration list, is a unique
class key.  Classifying a skeleton means tallying its acyclic orientations
per key.  classify_skeleton builds each orientation from its source layers
(the sources, then the sources of what is left, and so on), so acyclicity
holds by construction and a vertex's immoralities are read off when its
layer is placed.  Partial orientations that leave the same vertices and
candidates for the next layer, with the same partial code, are merged
and carried forward as one count.  A vertex whose neighbours are all
placed must join the next layer, so it is placed at once and dropped from
the state, and a walk whose last two vertices form one edge is tallied
without further states.  The table it returns keeps the walk's codes
unsorted: a census needs only how many classes of each size there are,
so the codes are sorted only when a caller reads them.  The reference
it is tested against, oracles.class_code over the listed orientations,
keys each finished orientation by testing its parent masks at every
v-configuration instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graphs import Graph, adjacency_masks


def find_v_configurations(g: Graph) -> list[tuple[int, int, int]]:
    """All triples (a, b, c), a < c, with a-b and b-c edges but no a-c edge.

    Ordered by (b, a, c); the order is load-bearing, class codes index
    into it.  Never longer than n(n-1)(n-2)/6.
    """
    adj = adjacency_masks(g)
    out = []
    for b, nb in enumerate(adj, 1):
        while nb:
            low = nb & -nb
            nb ^= low
            a = low.bit_length()
            cs = nb & ~adj[a - 1]  # the later neighbours of b that a misses
            while cs:
                low = cs & -cs
                cs ^= low
                out.append((a, b, low.bit_length()))
    return out


@dataclass
class SkeletonClassTable:
    """The orientation count of each class code of one skeleton.

    `counts` is the walk's own table, {code << n: count} in no particular
    order; a census needs only its values and length.  `classes`, codes
    ascending, is sorted from it on first read.
    """

    n: int
    counts: dict[int, int]

    @cached_property
    def classes(self) -> dict[int, int]:
        counts = self.counts
        return {c >> self.n: counts[c] for c in sorted(counts)}

    @property
    def total_orientations(self) -> int:
        return sum(self.counts.values())


def classify_skeleton(g: Graph) -> SkeletonClassTable:
    """Group the acyclic orientations of g by class code.

    Each orientation is enumerated once, by its source layers: S1 is the
    set of sources, S2 the sources once S1 is removed, and so on.  Every
    layer is a nonempty independent set, every vertex of S(i+1) has a
    neighbour in S(i), and every edge points from its earlier layer to its
    later one; conversely each such sequence of layers covering all
    vertices is the layering of exactly one acyclic orientation, so no
    reachability test is needed.

    What can follow a partial layering depends only on its state
    (remaining vertices, candidates = remaining & N(last layer)), since the
    placed vertices are the complement of the remaining ones.  So the walk
    is one forward pass over the remaining masks in descending order,
    which is safe because a layer only removes vertices, so every
    predecessor of a state has a larger mask and is finished first.
    states[remaining] maps code << n | candidates to the number of
    partial orientations with that partial code, and each entry tries
    every independent subset of its candidates as the next layer.

    A v-configuration (a, b, c) is an immorality iff a and c are both
    placed before b, so placing b ORs in imm[b][placed & N(b)], a table
    over the subsets of N(b), read once per vertex and remaining mask.
    Tables over all vertex subsets hold each set's neighbourhood union,
    its lone vertices (those with no neighbour inside the set) and, for an
    independent set as the last layer, the code of all its
    v-configurations (sink).

    No remaining set has a lone vertex, so every vertex left can still
    get a parent.  Isolated vertices are all sources and carry no code, so
    they are stripped before the walk starts.  After a layer, a lone
    vertex of the rest has all its neighbours placed, at least one in the
    layer just placed; it must join the very next layer, and its code
    bits, its sink bits, are final.  So these stranded vertices are
    stripped at once: their bits go into the code, and they leave the
    remaining and the candidate masks, which merges states that differ
    only in them.  The rest left has no lone vertex again.  When no
    candidate remains besides them, nothing can follow the next layer and
    the walk ends there.  A rest that is independent is the last layer and
    is tallied at once.  A stripped rest of two vertices is one edge
    {x, y}: each of x, y that is a candidate ends the orientation pointing
    at the other, so those codes are tallied at once too.
    """
    n = g.n
    adj = adjacency_masks(g)
    # code bits sit above the n candidate bits of a state key: bit n + i is vconfig i
    sites: list[dict[int, int]] = [{} for _ in range(n)]  # per centre: {a, c} mask -> code bit
    for i, (a, b, c) in enumerate(find_v_configurations(g), n):
        sites[b - 1][1 << (a - 1) | 1 << (c - 1)] = 1 << i
    imm = []
    for nb, pairs in zip(adj, sites):
        t = {0: 0}
        s = -nb & nb  # the nonempty subsets of nb, ascending
        while s:
            low = s & -s
            r = s ^ low
            if r:
                low2 = r & -r  # a pair inside s avoids low, avoids low2 or is both
                t[s] = t[r] | t[s ^ low2] | pairs.get(low | low2, 0)
            else:
                t[s] = 0
            s = (s - nb) & nb
        imm.append(t)

    size = 1 << n
    nbr = [0] * size
    lone = [0] * size  # the vertices of s with no neighbour in s; s is independent iff lone[s] == s
    sink = [0] * size  # independent s as the last layer: all its v-configurations
    members: list[tuple[int, ...]] = [()] * size  # the vertices of independent s
    for s in range(1, size):
        low = s & -s
        v = low.bit_length() - 1
        r = s ^ low
        nbr[s] = nbr[r] | adj[v]
        lone[s] = s & ~nbr[s]
        if lone[s] == s:
            sink[s] = sink[r] | imm[v][adj[v]]
            members[s] = members[r] + (v,)

    # an edge {x, y} left last, per candidate set: the codes of x then y, of y then x
    tails: list[dict[int, tuple[int, ...]] | None] = [None] * size
    for x in range(n):
        for y in range(x + 1, n):
            bx, by = 1 << x, 1 << y
            if adj[x] & by:
                xy = imm[x][adj[x] ^ by] | imm[y][adj[y]]
                yx = imm[y][adj[y] ^ bx] | imm[x][adj[x]]
                tails[bx | by] = {bx: (xy,), by: (yx,), bx | by: (xy, yx)}

    layers: dict[int, list[tuple]] = {}

    def options(cand: int) -> list[tuple]:
        out = layers[cand] = []
        s = cand
        while s:
            if lone[s] == s:
                out.append((s, nbr[s], members[s]))
            s = (s - 1) & cand
        return out

    full = size - 1
    counts: dict[int, int] = {}  # code << n -> orientation count
    # per remaining mask: {code << n | candidates: orientation count}
    states: list[dict[int, int]] = [{} for _ in range(size)]
    start = full ^ lone[full]  # isolated vertices join the first layer and add no code bits
    if start:
        states[start][start] = 1
    else:
        counts[0] = 1
    for remaining in range(start, 0, -1):
        entries = states[remaining]
        if not entries:
            continue
        placed = full ^ remaining
        gain = [imm[v][placed & adj[v]] for v in range(n)]  # the bits placing v next adds
        for key, k in entries.items():
            cand = key & full
            key ^= cand
            for s, ns, vs in layers.get(cand) or options(cand):
                rest = remaining ^ s
                stranded = lone[rest]
                c = key | sink[stranded]
                for v in vs:
                    c |= gain[v]
                if stranded == rest:
                    counts[c] = counts.get(c, 0) + k
                    continue
                nc = (rest & ns) ^ stranded
                if not nc:
                    continue  # the next layer would be the stranded vertices alone
                rest ^= stranded
                tail = tails[rest]
                if tail is None:
                    out = states[rest]
                    c |= nc
                    out[c] = out.get(c, 0) + k
                else:
                    for t in tail[nc]:
                        t |= c
                        counts[t] = counts.get(t, 0) + k

    return SkeletonClassTable(n, counts)
