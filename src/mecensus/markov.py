"""Immorality coding and per-skeleton class tables.

Two acyclic digraphs on the same skeleton are Markov equivalent iff they
induce the same immoralities, so the set of immoralities present, written
as a bitset over the skeleton's ordered v-configuration list, is a unique
class key.  Classifying a skeleton means tallying its acyclic orientations
per key.  classify_skeleton builds each orientation from its source layers
(the sources, then the sources of what is left, and so on), so acyclicity
holds by construction and a vertex's immoralities are read off when its
layer is placed.  Partial orientations that reach the same state with the
same partial code are merged and carried forward as one count.  The
reference it is tested against, oracles.class_code over the streamed
orientations, keys each orientation arc by arc instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, adjacency_masks


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


@dataclass
class SkeletonClassTable:
    """Class code -> orientation count for one skeleton; codes ascending."""

    classes: dict[int, int]
    total_orientations: int


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
    is one forward pass over states: each holds {partial code: orientation
    count}, and states are taken in descending order of their remaining
    mask, which is safe because a layer only removes vertices, so every
    predecessor of a state has a larger mask and is finished first.  For
    each state, every independent subset of its candidates is tried as the
    next layer; the code bits that layer adds are computed once and ORed
    into each of the state's partial codes as the counts are merged into
    the child state.

    A v-configuration (a, b, c) is an immorality iff a and c are both
    placed before b, so placing b ORs in imm[b][placed & N(b)], a table
    over the subsets of N(b).  Tables over all vertex subsets hold each
    set's neighbourhood union, independence and, for a last layer, the
    code of all its v-configurations.  A layer is skipped when a remaining
    vertex has no neighbour among the remaining vertices or in that layer,
    since nothing could be its parent.  When what remains after a layer is
    independent, it can only be the last layer, and the check above has
    just made each of its vertices adjacent to the layer placed; those
    codes are tallied at once instead of passing through a state.
    """
    n = g.n
    adj = adjacency_masks(g)
    sites: list[dict[int, int]] = [{} for _ in range(n)]  # per centre: {a, c} mask -> code bit
    for i, (a, b, c) in enumerate(find_v_configurations(g)):
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
    indep = [True] * size
    sink = [0] * size  # independent s as the last layer: all its v-configurations
    members: list[tuple] = [()] * size  # (N(b), imm[b]) per vertex b of independent s
    for s in range(1, size):
        low = s & -s
        v = low.bit_length() - 1
        r = s ^ low
        nbr[s] = nbr[r] | adj[v]
        if indep[r] and not adj[v] & r:
            sink[s] = sink[r] | imm[v][adj[v]]
            members[s] = members[r] + ((adj[v], imm[v]),)
        else:
            indep[s] = False

    layers: dict[int, list[tuple]] = {}
    counts: dict[int, int] = {}

    def options(cand: int) -> list[tuple]:
        out = layers[cand] = []
        s = cand
        while s:
            if indep[s]:
                out.append((s, nbr[s], members[s]))
            s = (s - 1) & cand
        return out

    full = size - 1
    # states[remaining]: {candidates: {partial code: orientation count}}
    states: list[dict[int, dict[int, int]]] = [{} for _ in range(size)]
    states[full][full] = {0: 1}
    for remaining in range(full, 0, -1):
        placed = full ^ remaining
        for cand, codes in states[remaining].items():
            for s, ns, vs in layers.get(cand) or options(cand):
                rest = remaining ^ s
                if rest & ~(nbr[rest] | ns):
                    continue  # a vertex of rest has no neighbour left to be its parent
                add = 0
                for nb, t in vs:
                    add |= t[placed & nb]
                if indep[rest]:
                    add |= sink[rest]
                    out = counts
                elif rest & ns:
                    child = states[rest]
                    out = child.get(rest & ns)
                    if out is None:
                        out = child[rest & ns] = {}
                else:
                    continue
                for c, k in codes.items():
                    c |= add
                    out[c] = out.get(c, 0) + k

    return SkeletonClassTable(
        classes={c: counts[c] for c in sorted(counts)},
        total_orientations=sum(counts.values()),
    )


def max_vconfig_prediction(n: int) -> int:
    """(n-2)/2 * floor(n/2) * ceil(n/2); attained on balanced complete bipartite graphs."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return (n - 2) * (n // 2) * ((n + 1) // 2) // 2
