"""Immorality coding and per-skeleton class tables.

Two acyclic digraphs on the same skeleton are Markov equivalent iff they
induce the same immoralities, so the set of immoralities present, written
as a bitset over the skeleton's ordered v-configuration list, is a unique
class key.  Classifying a skeleton means tallying its acyclic orientations
per key.  An acyclic orientation is a vertex order up to swapping
neighbours in it that are not adjacent in the skeleton, and
classify_skeleton builds only the lexicographically least order of each,
its lexicographic normal form, one vertex per step: acyclicity holds by
construction and a vertex's immoralities are read off when it is placed.
What the least order allows next depends on the placed vertices and on
F, the unplaced vertices that a larger vertex has passed over since their
last neighbour was placed, so partial orientations with the same placed
set, F and partial code are merged and carried forward as one count.
Three exact shortcuts cut the walk short; classify_skeleton says why
each is exact.  The table it returns keeps the walk's codes unsorted: a
census needs only how many classes of each size there are, so the codes
are sorted only when a caller reads them.  The reference it is tested
against, oracles.class_codes over the listed orientations, keys each
finished orientation by testing its parent masks at every v-configuration
instead.
"""

from __future__ import annotations

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


class SkeletonClassTable:
    """The orientation count of each class code of one skeleton.

    `counts` is the walk's own table, {code << n: count} in no particular
    order; a census needs only its values and length.  `classes`, codes
    ascending, is sorted from it on first read.
    """

    def __init__(self, n: int, counts: dict[int, int]):
        self.n = n
        self.counts = counts

    @cached_property
    def classes(self) -> dict[int, int]:
        counts = self.counts
        return {c >> self.n: counts[c] for c in sorted(counts)}

    @property
    def total_orientations(self) -> int:
        return sum(self.counts.values())


def classify_skeleton(g: Graph) -> SkeletonClassTable:
    """Group the acyclic orientations of g by class code.

    An acyclic orientation is the set of vertex orders in which every edge
    points from its earlier end to its later one; any two of them differ
    by swapping, one step at a time, neighbours in the order that are not
    adjacent in g.  The walk builds one order per orientation, the least
    (its lexicographic normal form, after Anisimov and Knuth): an order is
    least iff it never places a vertex u after a larger vertex b when u is
    adjacent neither to b nor to anything placed between them.  So the
    walk keeps F, the unplaced vertices that some larger vertex has passed
    over since their last neighbour was placed.  v may come next iff v is
    not in F, and then F' = ((F | {u < v}) & ~N(v)) & rest, where rest is
    what is left unplaced.

    What can follow depends only on the placed mask and F, and a step only
    adds to the placed mask, so the walk is one forward pass over the
    placed masks in ascending order, each finished before any of its
    successors.  states[placed] maps code << n | F to the number of
    partial orientations with that partial code, and every step is the
    same update of one such dict.  F is empty once all is placed, so
    states[full] is the class table.

    A v-configuration (a, b, c) is an immorality iff a and c are both
    placed before b, so placing b ORs in imm[b][placed & N(b)], a table
    over the subsets of N(b), read once per vertex and placed mask.
    Tables over all vertex subsets hold each set's neighbourhood union,
    its lone vertices (those with no neighbour inside the set) and the
    code of the v-configurations centred in it (sink), which an independent
    set placed last realizes in full.

    Three shortcuts, each exact:
    - A lone vertex of rest has all its neighbours placed, so once in F it
      stays there and is never placed: a state whose F meets lone[rest]
      has no completion.  No such state is made, because of the next
      shortcut.  Isolated vertices are lone from the start and carry no
      code, so they are placed before the walk begins.
    - The next vertex is at most the lowest lone vertex w of the unplaced
      set, since any larger one passes over w.  Then a step puts no lone
      vertex into F, and a vertex of F that the step leaves lone is a
      neighbour of the vertex placed, which drops it from F.
    - An independent rest is all lone, so its F is empty and its only
      completion places it in ascending order, adding sink[rest]: the
      step goes straight to states[full].
    """
    n = g.n
    adj = adjacency_masks(g)
    # code bits sit above the n F bits of a state key: bit n + i is vconfig i
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
    nbr = [0]  # per vertex set: its neighbourhood union
    sink = [0]  # per vertex set placed last: the v-configurations centred in it
    for v in range(n):
        a, t = adj[v], imm[v][adj[v]]
        nbr += [x | a for x in nbr]
        sink += [x | t for x in sink]
    lone = [s & ~x for s, x in enumerate(nbr)]  # s is independent iff lone[s] == s

    full = size - 1
    # per placed mask: {code << n | F: orientation count}
    states: list[dict[int, int]] = [{} for _ in range(size)]
    start = lone[full]  # isolated vertices go first and add no code bits
    states[start][0] = 1
    for placed in range(start, full):
        entries = states[placed]
        if not entries:
            continue
        remaining = full ^ placed
        cand = remaining
        w = lone[remaining] & -lone[remaining]
        if w:
            cand &= (w << 1) - 1  # passing over a vertex with no neighbour left strands it
        items = entries.items()
        while cand:
            bv = cand & -cand
            cand ^= bv
            v = bv.bit_length() - 1
            rest = remaining ^ bv
            keep = rest & ~adj[v]  # F survives only away from v
            clear = ~(full ^ keep)  # keeps the code bits and the F bits in keep
            passed = (bv - 1) & keep
            gain = imm[v][placed & adj[v]] | passed
            if lone[rest] == rest:  # then F' is empty and passed is 0
                out = states[full]
                gain |= sink[rest]
            else:
                out = states[placed | bv]
            for key, k in items:
                if not key & bv:
                    c = key & clear | gain
                    out[c] = out.get(c, 0) + k

    return SkeletonClassTable(n, states[full])
