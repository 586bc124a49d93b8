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
Pendant vertices and ears (degree 2, the two neighbours adjacent), as
many as form an independent set, never enter the walk: they are placed
before it starts and each of their other positions is folded into the
finished table, since no such vertex closes a cycle or centres a
v-configuration.  Three more exact shortcuts cut the walk short;
classify_skeleton says why each is exact.  The table it returns keeps
the walk's codes unsorted: a census needs only how many classes of each
size there are, so the codes are sorted only when a caller reads them.
The reference it is tested against, oracles.class_codes over the listed
orientations, keys each finished orientation by testing its parent masks
at every v-configuration instead.
"""

from __future__ import annotations

from collections import namedtuple

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


class SkeletonClassTable(namedtuple("SkeletonClassTable", "n counts")):
    """The orientation count of each class code of one skeleton.

    `counts` is the walk's own table, {code << n: count} in no particular
    order; a census needs only its values and length.  `classes`, codes
    ascending, is sorted from it on each read.
    """

    __slots__ = ()

    @property
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

    The walk orients only g - P.  P is an independent set, picked greedily
    in vertex order, of pendants (degree 1; of an isolated edge only the
    lower end) and ears (degree 2, the two neighbours adjacent).  P is
    placed with the isolated vertices before the walk, so every v in P
    points out to its neighbours.  That is exact because v centres no
    v-configuration, its neighbours being one or adjacent, and closes no
    cycle wherever it goes among them: moving v changes only m_u(v), the
    code bits of the v-configurations centred at a neighbour u that have
    v as an end, and each is an immorality iff its other end also points
    in.  So each v in P is folded back into the finished table, one key K
    at a time:
    - a pendant at u gives K (v -> u) and K & ~m_u(v) (u -> v);
    - an ear on x and y gives K (v first), K & ~(m_x(v) | m_y(v)) (v last)
      and, with v between them, K & ~m_x(v) if x came before y, else
      K & ~m_y(v).  Whether x came first is a tag bit above the code bits,
      which imm[y] sets on every subset that holds x; the fold drops it.
    Members of P are not adjacent, so a v-configuration that two of them
    end, at a common neighbour, keeps its bit only if neither fold clears
    it, that is iff both point in.
    """
    n = g.n
    adj = adjacency_masks(g)
    vcs = find_v_configurations(g)
    # code bits sit above the n F bits of a state key: bit n + i is vconfig i
    sites: list[dict[int, int]] = [{} for _ in range(n)]  # per centre: {a, c} mask -> code bit
    for i, (a, b, c) in enumerate(vcs, n):
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

    # P, the pendants and ears to fold: per member v, a tag bit and the keep
    # masks of its positions, if x came before y and if not (m_u(v) as above)
    pre = 0
    folds = []
    tag = 1 << (n + len(vcs))  # tag bits sit above the code bits
    for v, nb in enumerate(adj):
        bv = 1 << v
        x = nb & -nb
        y = nb ^ x  # 0 for a pendant
        if nb & pre or not x or y & (y - 1):
            continue  # next to P, isolated, or of degree 3 or more
        if y and not adj[x.bit_length() - 1] & y:
            continue  # degree 2, the neighbours not adjacent
        pre |= bv
        mx = sum(bit for ac, bit in sites[x.bit_length() - 1].items() if ac & bv)
        if not y:
            folds.append((0, (), (-1, ~mx)))  # v -> x, x -> v
            continue
        my = sum(bit for ac, bit in sites[y.bit_length() - 1].items() if ac & bv)
        table = imm[y.bit_length() - 1]
        for s in table:
            if s & x:
                table[s] |= tag
        last = ~(mx | my | tag)  # v first, v last, v between x and y
        folds.append((tag, (~tag, last, ~(mx | tag)), (~tag, last, ~(my | tag))))
        tag <<= 1

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
    start = lone[full] | pre  # isolated vertices and P go first, pointing outward
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

    counts = states[full]
    for tag, tagged, untagged in folds:
        out = {}
        for key, k in counts.items():
            for keep in tagged if key & tag else untagged:
                c = key & keep
                out[c] = out.get(c, 0) + k
        counts = out
    return SkeletonClassTable(n, counts)
