"""Isomorph-free generation of undirected graphs, layered by edge count.

A graph is canonical when its bit code is maximal over all relabellings.
Layers grow by edge augmentation (Read's orderly method): each canonical
parent spawns children by setting one bit inside its trailing run of zero
bits, and a child survives iff it is itself canonical.  Clearing the
lowest set bit of any child recovers its unique parent, so every
canonical graph is produced exactly once.  Layers above half the possible
edge count come from complementing the mirror layer and re-canonicalizing.

Canonical codes and automorphism group orders come from one search,
canonical_search, which fixes the code column by column.  Labels go out
n, n-1, ..., 2; column k holds the pairs (i, k), i < k, and outranks every
later column, so a maximal labelling maximises column k given the labels
above it.  Column 1 holds no pair, so label 1 goes to the one vertex left
and adds nothing to the code or to the count.  The unassigned vertices form an ordered tuple of cells, each
owning a contiguous label range; every vertex of a cell has the same
neighbours among the labelled ones.  Label k comes from the top cell.
Giving it to v pushes v's neighbours to the top of every cell, which fixes
column k, and each cell then splits into (neighbours, non-neighbours).
Only the states that tie on the best column go on to the next label, as
in individualisation-refinement (McKay & Piperno 2014); the labellings
that survive to the end are exactly those reaching the maximal code, so
their number is |Aut|.  generate_all hands out each graph with its
labelled-copy count, n!/|Aut|, the weight the census gives it.
"""

from __future__ import annotations

from collections import namedtuple
from math import factorial
from typing import Iterator

from .graphs import (
    Graph,
    adjacency_masks,
    complement,
    iter_pairs,
    pair_count,
    pair_index,
)


def augment_children(g: Graph) -> list[Graph]:
    """One child per zero bit in the trailing zero run, highest position first.

    Caller guarantees g is canonical; each child has one more edge and
    clearing its lowest set bit gives back g.
    """
    if g.code == 0:
        run = pair_count(g.n)
    else:
        run = (g.code & -g.code).bit_length() - 1
    return [Graph(g.n, g.code | (1 << p)) for p in range(run - 1, -1, -1)]


def canonical_search(n: int, adj: list[int], target: int = -1) -> tuple[int, int]:
    """(maximal code, |Aut|) of the graph with neighbour masks adj.

    A state is the tuple of unassigned cells; states reached by different
    labellings but holding the same cells have the same future, so they
    merge and carry their multiplicity.  The cost grows with the number
    of distinct states that tie on the best columns: K_n and the edgeless
    graph keep C(n, j) after j labels (2^n in all, not n!), and highly
    regular graphs can keep many more.

    With target >= 0 the search stops at the first column whose best value
    differs from target's column; it then returns that partial code, which
    differs from target, and |Aut| = 0.  So target is canonical iff the
    returned code equals it.
    """
    states = {((1 << n) - 1,): 1}
    code = 0
    for k in range(n, 1, -1):
        shift = pair_index(1, k)
        best = -1
        nxt: dict[tuple[int, ...], int] = {}
        for cells, mult in states.items():
            top = cells[0]
            rest = top
            while rest:
                low = rest & -rest
                rest ^= low
                av = adj[low.bit_length() - 1]
                hi = k - 1  # highest label still free below k
                col = 0
                split = []
                for cell in (top ^ low,) + cells[1:]:
                    if not cell:
                        continue
                    nb = cell & av
                    t = nb.bit_count()
                    col |= ((1 << t) - 1) << (hi - t)
                    hi -= cell.bit_count()
                    if nb:
                        split.append(nb)
                    if nb != cell:
                        split.append(cell ^ nb)
                if col > best:
                    best = col
                    nxt = {tuple(split): mult}
                elif col == best:
                    key = tuple(split)
                    nxt[key] = nxt.get(key, 0) + mult
        code |= best << shift
        if target >= 0 and best != target >> shift & ((1 << (k - 1)) - 1):
            return code, 0
        states = nxt
    return code, sum(states.values())


class GenerationLayer(namedtuple("GenerationLayer", "n edge_count graphs labellings")):
    """One edge layer: graphs in strictly descending code, and n!/|Aut| of each."""

    __slots__ = ()


def generate_all(n: int) -> Iterator[GenerationLayer]:
    """One representative per isomorphism class, layered by edge count 0..m.

    Layers up to floor(m/2) are grown by augmentation (so the middle layer,
    when m is even, never goes through complementation); the rest mirror the
    lower half through complement + canonical_search.  Each kept graph is
    searched once, and its |Aut| travels with it until it becomes the
    labelled-copy count n!/|Aut|.  A child's neighbour masks are its
    parent's plus the one new edge.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    m = pair_count(n)
    pairs = list(iter_pairs(n))
    layers: dict[int, dict[int, int]] = {0: {0: canonical_search(n, [0] * n)[1]}}
    grown = {0: [0] * n}  # neighbour masks of the graphs in the last grown layer
    for e in range(m // 2):
        kids = layers[e + 1] = {}
        parents, grown = grown, {}
        for p, pmasks in parents.items():
            for c in augment_children(Graph(n, p)):
                i, j = pairs[(c.code ^ p).bit_length() - 1]
                masks = pmasks.copy()
                masks[i - 1] |= 1 << (j - 1)
                masks[j - 1] |= 1 << (i - 1)
                code, aut = canonical_search(n, masks, c.code)
                if code == c.code:
                    kids[code] = aut
                    grown[code] = masks
    for e in range(m // 2 + 1, m + 1):
        layers[e] = dict(canonical_search(n, adjacency_masks(complement(Graph(n, p))))
                         for p in layers[m - e])
    nf = factorial(n)
    for e in range(m + 1):
        auts = layers[e]
        codes = sorted(auts, reverse=True)
        for c in codes:
            if nf % auts[c]:
                raise RuntimeError(f"|Aut| = {auts[c]} does not divide {n}! (code {c:#x})")
        yield GenerationLayer(n=n, edge_count=e, graphs=[Graph(n, c) for c in codes],
                              labellings=[nf // auts[c] for c in codes])
