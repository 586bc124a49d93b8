"""Brute-force references that mecensus verify runs.

Everything here is deliberately naive and shares nothing with the main
pipeline beyond the graph coding: digraphs are enumerated pair by pair
into the census's joint table of classes per (arc count, class size),
unlabeled graphs come from orbit marking over one table of the n!
relabellings, acyclic orientation counts come from inclusion-exclusion
over source sets, and v-configuration counts from degrees and triangles.
Disagreement with the pipeline fails verify.  The references that only
the tests call live in tests/helpers.py.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cache
from math import comb

from .graphs import Graph, adjacency_masks, iter_pairs, pair_count, pair_index


def brute_force_census(n: int) -> Counter:
    """Counter{(arc count, class size): classes} of all labeled DAGs on n vertices.

    Walks every assignment of {absent, i->j, j->i} to every vertex pair,
    which caps the practical range at n <= 5 (3^10 states), and tallies
    each DAG under its skeleton and immoralities; each distinct key is
    one class, its tally the class size.  The result has the shape of
    CensusReport.joint, for comparison cell by cell.
    """
    if not 1 <= n <= 5:
        raise ValueError("brute-force DAG census supported for 1 <= n <= 5 only")
    pairs = list(iter_pairs(n))
    sizes = Counter()  # (skeleton code, frozenset of immorality triples) -> class size
    for assignment in itertools.product((0, 1, 2), repeat=len(pairs)):
        parents: list[list[int]] = [[] for _ in range(n + 1)]
        skeleton = 0
        for (i, j), a in zip(pairs, assignment):
            if a == 0:
                continue
            skeleton |= 1 << pair_index(i, j)
            if a == 1:
                parents[j].append(i)  # i -> j
            else:
                parents[i].append(j)  # j -> i
        if _has_cycle(n, parents):
            continue
        immoralities = set()
        for b in range(1, n + 1):
            for a, c in itertools.combinations(sorted(parents[b]), 2):
                if not skeleton >> pair_index(a, c) & 1:
                    immoralities.add((a, b, c))
        sizes[skeleton, frozenset(immoralities)] += 1
    return Counter((skeleton.bit_count(), size) for (skeleton, _), size in sizes.items())


def _has_cycle(n: int, parents: list[list[int]]) -> bool:
    # Kahn peeling on the parent lists
    indeg = [len(parents[v]) for v in range(n + 1)]
    children: list[list[int]] = [[] for _ in range(n + 1)]
    for v in range(1, n + 1):
        for p in parents[v]:
            children[p].append(v)
    stack = [v for v in range(1, n + 1) if indeg[v] == 0]
    seen = 0
    while stack:
        v = stack.pop()
        seen += 1
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                stack.append(c)
    return seen != n


@cache
def _moves(n: int) -> list[list[int]]:
    """Per relabelling of 1..n, the bit each pair's bit moves to, pairs in bit order."""
    return [[1 << pair_index(*sorted((p[i - 1], p[j - 1]))) for i, j in iter_pairs(n)]
            for p in itertools.permutations(range(1, n + 1))]


def relabellings(n: int, code: int) -> list[int]:
    """The code of every relabelling of (n, code), in _moves order."""
    present = [k for k in range(pair_count(n)) if code >> k & 1]
    return [sum(move[k] for k in present) for move in _moves(n)]


def brute_force_unlabeled(n: int) -> list[int]:
    """Canonical codes of all unlabeled graphs on n vertices, ascending.

    Orbit marking over the full labeled space: each code not yet marked
    starts a new orbit, every one of the n! relabellings of it is marked,
    and the largest image is the orbit's canonical code.
    """
    if not 1 <= n <= 6:
        raise ValueError("brute-force unlabeled enumeration supported for 1 <= n <= 6 only")
    marked = set()
    out = []
    for code in range(1 << pair_count(n)):
        if code not in marked:
            images = relabellings(n, code)
            marked.update(images)
            out.append(max(images))
    return sorted(out)


def acyclic_orientation_count(g: Graph) -> int:
    """Acyclic orientations of g, by inclusion-exclusion over source sets.

    The sources of an acyclic orientation of the subgraph on U form a
    nonempty independent set S, and forcing S to be sources leaves any
    acyclic orientation of U - S; so a(U) is the sum over the nonempty
    independent S within U of (-1)^(|S|+1) a(U - S), and a(empty) = 1.
    The independent subsets of each U are listed from those of U minus
    its lowest vertex.
    """
    nbrs = adjacency_masks(g)
    indep = [[0]]  # indep[u]: the independent subsets of u, the empty set first
    a = [1]
    for u in range(1, 1 << g.n):
        low = u & -u
        r = u ^ low
        sets = indep[r] + [s | low for s in indep[r & ~nbrs[low.bit_length() - 1]]]
        indep.append(sets)
        a.append(sum(a[u ^ s] if s.bit_count() & 1 else -a[u ^ s] for s in sets[1:]))
    return a[-1]


def vconfig_count(g: Graph) -> int:
    """V-configurations of g, from degrees alone: sum of C(deg v, 2) - 3 * triangles.

    Each pair of neighbours of a vertex is a v-configuration centred there
    unless the two are adjacent, and each triangle holds three adjacent
    pairs, one per corner.  Each ordered pair of adjacent vertices sees
    the third corner of each triangle on that edge once, so summing common
    neighbours over them counts every triangle six times.
    """
    adj = adjacency_masks(g)
    wedges = sum(comb(nb.bit_count(), 2) for nb in adj)
    six_triangles = sum((nb & adj[v]).bit_count()
                        for nb in adj for v in range(g.n) if nb >> v & 1)
    return wedges - six_triangles // 2
