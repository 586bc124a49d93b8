"""Streaming enumeration of the acyclic orientations of a skeleton.

The public streaming API and the independent reference for tests.  It
directs one edge at a time and prunes a direction that would close a
cycle; the census proper tallies class codes with
markov.classify_skeleton, a different algorithm that places whole source
layers and builds no Orientation objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graphs import Graph


@dataclass(frozen=True)
class Orientation:
    """A direction for every skeleton edge, acyclic by construction.

    Bit r of direction refers to the r-th edge of skeleton.edges() and is
    1 when the edge points from its lower to its higher endpoint.
    """

    skeleton: Graph
    direction: int

    def directed_edges(self) -> list[tuple[int, int]]:
        out = []
        for r, (i, j) in enumerate(self.skeleton.edges()):
            out.append((i, j) if self.direction >> r & 1 else (j, i))
        return out


def enumerate_acyclic_orientations(g: Graph) -> Iterator[Orientation]:
    """Every acyclic orientation of g exactly once, deterministic order.

    Depth-first over the edges from most to least significant, trying
    low-to-high before high-to-low; a direction u->v is pruned as soon as
    v already reaches u through the edges directed so far.
    """
    edges = g.edges()
    E = len(edges)
    n = g.n
    reach = [1 << v for v in range(n)]

    def rec(k: int, mask: int) -> Iterator[Orientation]:
        if k < 0:
            yield Orientation(skeleton=g, direction=mask)
            return
        i, j = edges[k]
        for bit in (1, 0):
            u, v = (i - 1, j - 1) if bit else (j - 1, i - 1)
            if reach[v] >> u & 1:
                continue
            saved = reach.copy()
            mv = reach[v]
            for w in range(n):
                if reach[w] >> u & 1:
                    reach[w] |= mv
            yield from rec(k - 1, mask | (bit << k))
            reach[:] = saved

    return rec(E - 1, 0)


def count_acyclic_orientations(g: Graph) -> int:
    """Length of the orientation stream."""
    return sum(1 for _ in enumerate_acyclic_orientations(g))
