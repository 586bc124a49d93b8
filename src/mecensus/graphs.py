"""Undirected graphs on labeled vertices 1..n, bit-coded.

The code packs the upper triangle of the adjacency matrix into one
integer.  Bit significance is column-major: the pair (i, j), i < j,
outranks (i', j') iff j > j', or j = j' and i > i'.  So column n holds
the most significant bits, and within a column the row nearest the
diagonal ranks highest.  Pair positions do not depend on n, which lets
codes of different sizes share the same layout for their common pairs.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator

MAX_VERTICES = 12  # codes stay within a 66-bit budget


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(i: int, j: int) -> int:
    """Bit position of the unordered pair (i, j), 1 <= i < j."""
    return (j - 1) * (j - 2) // 2 + (i - 1)


def iter_pairs(n: int) -> Iterator[tuple[int, int]]:
    """All pairs (i, j), i < j <= n, in ascending bit-position order."""
    for j in range(2, n + 1):
        for i in range(1, j):
            yield (i, j)


_PAIRS = list(iter_pairs(MAX_VERTICES))  # indexed by bit position, the same for every n


class Graph(namedtuple("Graph", "n code")):
    """Undirected graph as (vertex count, adjacency bit code), equal and hashed as that pair."""

    __slots__ = ()

    def __new__(cls, n: int, code: int) -> Graph:
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        if not 0 <= code < 1 << pair_count(n):
            raise ValueError(f"code {code:#x} out of range for n={n}")
        return tuple.__new__(cls, (n, code))

    @property
    def edge_count(self) -> int:
        return self.code.bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Edge list in ascending bit-position order."""
        out = []
        c = self.code
        while c:
            low = c & -c
            out.append(_PAIRS[low.bit_length() - 1])
            c ^= low
        return out


def complement(g: Graph) -> Graph:
    return Graph(g.n, ((1 << pair_count(g.n)) - 1) ^ g.code)


def adjacency_masks(g: Graph) -> list[int]:
    """Per-vertex neighbor bitmask, bit v-1 set iff v adjacent; index by vertex - 1."""
    masks = [0] * g.n
    c = g.code
    while c:
        low = c & -c
        i, j = _PAIRS[low.bit_length() - 1]
        masks[i - 1] |= 1 << (j - 1)
        masks[j - 1] |= 1 << (i - 1)
        c ^= low
    return masks
