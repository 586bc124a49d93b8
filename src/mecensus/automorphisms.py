"""Automorphism group order and distinct-labelling counts.

Degree is preserved by every automorphism, so only permutations acting
within the degree classes are tried; each candidate is checked by direct
adjacency comparison.  The labelled-copy count is n! divided by the group
order, which always divides exactly.
"""

from __future__ import annotations

import itertools
from math import factorial

from .graphs import Graph, adjacency_masks


def automorphism_group_size(g: Graph) -> int:
    """Number of relabellings that reproduce g exactly."""
    n = g.n
    adj = adjacency_masks(g)
    deg = [m.bit_count() for m in adj]
    blocks: dict[int, list[int]] = {}
    for v in range(n):
        blocks.setdefault(deg[v], []).append(v)
    block_list = list(blocks.values())

    count = 0
    perm = [0] * n
    for images in itertools.product(*(itertools.permutations(b) for b in block_list)):
        for src_block, img_block in zip(block_list, images):
            for s, t in zip(src_block, img_block):
                perm[s] = t
        if _fixes(adj, perm, n):
            count += 1
    return count


def _fixes(adj: list[int], perm: list[int], n: int) -> bool:
    for v in range(n):
        img = 0
        av = adj[v]
        w = 0
        while av:
            if av & 1:
                img |= 1 << perm[w]
            av >>= 1
            w += 1
        if img != adj[perm[v]]:
            return False
    return True


def labelling_count(g: Graph) -> int:
    """Distinct labeled copies of g: n! / |Aut(g)|."""
    aut = automorphism_group_size(g)
    nf = factorial(g.n)
    q, r = divmod(nf, aut)
    if r:
        raise RuntimeError(f"|Aut| = {aut} does not divide {g.n}! (code {g.code:#x})")
    return q
