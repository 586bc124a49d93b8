"""Automorphism group order and distinct-labelling counts.

The group order comes from orderly.canonical_search: it fixes the maximal
code column by column and counts the labellings that reach it, which are
exactly |Aut| many.  The labelled-copy count is n! divided by the group
order, which always divides exactly.
"""

from __future__ import annotations

from math import factorial

from .graphs import Graph, adjacency_masks
from .orderly import canonical_search


def automorphism_group_size(g: Graph) -> int:
    """Number of relabellings that reproduce g exactly."""
    return canonical_search(g.n, adjacency_masks(g))[1]


def labelling_count(g: Graph, aut: int | None = None) -> int:
    """Distinct labeled copies of g: n! / |Aut(g)|.

    aut is |Aut(g)| when the caller already has it (generate_all hands it
    out with every graph); otherwise it is searched.
    """
    if aut is None:
        aut = automorphism_group_size(g)
    nf = factorial(g.n)
    q, r = divmod(nf, aut)
    if r:
        raise RuntimeError(f"|Aut| = {aut} does not divide {g.n}! (code {g.code:#x})")
    return q
