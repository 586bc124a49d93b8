"""Property tests for the canonical search, against permutation brute force,
and for the orientation kernel, against the streaming enumerator.

Examples are derandomized and no example database is kept, so every run
checks the same graphs.
"""

import itertools
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from mecensus.automorphisms import automorphism_group_size
from mecensus.graphs import Graph, apply_permutation, pair_count
from mecensus.markov import classify_skeleton
from mecensus.oracles import is_canonical_exhaustive
from mecensus.orderly import canonicalize, is_canonical
from test_markov import streamed_classes

PROPERTY = settings(deadline=None, derandomize=True, database=None)


@st.composite
def graphs(draw, max_n):
    n = draw(st.integers(1, max_n))
    return Graph(n, draw(st.integers(0, (1 << pair_count(n)) - 1)))


@st.composite
def relabelled(draw, max_n):
    g = draw(graphs(max_n))
    return g, draw(st.permutations(range(1, g.n + 1)))


@PROPERTY
@given(relabelled(max_n=10))
def test_canonicalize_ignores_relabelling(case):
    g, perm = case
    canon = canonicalize(g)
    assert canonicalize(apply_permutation(g, perm)) == canon
    assert canon.code >= g.code and canon.edge_count == g.edge_count


@settings(PROPERTY, max_examples=25)
@given(graphs(max_n=7))
def test_group_size_and_code_match_brute_force(g):
    codes = [apply_permutation(g, p).code
             for p in itertools.permutations(range(1, g.n + 1))]
    assert automorphism_group_size(g) == codes.count(g.code)
    assert canonicalize(g).code == max(codes)
    assert factorial(g.n) % automorphism_group_size(g) == 0


@PROPERTY
@given(graphs(max_n=6), st.booleans())
def test_is_canonical_matches_exhaustive(g, canonical_first):
    # random codes are rarely canonical, so half the draws canonicalize first
    if canonical_first:
        g = canonicalize(g)
    assert is_canonical(g) == is_canonical_exhaustive(g)


@settings(PROPERTY, max_examples=100)
@given(graphs(max_n=7))
def test_classify_matches_streaming_on_labelled_graphs(g):
    # random labellings, not the canonical ones the catalogs hold
    table = classify_skeleton(g)
    stream = streamed_classes(g)
    assert table.classes == stream
    assert list(table.classes) == list(stream)
    assert table.total_orientations == sum(stream.values())
