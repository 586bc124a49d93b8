"""Property tests for the canonical search, against permutation brute force,
for the orientation kernel, against the orientation enumerator and under
relabelling, and for report merging, against a census of the whole.

Examples are derandomized and no example database is kept, so every run
checks the same graphs.
"""

from collections import Counter
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import apply_permutation, brute_force_search
from mecensus.census import census_skeletons, iter_skeletons, merge
from mecensus.graphs import Graph, adjacency_masks, pair_count
from mecensus.markov import classify_skeleton, find_v_configurations
from mecensus.orderly import canonical_search
from test_markov import streamed_classes

PROPERTY = settings(deadline=None, derandomize=True, database=None)

SKELETONS_N5 = list(iter_skeletons(5))  # all 34
CENSUS_N5 = census_skeletons(5, SKELETONS_N5)


@st.composite
def graphs(draw, max_n):
    n = draw(st.integers(1, max_n))
    return Graph(n, draw(st.integers(0, (1 << pair_count(n)) - 1)))


@st.composite
def relabelled(draw, max_n):
    g = draw(graphs(max_n))
    return g, draw(st.permutations(range(1, g.n + 1)))


@st.composite
def relabelled_coin_flips(draw, min_n, max_n):
    # each pair an edge by its own coin flip: random codes above are mostly
    # sparse, and the kernel's work peaks near half the pairs
    n = draw(st.integers(min_n, max_n))
    flips = draw(st.lists(st.booleans(), min_size=pair_count(n), max_size=pair_count(n)))
    g = Graph(n, sum(1 << i for i, edge in enumerate(flips) if edge))
    return g, draw(st.permutations(range(1, n + 1)))


@PROPERTY
@given(relabelled(max_n=10))
def test_canonicalize_ignores_relabelling(case):
    g, perm = case
    best, aut = canonical_search(g.n, adjacency_masks(g))
    assert canonical_search(g.n, adjacency_masks(apply_permutation(g, perm))) == (best, aut)
    assert best >= g.code and best.bit_count() == g.edge_count


@settings(PROPERTY, max_examples=25)
@given(graphs(max_n=7))
def test_group_size_and_code_match_brute_force(g):
    best, aut = canonical_search(g.n, adjacency_masks(g))
    assert (best, aut) == brute_force_search(g)
    assert factorial(g.n) % aut == 0


@PROPERTY
@given(graphs(max_n=6), st.booleans())
def test_is_canonical_matches_exhaustive(g, canonical_first):
    # random codes are rarely canonical, so half the draws canonicalize first
    if canonical_first:
        g = Graph(g.n, canonical_search(g.n, adjacency_masks(g))[0])
    assert (canonical_search(g.n, adjacency_masks(g), g.code)[0] == g.code) == \
        (brute_force_search(g)[0] == g.code)


@settings(PROPERTY, max_examples=100)
@given(graphs(max_n=7))
def test_classify_matches_streaming_on_labelled_graphs(g):
    # random labellings, not the canonical ones the catalogs hold
    table = classify_skeleton(g, find_v_configurations(g))
    stream = streamed_classes(g)
    assert table.classes == stream
    assert list(table.classes) == list(stream)
    assert table.total_orientations == sum(stream.values())


@settings(PROPERTY, max_examples=100)
@given(relabelled_coin_flips(min_n=5, max_n=9))
def test_class_sizes_ignore_relabelling(case):
    # the walk's normal form depends on the labels; the class sizes must not,
    # and past n=7 there is no streaming reference to hold them to
    g, perm = case
    h = apply_permutation(g, perm)
    sizes = Counter(classify_skeleton(g, find_v_configurations(g)).counts.values())
    assert Counter(classify_skeleton(h, find_v_configurations(h)).counts.values()) == sizes


@PROPERTY
@given(st.data())
def test_merge_over_random_partitions_equals_the_whole(data):
    # any order within a part, any owner for each skeleton
    skeletons = data.draw(st.permutations(SKELETONS_N5))
    k = data.draw(st.integers(1, 8))
    owners = data.draw(st.lists(st.integers(0, k - 1), min_size=len(skeletons),
                                max_size=len(skeletons)))
    parts = [census_skeletons(5, [r for r, o in zip(skeletons, owners) if o == j])
             for j in range(k)]
    # merge two parts picked at random until one is left: any order, any grouping
    while len(parts) > 1:
        a = parts.pop(data.draw(st.integers(0, len(parts) - 1)))
        b = parts.pop(data.draw(st.integers(0, len(parts) - 1)))
        parts.append(merge(a, b))
    assert parts[0] == CENSUS_N5


def test_merge_unions_the_codes_of_a_tied_maximum():
    # disjoint unions of cliques have no v-configuration and one class, so
    # they tie on both maxima; dealing them out interleaves their codes
    cliques = [r for r in SKELETONS_N5 if not find_v_configurations(r.graph)]
    codes = sorted(r.graph.code for r in cliques)
    assert len(codes) > 2
    for merged in (merge(census_skeletons(5, cliques[::2]), census_skeletons(5, cliques[1::2])),
                   merge(census_skeletons(5, cliques[1::2]), census_skeletons(5, cliques[::2]))):
        assert (merged.max_vconfigs, merged.max_vconfig_codes) == (0, codes)
        assert (merged.max_classes_per_skeleton, merged.max_class_codes) == (1, codes)
