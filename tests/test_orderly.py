from collections import Counter
from math import comb, factorial

import pytest

from helpers import brute_force_search, encode
from mecensus import orderly
from mecensus.graphs import (
    Graph,
    adjacency_masks,
    complement,
    pair_count,
)
from mecensus.oracles import brute_force_unlabeled
from mecensus.orderly import augment_children, canonical_search, generate_all


def test_augment_children_examples():
    # bit positions, highest first: the children of 0 are codes 4, 2, 1, of 4 codes 6, 5
    assert list(augment_children(Graph(3, 0))) == [2, 1, 0]
    assert list(augment_children(Graph(3, 4))) == [1, 0]
    assert list(augment_children(Graph(3, 7))) == []


def test_augment_children_parent_recovery():
    for n in (4, 5):
        for code in range(1 << pair_count(n)):
            g = Graph(n, code)
            for pos in augment_children(g):
                child = Graph(n, g.code | 1 << pos)
                assert child.edge_count == g.edge_count + 1
                assert child.code & (child.code - 1) == g.code  # drop lowest set bit


def test_canonical_search_stops_at_first_differing_column():
    # 0x7206 (edges 13,23,45,36,46,56) is canonical at n=6 although vertex
    # 5 has a larger degree than the top vertex's other neighbours
    g = Graph(6, 0x7206)
    assert brute_force_search(g) == (g.code, 4)
    assert canonical_search(6, adjacency_masks(g), g.code) == (g.code, 4)
    # the edge 12 beside an isolated vertex 3: column 3 reads 00 where 10
    # is reachable, so the search stops there with |Aut| unset
    g = Graph(3, 0b001)
    assert canonical_search(3, adjacency_masks(g), g.code) == (0b100, 0)
    assert canonical_search(3, adjacency_masks(g)) == (0b100, 2)


def test_is_canonical_small_examples():
    # with a target, a non-canonical graph stops early with |Aut| = 0
    assert canonical_search(3, adjacency_masks(Graph(3, 4)), 4) == (4, 2)
    assert canonical_search(3, adjacency_masks(Graph(3, 1)), 1) == (4, 0)
    assert canonical_search(3, adjacency_masks(Graph(3, 2)), 2) == (4, 0)
    for n in range(2, 8):
        for g in (complement(Graph(n, 0)), Graph(n, 0)):
            assert canonical_search(n, adjacency_masks(g), g.code) == (g.code, factorial(n))


def test_is_canonical_matches_exhaustive_search():
    # the relabellings that keep g's code are its automorphisms
    for n in range(1, 6):
        for code in range(1 << pair_count(n)):
            g = Graph(n, code)
            best, aut = brute_force_search(g)
            masks = adjacency_masks(g)
            assert canonical_search(n, masks) == (best, aut)
            assert (canonical_search(n, masks, code) == (code, aut)) == (best == code)


def test_generate_all_layer_counts_n4():
    assert [len(layer.graphs) for layer in generate_all(4)] == [1, 1, 2, 3, 2, 1, 1]


def test_generate_all_matches_brute_force():
    for n in range(1, 7):
        ours = sorted(g.code for layer in generate_all(n) for g in layer.graphs)
        assert ours == brute_force_unlabeled(n)


def test_generate_all_n7_matches_networkx_atlas():
    # an outside source: the atlas lists every graph on up to 7 vertices
    nx = pytest.importorskip("networkx")
    atlas = [h for h in nx.graph_atlas_g() if h.number_of_nodes() == 7]
    assert len(atlas) == 1044
    theirs = sorted(canonical_search(7, adjacency_masks(encode(
        (sorted((u + 1, v + 1)) for u, v in h.edges()), 7)))[0] for h in atlas)
    ours = sorted(g.code for layer in generate_all(7) for g in layer.graphs)
    assert theirs == ours


def test_layers_strictly_descending():
    for n in (5, 6):
        for layer in generate_all(n):
            codes = [g.code for g in layer.graphs]
            assert codes == sorted(set(codes), reverse=True)
            assert all(g.edge_count == layer.edge_count for g in layer.graphs)


def test_every_generated_graph_is_canonical():
    for n in (5, 6):
        for layer in generate_all(n):
            for g, labellings in zip(layer.graphs, layer.labellings):
                assert brute_force_search(g) == (g.code, factorial(n) // labellings)


def test_orderly_unique_parent_property():
    # each canonical graph with e+1 edges must appear exactly once among
    # the canonical children of the previous layer
    for n in (4, 5, 6):
        layers = list(generate_all(n))
        for e in range(pair_count(n) // 2):
            children = [Graph(n, p.code | 1 << pos) for p in layers[e].graphs
                        for pos in augment_children(p)]
            child_multiset = Counter(c.code for c in children
                                     if canonical_search(n, adjacency_masks(c), c.code)[0] == c.code)
            assert set(child_multiset) == {g.code for g in layers[e + 1].graphs}
            assert all(v == 1 for v in child_multiset.values())


def test_targeted_searches_are_the_augmentation_candidates(monkeypatch):
    # the benchmark's orderly.accept_ratio counts as tried the sum of
    # len(augment_children(g)) over layers e < m // 2; generate_all runs one
    # search with a target per candidate, and none other
    real = orderly.canonical_search
    for n, want in ((5, 62), (6, 228), (7, 1249)):
        targets = []
        monkeypatch.setattr(orderly, "canonical_search",
                            lambda n, adj, target=-1: targets.append(target) or real(n, adj, target))
        layers = list(generate_all(n))
        tried = sum(len(augment_children(g)) for layer in layers[:pair_count(n) // 2]
                    for g in layer.graphs)
        assert sum(t >= 0 for t in targets) == tried == want


def test_complementation_consistency():
    for n in (4, 5, 6):
        layers = list(generate_all(n))
        m = pair_count(n)
        for e in range(m + 1):
            mirrored = sorted(canonical_search(n, adjacency_masks(complement(g)))[0]
                              for g in layers[m - e].graphs)
            assert mirrored == sorted(g.code for g in layers[e].graphs)


def test_complete_graph_full_symmetry():
    for n in range(1, 7):
        kn = complement(Graph(n, 0))
        assert canonical_search(n, adjacency_masks(kn)) == (kn.code, factorial(n))
        *_, top = generate_all(n)
        assert top.graphs == [kn]
        assert top.labellings == [1]


def test_symmetric_graphs_at_twelve_vertices():
    # labellings that leave the same cells merge, so n! labellings of K_12
    # cost a few thousand states, not 12!
    n = 12
    matching = encode({(v, v + 1) for v in range(1, n, 2)}, n)
    cycle = encode({(v, v + 1) for v in range(1, n)} | {(1, n)}, n)
    for g, aut in [(complement(Graph(n, 0)), factorial(n)), (Graph(n, 0), factorial(n)),
                   (matching, 2 ** 6 * factorial(6)), (cycle, 2 * n)]:
        assert canonical_search(n, adjacency_masks(g))[1] == aut


def test_path_swaps_leaves():
    assert canonical_search(3, adjacency_masks(Graph(3, 6))) == (6, 2)
    layer = list(generate_all(3))[2]
    assert layer.graphs == [Graph(3, 6)]
    assert layer.labellings == [3]


def test_edge_plus_isolated_pair():
    g = encode({(3, 4)}, 4)
    # brute force runs over all 24 permutations
    assert canonical_search(4, adjacency_masks(g)) == brute_force_search(g) == (g.code, 4)


def test_layer_labelling_sums_count_all_labeled_graphs():
    for n in range(2, 7):
        m = pair_count(n)
        for layer in generate_all(n):
            assert sum(layer.labellings) == comb(m, layer.edge_count)
            assert layer.labellings == [factorial(n) // canonical_search(n, adjacency_masks(g))[1]
                                        for g in layer.graphs]


def test_labellings_equal_for_complement():
    for n in (4, 5, 6):
        for layer in generate_all(n):
            for g in layer.graphs:
                assert canonical_search(n, adjacency_masks(g))[1] == \
                    canonical_search(n, adjacency_masks(complement(g)))[1]


def test_generate_all_rejects_non_divisor(monkeypatch):
    # 7 does not divide 4! = 24; the check must survive python -O
    real = orderly.canonical_search
    monkeypatch.setattr(orderly, "canonical_search",
                        lambda n, adj, target=-1: (real(n, adj, target)[0], 7))
    with pytest.raises(RuntimeError, match="does not divide"):
        list(generate_all(4))
