import itertools
from math import comb, factorial

import pytest

from mecensus import orderly
from mecensus.graphs import Graph, apply_permutation, complement, complete_graph, encode, pair_count
from mecensus.orderly import automorphism_group_size, canonicalize, generate_all


def brute_aut(g: Graph) -> int:
    return sum(1 for p in itertools.permutations(range(1, g.n + 1))
               if apply_permutation(g, p) == g)


def test_complete_graph_full_symmetry():
    for n in range(1, 7):
        assert automorphism_group_size(complete_graph(n)) == factorial(n)
        *_, top = generate_all(n)
        assert top.graphs == [complete_graph(n)]
        assert top.labellings == [1]


def test_symmetric_graphs_at_twelve_vertices():
    # labellings that leave the same cells merge, so n! labellings of K_12
    # cost a few thousand states, not 12!
    n = 12
    matching = encode({(v, v + 1) for v in range(1, n, 2)}, n)
    cycle = encode({(v, v + 1) for v in range(1, n)} | {(1, n)}, n)
    assert automorphism_group_size(complete_graph(n)) == factorial(n)
    assert automorphism_group_size(Graph(n, 0)) == factorial(n)
    assert automorphism_group_size(matching) == 2 ** 6 * factorial(6)
    assert automorphism_group_size(cycle) == 2 * n


def test_path_swaps_leaves():
    assert automorphism_group_size(Graph(3, 6)) == 2
    layer = list(generate_all(3))[2]
    assert layer.graphs == [Graph(3, 6)]
    assert layer.labellings == [3]


def test_edge_plus_isolated_pair():
    g = encode({(3, 4)}, 4)
    assert brute_aut(g) == 4  # computed over all 24 permutations
    assert automorphism_group_size(g) == 4


def test_matches_brute_force_on_canonical_graphs():
    for n in (3, 4, 5):
        for layer in generate_all(n):
            for g in layer.graphs:
                assert automorphism_group_size(g) == brute_aut(g)


def test_group_order_divides_factorial():
    import random
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(2, 6)
        g = Graph(n, rng.getrandbits(pair_count(n)))
        assert factorial(n) % automorphism_group_size(g) == 0


def test_layer_labelling_sums_count_all_labeled_graphs():
    for n in range(2, 7):
        m = pair_count(n)
        for layer in generate_all(n):
            assert sum(layer.labellings) == comb(m, layer.edge_count)
            assert layer.labellings == [factorial(n) // automorphism_group_size(g)
                                        for g in layer.graphs]


def test_labellings_equal_for_complement():
    for n in (4, 5, 6):
        for layer in generate_all(n):
            for g in layer.graphs:
                assert automorphism_group_size(g) == \
                    automorphism_group_size(canonicalize(complement(g)))


def test_generate_all_rejects_non_divisor(monkeypatch):
    # 7 does not divide 4! = 24; the check must survive python -O
    real = orderly.canonical_search
    monkeypatch.setattr(orderly, "canonical_search",
                        lambda n, adj, target=-1: (real(n, adj, target)[0], 7))
    with pytest.raises(RuntimeError, match="does not divide"):
        list(generate_all(4))
