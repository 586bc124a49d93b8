import itertools
from math import factorial

from mecensus.graphs import Graph, complete_graph, empty_graph, encode
from mecensus.oracles import chromatic_polynomial_at, enumerate_acyclic_orientations
from mecensus.orderly import generate_all


def has_directed_cycle(n: int, arcs: list[tuple[int, int]]) -> bool:
    # Kahn peeling, written against the arc list only
    indeg = {v: 0 for v in range(1, n + 1)}
    out = {v: [] for v in range(1, n + 1)}
    for u, v in arcs:
        indeg[v] += 1
        out[u].append(v)
    stack = [v for v in indeg if indeg[v] == 0]
    seen = 0
    while stack:
        v = stack.pop()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    return seen != n


def arcs_of(parents: tuple[int, ...]) -> list[tuple[int, int]]:
    # every (u, v) with bit u-1 set in the mask of v
    n = len(parents)
    return [(u, v) for v in range(1, n + 1) for u in range(1, n + 1)
            if parents[v - 1] >> (u - 1) & 1]


def test_path_has_four_orientations():
    assert sum(1 for _ in enumerate_acyclic_orientations(Graph(3, 6))) == 4


def test_triangle_drops_the_two_cycles():
    g = complete_graph(3)
    got = list(enumerate_acyclic_orientations(g))
    assert len(got) == 6
    # brute force over all 8 assignments agrees
    edges = g.edges()
    acyclic = 0
    for bits in itertools.product((0, 1), repeat=3):
        arcs = [(i, j) if b else (j, i) for (i, j), b in zip(edges, bits)]
        if not has_directed_cycle(3, arcs):
            acyclic += 1
    assert acyclic == 6


def test_complete_graphs_count_linear_orders():
    for n in (3, 4, 5):
        assert sum(1 for _ in enumerate_acyclic_orientations(complete_graph(n))) == factorial(n)


def test_empty_graph_single_orientation():
    for n in (1, 3, 6):
        assert sum(1 for _ in enumerate_acyclic_orientations(empty_graph(n))) == 1


def test_four_cycle():
    c4 = encode({(1, 2), (2, 3), (3, 4), (1, 4)}, 4)
    assert sum(1 for _ in enumerate_acyclic_orientations(c4)) == 14


def test_streams_are_acyclic_unique_and_deterministic():
    for n in (3, 4, 5):
        for layer in generate_all(n):
            for g in layer.graphs:
                first = list(enumerate_acyclic_orientations(g))
                second = list(enumerate_acyclic_orientations(g))
                assert first == second
                assert len(set(first)) == len(first)
                for parents in first:
                    assert not has_directed_cycle(n, arcs_of(parents))


def test_streams_orient_each_edge_once():
    # one parent mask per vertex; the arcs, read undirected, are the edges
    for n in range(1, 6):
        for layer in generate_all(n):
            for g in layer.graphs:
                for parents in enumerate_acyclic_orientations(g):
                    assert len(parents) == n
                    undirected = sorted(tuple(sorted(a)) for a in arcs_of(parents))
                    assert undirected == sorted(g.edges())


def test_counts_match_chromatic_polynomial():
    for n in (3, 4, 5):
        for layer in generate_all(n):
            for g in layer.graphs:
                want = abs(chromatic_polynomial_at(g, -1))
                assert sum(1 for _ in enumerate_acyclic_orientations(g)) == want
