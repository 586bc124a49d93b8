import itertools
import os
from math import factorial

import pytest

from helpers import covered_reversal_classes, edges, encode, enumerate_acyclic_orientations
from mecensus.census import iter_skeletons, robinson_adgs_by_edges
from mecensus.graphs import Graph, complement, pair_count
from mecensus.markov import classify_skeleton, find_v_configurations
from mecensus.oracles import (
    acyclic_orientation_count,
    brute_force_census,
    brute_force_unlabeled,
)
from mecensus.orderly import generate_all


def test_brute_force_census_known_totals():
    for n, dags, classes in ((2, 3, 2), (3, 25, 11), (4, 543, 185)):
        table = brute_force_census(n)
        assert sum(size * c for (_, size), c in table.items()) == dags
        assert sum(table.values()) == classes


def test_brute_force_census_rejects_large_n():
    with pytest.raises(ValueError):
        brute_force_census(6)


def test_brute_force_census_sizes_sum_to_dags():
    # class sizes summed per arc count: the recurrence's labelled DAGs per edge count
    for n in (1, 2, 3, 4):
        adgs = [0] * (pair_count(n) + 1)
        for (e, size), c in brute_force_census(n).items():
            adgs[e] += size * c
        assert adgs == robinson_adgs_by_edges(n)


def test_brute_force_unlabeled_counts():
    for n, want in [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)]:
        assert len(brute_force_unlabeled(n)) == want
    with pytest.raises(ValueError):
        brute_force_unlabeled(7)


def test_brute_force_unlabeled_codes_are_reachable():
    # every returned code is the maximum over its own orbit
    codes = set(brute_force_unlabeled(4))
    assert all(0 <= c < 64 for c in codes)
    assert 63 in codes and 0 in codes


def test_acyclic_orientation_count_examples():
    assert acyclic_orientation_count(Graph(5, 0)) == 1
    c4 = encode({(1, 2), (2, 3), (3, 4), (1, 4)}, 4)
    assert acyclic_orientation_count(c4) == 14
    for n in (1, 2, 3, 4, 5):
        # an acyclic orientation of K_n is a linear order of its vertices
        assert acyclic_orientation_count(complement(Graph(n, 0))) == factorial(n)
    path = encode({(v, v + 1) for v in range(1, 8)}, 8)
    assert acyclic_orientation_count(path) == 2 ** 7


def test_acyclic_orientation_count_matches_kernel_totals_up_to_n7():
    # per skeleton, against the orientation kernel's tally
    for n in range(1, 8):
        for rec in iter_skeletons(n):
            g = rec.graph
            table = classify_skeleton(g, find_v_configurations(g))
            assert acyclic_orientation_count(g) == table.total_orientations, g


def test_covered_reversal_classes_match_the_kernel_up_to_n6():
    # Chickering's covered-arc components, not immoralities, split the orientations
    for n in range(1, 7):
        for rec in iter_skeletons(n):
            g = rec.graph
            vcs = find_v_configurations(g)
            got = covered_reversal_classes(enumerate_acyclic_orientations(g), vcs)
            assert got == classify_skeleton(g, vcs).classes, g


def test_covered_reversal_classes_reject_split_and_shared_codes():
    path = encode({(1, 2), (2, 3)}, 3)
    orientations = enumerate_acyclic_orientations(path)
    assert covered_reversal_classes(orientations, [(1, 2, 3)]) == {0: 3, 1: 1}
    with pytest.raises(ValueError, match="two components carry class code 0"):
        covered_reversal_classes(orientations, [])
    # on a triangle every arc can be reversed, so a spurious site splits its one class
    with pytest.raises(ValueError, match="one component carries class codes"):
        covered_reversal_classes(enumerate_acyclic_orientations(complement(Graph(3, 0))),
                                 [(1, 2, 3)])


@pytest.mark.parametrize("n, dags, classes", [
    (3, 25, 11),
    (4, 543, 185),
    pytest.param(5, 29281, 8782, marks=[
        pytest.mark.extended,
        pytest.mark.skipif(not os.environ.get("MECENSUS_EXTENDED"),
                           reason="set MECENSUS_EXTENDED=1 for the n=5 d-separation run")]),
])
def test_skeleton_and_immoralities_partition_dags_as_d_separation_does(n, dags, classes):
    # Verma & Pearl's criterion against the definition of Markov equivalence:
    # the same d-separation statements, read by networkx
    nx = pytest.importorskip("networkx")
    nodes = range(1, n + 1)
    pairs = list(itertools.combinations(nodes, 2))
    keys = []  # per labelled DAG: (its d-separations, (skeleton, immoralities))
    for arcs in itertools.product((None, False, True), repeat=len(pairs)):
        g = nx.DiGraph()
        g.add_nodes_from(nodes)
        g.add_edges_from((j, i) if flip else (i, j)
                         for (i, j), flip in zip(pairs, arcs) if flip is not None)
        if not nx.is_directed_acyclic_graph(g):
            continue
        seps = frozenset((x, y, z) for x, y in pairs for k in range(n - 1)
                         for z in itertools.combinations([v for v in nodes if v not in (x, y)], k)
                         if nx.is_d_separator(g, {x}, {y}, set(z)))
        skeleton = frozenset(p for p, a in zip(pairs, arcs) if a is not None)
        immoralities = frozenset((a, b, c) for b in nodes
                                 for a, c in itertools.combinations(sorted(g.predecessors(b)), 2)
                                 if (a, c) not in skeleton)
        keys.append((seps, (skeleton, immoralities)))
    assert len(keys) == dags
    # equal partitions: each key determines the other
    assert len({s for s, _ in keys}) == len({t for _, t in keys}) == len(set(keys)) == classes


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
    g = complement(Graph(3, 0))
    got = list(enumerate_acyclic_orientations(g))
    assert len(got) == 6
    # brute force over all 8 assignments agrees
    pairs = edges(g)
    acyclic = 0
    for bits in itertools.product((0, 1), repeat=3):
        arcs = [(i, j) if b else (j, i) for (i, j), b in zip(pairs, bits)]
        if not has_directed_cycle(3, arcs):
            acyclic += 1
    assert acyclic == 6


def test_complete_graphs_count_linear_orders():
    for n in (3, 4, 5):
        assert sum(1 for _ in enumerate_acyclic_orientations(complement(Graph(n, 0)))) == factorial(n)


def test_empty_graph_single_orientation():
    for n in (1, 3, 6):
        assert sum(1 for _ in enumerate_acyclic_orientations(Graph(n, 0))) == 1


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
                    assert undirected == sorted(edges(g))


def test_enumerated_orientations_match_the_source_set_count():
    for n in (3, 4, 5):
        for layer in generate_all(n):
            for g in layer.graphs:
                want = acyclic_orientation_count(g)
                assert sum(1 for _ in enumerate_acyclic_orientations(g)) == want
