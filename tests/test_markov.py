import hashlib
import itertools
import os
from collections import Counter

import pytest

from helpers import class_codes, edges, encode, enumerate_acyclic_orientations
from mecensus.graphs import Graph, adjacency_masks, complement
from mecensus.markov import classify_skeleton, find_v_configurations
from mecensus.oracles import acyclic_orientation_count
from mecensus.orderly import canonical_search, generate_all
from mecensus.reference import KNOWN_MAX_VCONFIGS


def path_graph(n: int) -> Graph:
    return encode({(v, v + 1) for v in range(1, n)}, n)


def star_graph(leaves: int) -> Graph:
    return encode({(1, v) for v in range(2, leaves + 2)}, leaves + 1)


def complete_bipartite(a: int, b: int) -> Graph:
    return encode({(i, j) for i in range(1, a + 1) for j in range(a + 1, a + b + 1)}, a + b)


def immorality_set(g: Graph, parents: tuple[int, ...]) -> frozenset:
    # independent route: pairs of parents that the edge list leaves unjoined
    joined = set(edges(g))
    out = set()
    for b in range(1, g.n + 1):
        ps = [u for u in range(1, g.n + 1) if parents[b - 1] >> (u - 1) & 1]
        for a, c in itertools.combinations(ps, 2):
            if (a, c) not in joined:
                out.add((a, b, c))
    return frozenset(out)


def test_v_configurations_path_and_triangle():
    assert find_v_configurations(Graph(3, 6)) == [(1, 3, 2)]  # center is vertex 3
    assert find_v_configurations(complement(Graph(3, 0))) == []


def test_v_configurations_star():
    assert len(find_v_configurations(star_graph(3))) == 3


def test_v_configuration_order_and_bound():
    for n in (4, 5, 6):
        for layer in generate_all(n):
            for g in layer.graphs:
                vcs = find_v_configurations(g)
                joined = set(edges(g))
                assert len(vcs) <= n * (n - 1) * (n - 2) // 6
                assert vcs == sorted(vcs, key=lambda t: (t[1], t[0], t[2]))
                for a, b, c in vcs:
                    assert a < c
                    assert tuple(sorted((a, b))) in joined and tuple(sorted((b, c))) in joined
                    assert (a, c) not in joined


def test_class_code_on_path():
    g = Graph(3, 6)  # edges (1,3),(2,3); the only v-configuration centers on 3
    vcs = find_v_configurations(g)
    orientations = enumerate_acyclic_orientations(g)
    codes = dict(zip(orientations, class_codes(orientations, vcs)))
    assert len(codes) == 4
    assert codes[(0, 0, 0b011)] == 1  # 1->3<-2: both arrows into the center
    assert codes[(0, 0b100, 0b001)] == 0  # 1->3->2
    assert codes[(0b100, 0b100, 0)] == 0  # 1<-3->2


def test_class_code_zero_on_complete_graph():
    g = complement(Graph(3, 0))
    vcs = find_v_configurations(g)
    assert class_codes(enumerate_acyclic_orientations(g), vcs) == [0] * 6


def test_classify_path3():
    g = Graph(3, 6)
    table = classify_skeleton(g, find_v_configurations(g))
    assert table.total_orientations == 4
    assert sorted(table.classes.values(), reverse=True) == [3, 1]
    assert table.classes[0] == 3  # the no-immorality class


def test_classify_triangle_single_class():
    g = complement(Graph(3, 0))
    table = classify_skeleton(g, find_v_configurations(g))
    assert table.classes == {0: 6}


def test_classify_star3():
    g = star_graph(3)
    table = classify_skeleton(g, find_v_configurations(g))
    assert sorted(table.classes.values(), reverse=True) == [4, 1, 1, 1, 1]


def test_classify_matches_direct_immorality_grouping():
    # Verma-Pearl keying, computed without class codes, must agree
    for n in (3, 4):
        for layer in generate_all(n):
            for g in layer.graphs:
                direct = {}
                for parents in enumerate_acyclic_orientations(g):
                    key = immorality_set(g, parents)
                    direct[key] = direct.get(key, 0) + 1
                table = classify_skeleton(g, find_v_configurations(g))
                assert sorted(direct.values()) == sorted(table.classes.values())
                assert len(direct) == len(table.classes)


def test_codes_and_immorality_sets_partition_identically():
    # equal codes iff equal immorality sets, orientation by orientation
    for n in (3, 4):
        for layer in generate_all(n):
            for g in layer.graphs:
                vcs = find_v_configurations(g)
                code_to_sets = {}
                set_to_codes = {}
                orientations = enumerate_acyclic_orientations(g)
                for parents, c in zip(orientations, class_codes(orientations, vcs)):
                    s = immorality_set(g, parents)
                    code_to_sets.setdefault(c, set()).add(s)
                    set_to_codes.setdefault(s, set()).add(c)
                assert all(len(v) == 1 for v in code_to_sets.values())
                assert all(len(v) == 1 for v in set_to_codes.values())


def streamed_classes(g: Graph) -> dict[int, int]:
    # reference tally: the listed orientations keyed by class_codes
    codes = class_codes(enumerate_acyclic_orientations(g), find_v_configurations(g))
    return dict(sorted(Counter(codes).items()))


def test_classify_matches_streaming_reference():
    for n in range(1, 7):  # includes every edgeless graph
        for layer in generate_all(n):
            for g in layer.graphs:
                table = classify_skeleton(g, find_v_configurations(g))
                stream = streamed_classes(g)
                assert table.classes == stream
                assert list(table.classes) == list(stream)  # codes ascending
                assert table.total_orientations == sum(stream.values())


def test_n8_class_tables_sample_is_pinned():
    # every 50th skeleton at n=8: code, classes in order, total
    digest = hashlib.sha256()
    skeletons = [g for layer in generate_all(8) for g in layer.graphs]
    for g in skeletons[::50]:
        table = classify_skeleton(g, find_v_configurations(g))
        digest.update(repr((g.code, list(table.classes.items()),
                            table.total_orientations)).encode())
    # as the recursive source-layer walk and the source-layer state pass gave
    # it, before the walk placed one vertex per step
    assert digest.hexdigest() == (
        "f7b1699d76b86f9acd11d1b52b420f82f1fd84b455a20f2c0e1eedd4a6f1a272")


def cycle_graph(n: int) -> Graph:
    return encode({(v, v + 1) for v in range(1, n)} | {(1, n)}, n)


def test_edgeless_graphs_have_one_empty_orientation():
    for n in range(1, 13):
        g = Graph(n, 0)
        table = classify_skeleton(g, find_v_configurations(g))
        assert table.classes == {0: 1}
        assert table.total_orientations == 1


def test_disconnected_graphs_match_streaming_reference():
    # isolated vertices are placed before the walk and every other lone vertex
    # caps the next one; a rest can be independent without touching the
    # vertex just placed
    cases = [
        encode({(1, 2)}, 4),  # one edge, two isolated vertices
        encode({(1, 2), (3, 4)}, 5),  # two edges and an isolated vertex
        encode({(1, 2), (2, 3), (4, 5)}, 6),  # path, edge, isolated vertex
        encode({(2, 3), (3, 4), (2, 4), (5, 6), (6, 7)}, 7),  # triangle, path, isolated
        encode({(1, 2), (1, 3), (1, 4), (6, 7), (7, 8)}, 8),  # star, path, isolated
    ]
    for g in cases:
        table = classify_skeleton(g, find_v_configurations(g))
        stream = streamed_classes(g)
        assert table.classes == stream
        assert list(table.classes) == list(stream)


def components(g: Graph) -> list[Graph]:
    # each connected component of g, its vertices relabelled 1..k in order
    pairs = edges(g)
    left = set(range(1, g.n + 1))
    out = []
    while left:
        part = {min(left)}
        grown = True
        while grown:
            grown = False
            for i, j in pairs:
                if (i in part) != (j in part):
                    part |= {i, j}
                    grown = True
        left -= part
        label = {v: k for k, v in enumerate(sorted(part), 1)}
        out.append(encode({(label[i], label[j]) for i, j in pairs if i in part}, len(part)))
    return out


def component_products_hold(n: int) -> int:
    # a class of a disjoint union picks one class per component, so its size is
    # the product of theirs; checks every disconnected skeleton on n vertices
    # and returns how many there are
    disconnected = 0
    for layer in generate_all(n):
        for g in layer.graphs:
            parts = components(g)
            if len(parts) == 1:
                continue
            disconnected += 1
            want = Counter({1: 1})
            for part in parts:
                table = classify_skeleton(part, find_v_configurations(part))
                sizes = Counter(table.counts.values())
                prod = Counter()
                for s, a in want.items():
                    for t, b in sizes.items():
                        prod[s * t] += a * b
                want = prod
            table = classify_skeleton(g, find_v_configurations(g))
            assert Counter(table.counts.values()) == want, g
    return disconnected


def test_disconnected_class_sizes_are_products_of_component_sizes():
    assert [component_products_hold(n) for n in range(2, 8)] == [1, 2, 5, 13, 44, 191]


@pytest.mark.extended
@pytest.mark.skipif(not os.environ.get("MECENSUS_EXTENDED"),
                    reason="set MECENSUS_EXTENDED=1 for the n=8 sweeps")
def test_extended_n8_component_products_and_orientation_counts():
    assert component_products_hold(8) == 1229
    for layer in generate_all(8):
        for g in layer.graphs:
            table = classify_skeleton(g, find_v_configurations(g))
            assert acyclic_orientation_count(g) == table.total_orientations, g


def test_stranded_vertices_and_two_vertex_tails_match_streaming_reference():
    # a step strands a vertex whose neighbours are all placed while an edge
    # is still left, which caps the next vertex, and many walks reach a
    # state whose rest is a single edge, stepped through like any other.
    # Pendants and ears are placed before the walk and folded back in: one
    # end of each isolated edge, many pendants at one centre, several ears
    # (so several tag bits) on one edge, ears that share a vertex or whose
    # neighbour also has pendants, and a pendant one step off a triangle;
    # 5-12 vertices
    matching = encode({(2 * i - 1, 2 * i) for i in range(1, 7)}, 12)
    cases = [
        star_graph(9),  # K_{1,9}
        encode({(1, 2), (2, 3), (3, 4), (1, 5), (2, 6), (2, 7), (3, 8), (4, 9), (4, 10)},
               10),  # caterpillar
        matching,
        encode({(1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9)}, 9),  # three P3s
        encode({(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7), (1, 8), (8, 9)}, 9),  # spider
        encode({(1, 2)} | {(u, v) for v in range(3, 8) for u in (1, 2)}, 7),  # book: ears 3..7
        encode({(1, v) for v in range(2, 10)} | {(v, v + 1) for v in range(2, 9)},
               9),  # triangle fan
        encode({(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5), (1, 6), (1, 7), (6, 7)},
               7),  # windmill: one ear per triangle
        encode({(1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 6)}, 6),  # ear, pendants on x, y
        encode({(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)}, 5),  # two-edge path off a triangle
    ]
    for g in cases:
        table = classify_skeleton(g, find_v_configurations(g))
        stream = streamed_classes(g)
        assert table.classes == stream
        assert list(table.classes) == list(stream)
        assert table.total_orientations == sum(stream.values())
    assert classify_skeleton(matching, find_v_configurations(matching)).classes == {0: 2 ** 6}


def test_complete_bipartite_matches_streaming_reference():
    for a, b in ((3, 3), (2, 5)):
        g = complete_bipartite(a, b)
        table = classify_skeleton(g, find_v_configurations(g))
        assert table.classes == streamed_classes(g)


def test_twelve_layer_path_and_cycle():
    # 12 vertices placed one per step, on a path and on a cycle
    for g, total in ((path_graph(12), 2 ** 11), (cycle_graph(12), 2 ** 12 - 2)):
        table = classify_skeleton(g, find_v_configurations(g))
        assert table.total_orientations == total
        assert table.classes == streamed_classes(g)


def test_path_no_immorality_class_has_size_n():
    for n in range(3, 8):
        g = Graph(n, canonical_search(n, adjacency_masks(path_graph(n)))[0])
        table = classify_skeleton(g, find_v_configurations(g))
        assert table.classes[0] == n


def test_max_vconfig_prediction_values():
    # the published maxima follow the paper's closed form (n-2) * floor(n/2) * ceil(n/2) / 2
    closed = {n: (n - 2) * (n // 2) * ((n + 1) // 2) // 2 for n in range(1, 11)}
    assert KNOWN_MAX_VCONFIGS == closed


def test_wide_code_uses_high_word():
    # two adjacent hubs sharing nine leaves: 72 v-configurations, so class
    # codes reach past bit 63; orientation total has the closed form 2*3^9
    hubs = {(1, 2)}
    fans = {(1, x) for x in range(3, 12)} | {(2, x) for x in range(3, 12)}
    g = encode(hubs | fans, 11)
    vcs = find_v_configurations(g)
    assert len(vcs) == 72
    table = classify_skeleton(g, vcs)
    assert table.total_orientations == 2 * 3 ** 9
    assert max(table.classes) >> 64 != 0  # immoralities centered on hub 2
    assert table.classes == streamed_classes(g)


def test_vconfig_maximum_attained_on_balanced_bipartite():
    for n in (4, 5, 6):
        best = 0
        argmax = []
        for layer in generate_all(n):
            for g in layer.graphs:
                k = len(find_v_configurations(g))
                if k > best:
                    best, argmax = k, [g.code]
                elif k == best:
                    argmax.append(g.code)
        assert best == KNOWN_MAX_VCONFIGS[n]
        bal = complete_bipartite(n // 2, (n + 1) // 2)
        assert canonical_search(n, adjacency_masks(bal))[0] in argmax
