import itertools

import pytest

from mecensus.graphs import Graph, complete_graph, encode
from mecensus.markov import (
    class_code,
    classify_skeleton,
    find_v_configurations,
    max_vconfig_prediction,
)
from mecensus.orderly import canonicalize, generate_all
from mecensus.orientations import enumerate_acyclic_orientations


def path_graph(n: int) -> Graph:
    return encode({(v, v + 1) for v in range(1, n)}, n)


def star_graph(leaves: int) -> Graph:
    return encode({(1, v) for v in range(2, leaves + 2)}, leaves + 1)


def complete_bipartite(a: int, b: int) -> Graph:
    return encode({(i, j) for i in range(1, a + 1) for j in range(a + 1, a + b + 1)}, a + b)


def immorality_set(o) -> frozenset:
    # independent route: read parents off the arc list
    arcs = o.directed_edges()
    n = o.skeleton.n
    parents = {v: [] for v in range(1, n + 1)}
    for u, v in arcs:
        parents[v].append(u)
    out = set()
    for b in range(1, n + 1):
        for a, c in itertools.combinations(sorted(parents[b]), 2):
            if not o.skeleton.has_edge(a, c):
                out.add((a, b, c))
    return frozenset(out)


def test_v_configurations_path_and_triangle():
    assert find_v_configurations(Graph(3, 6)) == [(1, 3, 2)]  # center is vertex 3
    assert find_v_configurations(complete_graph(3)) == []


def test_v_configurations_star():
    assert len(find_v_configurations(star_graph(3))) == 3


def test_v_configuration_order_and_bound():
    for n in (4, 5, 6):
        for layer in generate_all(n):
            for g in layer.graphs:
                vcs = find_v_configurations(g)
                assert len(vcs) <= n * (n - 1) * (n - 2) // 6
                assert vcs == sorted(vcs, key=lambda t: (t[1], t[0], t[2]))
                for a, b, c in vcs:
                    assert a < c
                    assert g.has_edge(a, b) and g.has_edge(b, c)
                    assert not g.has_edge(a, c)


def test_class_code_on_path():
    g = Graph(3, 6)  # edges (1,3),(2,3); the only v-configuration centers on 3
    vcs = find_v_configurations(g)
    codes = {}
    for o in enumerate_acyclic_orientations(g):
        codes[tuple(sorted(o.directed_edges()))] = class_code(o, vcs)
    assert codes[((1, 3), (2, 3))] == 1  # both arrows into the center
    assert codes[((1, 3), (3, 2))] == 0
    assert codes[((3, 1), (3, 2))] == 0


def test_class_code_zero_on_complete_graph():
    g = complete_graph(3)
    vcs = find_v_configurations(g)
    for o in enumerate_acyclic_orientations(g):
        assert class_code(o, vcs) == 0


def test_classify_path3():
    table = classify_skeleton(Graph(3, 6))
    assert table.total_orientations == 4
    assert sorted(table.classes.values(), reverse=True) == [3, 1]
    assert table.classes[0] == 3  # the no-immorality class


def test_classify_triangle_single_class():
    table = classify_skeleton(complete_graph(3))
    assert table.classes == {0: 6}


def test_classify_star3():
    table = classify_skeleton(star_graph(3))
    assert sorted(table.classes.values(), reverse=True) == [4, 1, 1, 1, 1]


def test_classify_matches_direct_immorality_grouping():
    # Verma-Pearl keying, computed without class codes, must agree
    for n in (3, 4):
        for layer in generate_all(n):
            for g in layer.graphs:
                direct = {}
                for o in enumerate_acyclic_orientations(g):
                    key = immorality_set(o)
                    direct[key] = direct.get(key, 0) + 1
                table = classify_skeleton(g)
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
                for o in enumerate_acyclic_orientations(g):
                    c = class_code(o, vcs)
                    s = immorality_set(o)
                    code_to_sets.setdefault(c, set()).add(s)
                    set_to_codes.setdefault(s, set()).add(c)
                assert all(len(v) == 1 for v in code_to_sets.values())
                assert all(len(v) == 1 for v in set_to_codes.values())


def test_class_sizes_sum_to_orientation_count():
    for n in (3, 4, 5):
        for layer in generate_all(n):
            for g in layer.graphs:
                table = classify_skeleton(g)
                assert sum(table.classes.values()) == table.total_orientations
                assert all(s >= 1 for s in table.classes.values())


def streamed_classes(g: Graph) -> dict[int, int]:
    # reference tally: the public orientation stream keyed by class_code
    vcs = find_v_configurations(g)
    counts = {}
    for o in enumerate_acyclic_orientations(g):
        c = class_code(o, vcs)
        counts[c] = counts.get(c, 0) + 1
    return dict(sorted(counts.items()))


def test_classify_matches_streaming_reference():
    for n in range(1, 7):  # includes every edgeless graph
        for layer in generate_all(n):
            for g in layer.graphs:
                table = classify_skeleton(g)
                stream = streamed_classes(g)
                assert table.classes == stream
                assert list(table.classes) == list(stream)  # codes ascending
                assert table.total_orientations == sum(stream.values())


def test_path_no_immorality_class_has_size_n():
    for n in range(3, 8):
        table = classify_skeleton(canonicalize(path_graph(n)))
        assert table.classes[0] == n


def test_max_vconfig_prediction_values():
    assert max_vconfig_prediction(3) == 1
    assert max_vconfig_prediction(5) == 9
    assert max_vconfig_prediction(10) == 100
    want = {1: 0, 2: 0, 3: 1, 4: 4, 5: 9, 6: 18, 7: 30, 8: 48, 9: 70, 10: 100}
    assert {n: max_vconfig_prediction(n) for n in want} == want
    with pytest.raises(ValueError):
        max_vconfig_prediction(0)


def test_wide_code_uses_high_word():
    # two adjacent hubs sharing ten leaves: 90 v-configurations, so class
    # codes reach past bit 63; orientation total has the closed form 2*3^10
    hubs = {(1, 2)}
    fans = {(1, x) for x in range(3, 13)} | {(2, x) for x in range(3, 13)}
    g = encode(hubs | fans, 12)
    vcs = find_v_configurations(g)
    assert len(vcs) == 90
    table = classify_skeleton(g)
    assert table.total_orientations == 2 * 3 ** 10
    assert sum(table.classes.values()) == table.total_orientations
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
        assert best == max_vconfig_prediction(n)
        bal = canonicalize(complete_bipartite(n // 2, (n + 1) // 2))
        assert bal.code in argmax
