import itertools
import pickle
import random

import pytest

from helpers import apply_permutation, encode
from mecensus.graphs import (
    Graph,
    adjacency_masks,
    complement,
    iter_pairs,
    pair_count,
    pair_index,
)


def test_pair_index_covers_all_pairs_once():
    for n in range(2, 9):
        positions = [pair_index(i, j) for i, j in iter_pairs(n)]
        assert sorted(positions) == list(range(pair_count(n)))


def test_significance_order():
    # higher column outranks, then higher row within the column
    assert pair_index(1, 2) == 0
    assert pair_index(1, 3) < pair_index(2, 3) < pair_index(1, 4)
    assert pair_index(2, 3) == 2


def test_encode_examples():
    assert encode(set(), 3).code == 0
    assert encode({(1, 3), (2, 3)}, 3).code == 6
    assert encode({(1, 2), (1, 3), (2, 3)}, 3).code == 7


def test_encode_rejects_bad_pairs():
    with pytest.raises(ValueError):
        encode({(2, 2)}, 3)
    with pytest.raises(ValueError):
        encode({(0, 1)}, 3)
    with pytest.raises(ValueError):
        encode({(2, 1)}, 3)
    with pytest.raises(ValueError):
        encode({(1, 4)}, 3)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(0, 0)
    with pytest.raises(ValueError):
        Graph(13, 0)
    with pytest.raises(ValueError):
        Graph(3, 8)
    with pytest.raises(ValueError):
        Graph(3, -1)


def test_graph_is_a_value_that_pickles():
    g = Graph(3, 6)
    assert g == Graph(3, 6) and g != Graph(3, 5) and g != Graph(4, 6)
    assert hash(g) == hash(Graph(3, 6))
    assert len({g, Graph(3, 6), Graph(4, 6)}) == 2
    assert repr(g) == "Graph(n=3, code=6)"
    back = pickle.loads(pickle.dumps(g))
    assert back == g and type(back) is Graph and back.edge_count == 2
    with pytest.raises(ValueError, match=r"^vertex count 13 outside 1\.\.12$"):
        Graph(13, 0)
    with pytest.raises(ValueError, match=r"^code 0x8 out of range for n=3$"):
        Graph(3, 8)


def test_encode_edges_round_trip_exhaustive():
    for n in range(1, 7):
        for code in range(1 << pair_count(n)):
            g = Graph(n, code)
            assert encode(g.edges(), n) == g
            assert g.edge_count == len(g.edges())


def test_encode_edges_round_trip_random_larger():
    rng = random.Random(7)
    for n in (7, 8, 10, 12):
        for _ in range(200):
            code = rng.getrandbits(pair_count(n))
            g = Graph(n, code)
            assert encode(g.edges(), n).code == code


def test_edges_in_ascending_bit_position_order():
    # the orientation reference directs the edges of this list last to first
    rng = random.Random(11)
    for n in (2, 5, 9, 12):
        for _ in range(50):
            g = Graph(n, rng.getrandbits(pair_count(n)))
            want = [(i, j) for i, j in iter_pairs(n) if g.code >> pair_index(i, j) & 1]
            assert g.edges() == want
    assert complement(Graph(12, 0)).edges() == list(iter_pairs(12))


def test_complement_examples():
    assert complement(Graph(4, 0)).code == 63
    assert complement(Graph(3, 6)).code == 1  # path -> single edge (1,2)


def test_complement_involution_and_edge_sum():
    rng = random.Random(11)
    cases = [Graph(4, c) for c in range(64)]
    cases += [Graph(n, rng.getrandbits(pair_count(n))) for n in (6, 9) for _ in range(100)]
    for g in cases:
        assert complement(complement(g)) == g
        assert g.edge_count + complement(g).edge_count == pair_count(g.n)


def test_degree_sum_is_twice_edges():
    rng = random.Random(3)
    for n in (5, 8):
        for _ in range(100):
            g = Graph(n, rng.getrandbits(pair_count(n)))
            assert sum(m.bit_count() for m in adjacency_masks(g)) == 2 * g.edge_count


def test_apply_permutation_examples():
    g = Graph(3, 1)  # single edge (1,2)
    assert apply_permutation(g, (1, 2, 3)) == g
    assert apply_permutation(g, (3, 2, 1)).code == 4  # edge becomes (2,3)


def test_apply_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        apply_permutation(Graph(3, 1), (1, 1, 2))
    with pytest.raises(ValueError):
        apply_permutation(Graph(3, 1), (1, 2))


def test_apply_permutation_preserves_invariants():
    rng = random.Random(19)
    for _ in range(150):
        n = rng.randint(2, 7)
        g = Graph(n, rng.getrandbits(pair_count(n)))
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        h = apply_permutation(g, perm)
        assert h.edge_count == g.edge_count
        dg = [m.bit_count() for m in adjacency_masks(g)]
        dh = [m.bit_count() for m in adjacency_masks(h)]
        assert sorted(dh) == sorted(dg)
        # degrees are carried along with the relabelling
        assert all(dh[perm[v] - 1] == dg[v] for v in range(n))


def test_apply_permutation_composes():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(2, 6)
        g = Graph(n, rng.getrandbits(pair_count(n)))
        p = list(range(1, n + 1))
        q = list(range(1, n + 1))
        rng.shuffle(p)
        rng.shuffle(q)
        qp = [q[p[v] - 1] for v in range(n)]  # apply p first, then q
        assert apply_permutation(apply_permutation(g, p), q) == apply_permutation(g, qp)


def test_all_permutations_of_triangle_fix_it():
    g = complement(Graph(3, 0))
    for perm in itertools.permutations((1, 2, 3)):
        assert apply_permutation(g, perm) == g
