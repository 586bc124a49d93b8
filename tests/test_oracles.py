import pytest

from mecensus.census import census, iter_skeletons
from mecensus.graphs import complete_graph, empty_graph, encode
from mecensus.markov import classify_skeleton
from mecensus.oracles import (
    acyclic_orientation_count,
    brute_force_census,
    brute_force_unlabeled,
    chromatic_polynomial_at,
)


def test_brute_force_census_known_totals():
    assert (brute_force_census(2).total_dags, len(brute_force_census(2).classes)) == (3, 2)
    bf3 = brute_force_census(3)
    assert (bf3.total_dags, len(bf3.classes)) == (25, 11)
    bf4 = brute_force_census(4)
    assert (bf4.total_dags, len(bf4.classes)) == (543, 185)


def test_brute_force_census_rejects_large_n():
    with pytest.raises(ValueError):
        brute_force_census(6)


def test_brute_force_census_sizes_sum_to_dags():
    for n in (2, 3, 4):
        bf = brute_force_census(n)
        assert sum(bf.classes.values()) == bf.total_dags


def test_pipeline_matches_brute_force_distributions():
    for n in (2, 3, 4):
        bf = brute_force_census(n)
        r = census(n)
        assert r.total_adgs == bf.total_dags
        assert r.adgs_by_edges == bf.dags_by_edges
        assert r.total_classes == len(bf.classes)
        ours = sorted(s for size, cnt in r.size_histogram.items() for s in [size] * cnt)
        assert ours == sorted(bf.classes.values())


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


def test_chromatic_polynomial_examples():
    assert chromatic_polynomial_at(empty_graph(4), 5) == 5 ** 4
    assert chromatic_polynomial_at(complete_graph(3), -1) == -6
    c4 = encode({(1, 2), (2, 3), (3, 4), (1, 4)}, 4)
    assert abs(chromatic_polynomial_at(c4, -1)) == 14
    # (x-1)^4 + (x-1) at a couple of points
    for x in (2, 3, 4):
        assert chromatic_polynomial_at(c4, x) == (x - 1) ** 4 + (x - 1)


def test_chromatic_polynomial_complete_graphs():
    for n in (2, 3, 4):
        for x in (-1, 2, 5):
            want = 1
            for k in range(n):
                want *= x - k
            assert chromatic_polynomial_at(complete_graph(n), x) == want


def test_acyclic_orientation_count_examples():
    assert acyclic_orientation_count(empty_graph(5)) == 1
    c4 = encode({(1, 2), (2, 3), (3, 4), (1, 4)}, 4)
    assert acyclic_orientation_count(c4) == 14
    for n in (1, 2, 3, 4, 5):
        assert acyclic_orientation_count(complete_graph(n)) == abs(
            chromatic_polynomial_at(complete_graph(n), -1))
    path = encode({(v, v + 1) for v in range(1, 8)}, 8)
    assert acyclic_orientation_count(path) == 2 ** 7


def test_acyclic_orientation_count_matches_kernel_totals_up_to_n7():
    # per skeleton, against the orientation kernel's tally
    for n in range(1, 8):
        for rec in iter_skeletons(n):
            g = rec.graph
            assert acyclic_orientation_count(g) == classify_skeleton(g).total_orientations, g
