"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  The n=8
extension is opt-in: MECENSUS_EXTENDED=1 pytest -m extended ...
"""

import hashlib
import os
import time
from math import comb, factorial

import pytest

from mecensus import cli
from mecensus.analysis import (
    extrapolate_ratio,
    gaussian_chi2,
    median_edge_count,
    median_edges_prediction,
    ratio_asymptote,
)
from mecensus.catalog import report_lines
from mecensus.census import (
    census,
    essential_dag_count,
    robinson_adg_count,
    robinson_adgs_by_edges,
)
from mecensus.graphs import Graph, adjacency_masks, complement, encode, pair_count
from mecensus.markov import classify_skeleton
from mecensus.oracles import brute_force_census
from mecensus.orderly import canonical_search, generate_all
from mecensus.reference import (
    KNOWN_CLASS_COUNTS,
    KNOWN_MAX_CLASSES,
    KNOWN_MAX_VCONFIGS,
    KNOWN_RATIOS,
    KNOWN_SIZE1_RATIOS,
)

MAX_N = 7
# SHA-256 of the `mecensus census --n 7` report file
REPORT_N7_SHA256 = "7df17c35eb3632c06e85aca925b9eec333d35ae2d2a6723b5ec72cea01898005"
# the bytes `census --n 8 --out FILE` writes; a regression pin, not an oracle
REPORT_N8_SHA256 = "fd1de4cad0f41b19e7988656b93fbe5e238550de6fbc8f594f8caafbdd763b6b"


_elapsed: dict[int, float] = {}


@pytest.fixture(scope="module")
def reports():
    out = {}
    for n in range(1, MAX_N + 1):
        t0 = time.perf_counter()
        out[n] = census(n)
        _elapsed[n] = time.perf_counter() - t0
    return out


def test_criterion_1_published_class_counts(reports):
    for n in range(1, MAX_N + 1):
        r = reports[n]
        assert r.total_classes == KNOWN_CLASS_COUNTS[n], f"n={n}"
        assert f"{r.total_classes / r.total_adgs:.5f}" == KNOWN_RATIOS[n], f"n={n}"
    small_total = sum(_elapsed[n] for n in range(1, 7))
    assert small_total < 600, "n<=6 censuses far over the expected minute"
    assert _elapsed[MAX_N] < 1800, "n=7 census over its 30 minute budget"
    print(f"\nPASS criterion 1: class totals and ratios match for n=1..{MAX_N} "
          f"(n<=6 in {small_total:.1f}s, n=7 in {_elapsed[7]:.1f}s)")


def test_criterion_2_per_skeleton_maxima(reports):
    for n in range(1, MAX_N + 1):
        r = reports[n]
        assert r.max_vconfigs == KNOWN_MAX_VCONFIGS[n], f"n={n}"
        assert r.max_classes_per_skeleton == KNOWN_MAX_CLASSES[n], f"n={n}"
        assert r.max_classes_per_skeleton <= factorial(n - 1) if n > 1 else True
    for n in range(3, 7):
        # below n=7 both maxima sit on the balanced complete bipartite graph
        a, b = n // 2, (n + 1) // 2
        bal = encode({(i, j) for i in range(1, a + 1) for j in range(a + 1, n + 1)}, n)
        code = canonical_search(n, adjacency_masks(bal))[0]
        assert code in reports[n].max_vconfig_codes
        assert code in reports[n].max_class_codes
    print(f"PASS criterion 2: per-skeleton maxima match for n=1..{MAX_N}")


def test_criterion_3_adg_totals(reports):
    for n in range(1, MAX_N + 1):
        assert reports[n].total_adgs == robinson_adg_count(n), f"n={n}"
    for n in range(1, 5):
        table = brute_force_census(n)
        assert robinson_adg_count(n) == sum(size * c for (_, size), c in table.items()), f"n={n}"
    print(f"PASS criterion 3: ADG totals match the recurrence (n<={MAX_N}) "
          "and brute force (n<=4)")


def test_adgs_by_edges_match_the_recurrence(reports):
    for n in range(1, MAX_N + 1):
        assert reports[n].adgs_by_edges == robinson_adgs_by_edges(n), f"n={n}"
    print(f"PASS ADGs per edge count match Robinson's recurrence in (1+x) (n<={MAX_N})")


def test_criterion_4_full_distribution_oracle(reports):
    for n in range(1, 5):
        assert reports[n].joint == brute_force_census(n), f"n={n}"
    print("PASS criterion 4: classes per (edge count, class size) equal brute force for n<=4")


def test_criterion_5_size1_ratio(reports):
    for n in range(2, MAX_N + 1):
        r = reports[n]
        got = f"{r.size_histogram[1] / r.total_classes:.5f}"
        assert got == KNOWN_SIZE1_RATIOS[n], f"n={n}: {got}"
    assert KNOWN_SIZE1_RATIOS[4] == "0.31892"
    print(f"PASS criterion 5: size-1 class ratios match to five decimals for n=2..{MAX_N}")


def test_size1_classes_match_the_covered_arc_recurrence(reports):
    for n in range(1, MAX_N + 1):
        assert reports[n].size_histogram[1] == essential_dag_count(n), f"n={n}"
    print(f"PASS size-1 class counts equal the covered-arc recurrence (n<={MAX_N})")


def test_covered_arc_recurrence_matches_published_size1_ratios():
    for n in range(1, 11):
        got = f"{essential_dag_count(n) / KNOWN_CLASS_COUNTS[n]:.5f}"
        assert got == KNOWN_SIZE1_RATIOS[n], f"n={n}: {got}"
    print("PASS the covered-arc recurrence over the published class counts gives the "
          "published size-1 ratios (n<=10)")


def test_criterion_6_structural_identities(reports):
    for n in range(2, MAX_N + 1):
        m = pair_count(n)
        for layer in generate_all(n):
            got = sum(layer.labellings)
            assert got == comb(m, layer.edge_count), f"n={n} e={layer.edge_count}"
    for n in range(3, MAX_N + 1):
        assert classify_skeleton(complement(Graph(n, 0))).classes == {0: factorial(n)}
        path = encode({(v, v + 1) for v in range(1, n)}, n)
        canon = Graph(n, canonical_search(n, adjacency_masks(path))[0])
        assert classify_skeleton(canon).classes[0] == n
    print(f"PASS criterion 6: labelling sums, complete-graph and path class sizes "
          f"hold (n<={MAX_N}); per-skeleton orientation totals are checked by "
          "test_oracles::test_acyclic_orientation_count_matches_kernel_totals_up_to_n7")


def test_criterion_7_median_prediction(reports):
    for n in (5, 6, 7):
        assert median_edge_count(reports[n]) == median_edges_prediction(n), f"n={n}"
    print("PASS criterion 7: by-edge medians equal floor(n/2)*ceil(n/2) for n=5..7")


def test_criterion_8_ratio_extrapolation():
    r200 = extrapolate_ratio(0.26888, 0.26799, 10, 200)
    asym = ratio_asymptote(0.26888, 0.26799, 10)
    assert abs(r200 - 0.26714) < 0.0005
    assert abs(asym - 0.26714) < 0.0005
    assert f"{asym:.3g}" == "0.267"
    print(f"PASS criterion 8: extrapolated asymptote {asym:.5f} within 0.26714 +/- 0.0005")


def test_criterion_9_determinism(tmp_path):
    outputs = {}
    for jobs in (1, 2, 8):
        path = tmp_path / f"jobs{jobs}.txt"
        assert cli.main(["census", "--n", "6", "--jobs", str(jobs),
                         "--out", str(path)]) == 0
        outputs[jobs] = path.read_bytes()
    repeat = tmp_path / "repeat.txt"
    assert cli.main(["census", "--n", "6", "--jobs", "2", "--out", str(repeat)]) == 0
    assert outputs[1] == outputs[2] == outputs[8] == repeat.read_bytes()
    print("PASS criterion 9: census reports byte-identical across jobs 1/2/8 and reruns")


def test_report_n7_bytes_are_pinned(reports):
    # the same report bytes the n=7 census has always written, line for line
    text = "\n".join(report_lines(reports[7])) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_N7_SHA256
    print("PASS report pin: the n=7 report bytes match their pinned SHA-256")


def test_criterion_10_out_of_scope_declared_and_regressions(reports):
    # beyond desk scale by design; the pipeline accepts these n but the
    # values are not asserted here: n=9 and n=10 totals, the n=10 mean
    # class size 3.731, and the n>=9 shape statistics
    chi6 = gaussian_chi2(reports[6].classes_by_edges)
    chi7 = gaussian_chi2(reports[7].classes_by_edges)
    chi5 = gaussian_chi2(reports[5].classes_by_edges)
    assert chi6 == pytest.approx(0.002282867955105492, rel=1e-6)
    assert chi7 == pytest.approx(0.0008870306470979932, rel=1e-6)
    assert chi6 < 0.01 and chi7 < 0.01
    assert chi7 <= chi5
    print("PASS criterion 10: n>=9 targets declared out of desk scale; "
          f"frozen shape regressions hold (chi2 n=6 {chi6:.6f}, n=7 {chi7:.6f})")


@pytest.mark.extended
@pytest.mark.skipif(not os.environ.get("MECENSUS_EXTENDED"),
                    reason="set MECENSUS_EXTENDED=1 for the n=8 run")
def test_extended_n8_census():
    t0 = time.perf_counter()
    r = census(8)
    elapsed = time.perf_counter() - t0
    assert r.total_classes == KNOWN_CLASS_COUNTS[8]
    assert f"{r.total_classes / r.total_adgs:.5f}" == KNOWN_RATIOS[8]
    assert r.max_vconfigs == KNOWN_MAX_VCONFIGS[8]
    assert r.max_classes_per_skeleton == KNOWN_MAX_CLASSES[8]
    assert f"{r.size_histogram[1] / r.total_classes:.5f}" == KNOWN_SIZE1_RATIOS[8]
    assert r.adgs_by_edges == robinson_adgs_by_edges(8)
    assert r.size_histogram[1] == essential_dag_count(8) == 58874478231
    text = "\n".join(report_lines(r)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_N8_SHA256
    print(f"PASS extended: n=8 census matches the published values and its pinned "
          f"report bytes ({elapsed:.0f}s)")
