import hashlib
import math
import os
import pickle
import signal
import time

import pytest

import mecensus.census as census_module
from helpers import gaussian_chi2, median_edge_count, median_edges_prediction
from mecensus.analysis import extrapolate_ratio, ratio_asymptote
from mecensus.catalog import report_lines
from mecensus.census import (
    SkeletonRecord,
    _slices,
    census,
    census_skeletons,
    iter_skeletons,
    merge,
    robinson_adg_count,
    robinson_adgs_by_edges,
    usable_cpus,
)
from mecensus.markov import classify_skeleton, find_v_configurations

# SHA-256 of the `mecensus census --n 6` report file
REPORT_N6_SHA256 = "e40a7a56880bccf875b8046cf09695e9fa075a1b4ad500603a278ccb6e01bcbd"


def test_census_n3_breakdown():
    r = census(3)
    assert (r.total_classes, r.total_adgs) == (11, 25)
    assert r.classes_by_edges == [1, 3, 6, 1]
    assert r.size_histogram == {1: 4, 2: 3, 3: 3, 6: 1}


def test_census_joint_matrix_consistency():
    r = census(4)
    assert sum(r.joint.values()) == r.total_classes
    for e in range(len(r.classes_by_edges)):
        assert sum(c for (je, _), c in r.joint.items() if je == e) == r.classes_by_edges[e]
    for s, cnt in r.size_histogram.items():
        assert sum(c for (_, js), c in r.joint.items() if js == s) == cnt


def test_merge_identity_and_commutativity():
    r = census(4)
    e = census_skeletons(4, [])
    assert merge(r, e) == r
    skeletons = list(iter_skeletons(5))
    a = census_skeletons(5, skeletons[:10])
    b = census_skeletons(5, skeletons[10:])
    assert merge(a, b) == merge(b, a)


def test_records_and_reports_round_trip_through_pickle():
    # a forked census worker pickles its report back to the caller
    records = list(iter_skeletons(4))
    assert pickle.loads(pickle.dumps(records)) == records
    assert type(pickle.loads(pickle.dumps(records[3]))) is SkeletonRecord
    r = census(4)
    back = pickle.loads(pickle.dumps(r))
    assert back == r and report_lines(back) == report_lines(r)


def test_merge_rejects_mismatched_n():
    with pytest.raises(ValueError):
        merge(census_skeletons(3, []), census_skeletons(4, []))


def test_census_never_forks_more_than_usable_cpus(monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(jobs)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    serial = census(5)
    for jobs in (1, 2, 8, 17):
        assert census(5, jobs=jobs) == serial
    # the caller takes one slice and one child the other, whatever jobs asks for above two
    assert forks == [2, 8, 17]
    # with one usable CPU the caller takes the only slice and forks nothing
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    for jobs in (1, 8):
        assert census(5, jobs=jobs) == serial
    assert forks == [2, 8, 17]


def test_census_without_sched_getaffinity_counts_every_cpu(monkeypatch):
    # as on macOS: no affinity mask, so every CPU the host reports is usable
    serial = census(5)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert usable_cpus() == 2
    assert census(3) == census(3, jobs=2)
    assert census(5, jobs=2) == serial
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # the count is undetermined
    assert usable_cpus() == 1
    assert census(5, jobs=2) == serial


def test_census_without_fork_runs_one_slice(monkeypatch):
    serial = census(5)
    monkeypatch.delattr(os, "fork")
    assert usable_cpus() == 1
    assert census(5, jobs=4) == serial


def test_census_kills_and_reaps_children_when_its_own_slice_raises(monkeypatch):
    caller = os.getpid()

    def fail_here_stall_in_children(n, records):
        if os.getpid() == caller:
            raise RuntimeError("own slice failed")
        time.sleep(60)  # a child still running when the caller fails must be killed

    monkeypatch.setattr(census_module, "census_skeletons", fail_here_stall_in_children)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    with pytest.raises(RuntimeError, match="own slice failed"):
        census(5, jobs=3)
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("die, how", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"was killed by signal {signal.SIGKILL:d}"),
], ids=["exit_status_3", "sigkill"])
def test_census_raises_child_process_error_when_a_worker_dies(monkeypatch, die, how):
    # the caller's slice runs as before; the one child dies before it reports
    caller, real = os.getpid(), census_module.census_skeletons

    def die_in_children(n, records):
        if os.getpid() == caller:
            return real(n, records)
        die()

    monkeypatch.setattr(census_module, "census_skeletons", die_in_children)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # one child on any host
    with pytest.raises(ChildProcessError, match=rf"^census worker died: worker \d+ {how}$"):
        census(5, jobs=2)


def test_robinson_by_edges_small_values_and_totals():
    # n=3: 1 empty, 6 single arcs, 12 two-arc paths and forks, 6 transitive triangles
    assert robinson_adgs_by_edges(0) == [1]
    assert robinson_adgs_by_edges(3) == [1, 6, 12, 6]
    for n in range(13):
        by_edges = robinson_adgs_by_edges(n)
        assert len(by_edges) == n * (n - 1) // 2 + 1
        assert sum(by_edges) == robinson_adg_count(n)
    # the complete layer holds the n! transitive tournaments
    assert robinson_adgs_by_edges(6)[-1] == math.factorial(6)


def test_slices_deal_every_item_once():
    items = list(range(23))
    for jobs in range(1, 6):
        slices = _slices(items, jobs)
        assert len(slices) == jobs
        assert sorted(x for s in slices for x in s) == items


def test_slices_balance_orientations_at_n6():
    # skeletons arrive layer by layer; contiguous halves put 83% on one worker
    skeletons = list(iter_skeletons(6))
    assert len(skeletons) == 156
    cost = {g.code: classify_skeleton(g, find_v_configurations(g)).total_orientations
            for g in (r.graph for r in skeletons)}
    total = sum(cost.values())
    for jobs in (2, 3):
        largest = max(sum(cost[r.graph.code] for r in s) for s in _slices(skeletons, jobs))
        assert largest / total <= 1 / jobs + 0.05


def test_report_n6_bytes_are_pinned():
    # any byte change in the report, totals matching or not, shows here
    text = "\n".join(report_lines(census(6))) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_N6_SHA256


def test_census_edge_filter_slices_the_full_run():
    full = census(5)
    sliced = census(5, [r for r in iter_skeletons(5) if r.graph.edge_count == 4])
    assert sliced.classes_by_edges[4] == full.classes_by_edges[4]
    assert sliced.adgs_by_edges[4] == full.adgs_by_edges[4]
    assert sum(sliced.classes_by_edges) == sliced.classes_by_edges[4]


def test_robinson_small_values():
    assert robinson_adg_count(0) == 1
    assert robinson_adg_count(1) == 1
    assert robinson_adg_count(2) == 3
    assert robinson_adg_count(3) == 25
    assert robinson_adg_count(4) == 543


def test_median_prediction():
    assert median_edges_prediction(10) == 25
    assert median_edges_prediction(5) == 6
    assert median_edges_prediction(6) == 9


def test_census_median_n4_is_the_known_exception():
    assert median_edge_count(census(4)) == 3
    assert median_edges_prediction(4) == 4


def test_extrapolate_fixed_point_and_echo():
    assert extrapolate_ratio(0.3, 0.3, 10, 50) == pytest.approx(0.3)
    assert extrapolate_ratio(0.28, 0.27, 10, 10) == 0.27


def test_extrapolate_strictly_decreasing():
    values = [extrapolate_ratio(0.26888, 0.26799, 10, t) for t in range(10, 40)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > 0 for v in values)


def test_extrapolate_to_a_far_target_stops_at_the_fixed_point():
    far = extrapolate_ratio(0.26888, 0.26799, 10, 10**12)
    assert far == ratio_asymptote(0.26888, 0.26799, 10)


def test_extrapolate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        extrapolate_ratio(0.2, 0.3, 10, 20)  # increasing ratios
    with pytest.raises(ValueError):
        ratio_asymptote(0.2, 0.3, 10)
    with pytest.raises(ValueError):
        extrapolate_ratio(0.3, -0.1, 10, 20)
    with pytest.raises(ValueError):
        extrapolate_ratio(0.3, 0.2, 10, 5)  # target below start
    with pytest.raises(ValueError):
        extrapolate_ratio(0.3, 0.2, 1, 4)  # r_prev would be the ratio at n=0


def test_gaussian_chi2_near_zero_on_gaussian_input():
    counts = [round(math.exp(-((e - 20.0) ** 2) / (2 * 16.0)) * 1e9) for e in range(41)]
    assert gaussian_chi2(counts) < 1e-6


def test_gaussian_chi2_rejects_degenerate_input():
    with pytest.raises(ValueError):
        gaussian_chi2([0, 7, 0])  # single bin
    with pytest.raises(ValueError):
        gaussian_chi2([0, 0])
    with pytest.raises(ValueError):
        gaussian_chi2([3, -1, 3])


def test_mean_class_size_is_inverse_ratio():
    r = census(6)
    mean = r.total_adgs / r.total_classes
    assert f"{mean:.4g}" == f"{1 / 0.28238:.4g}"  # 3.541 both ways
