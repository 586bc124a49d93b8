"""Tests of the census benchmark itself, on its n=5 smoke workloads.

    python3 -m pytest -q censusbench

Each smoke run goes through set-up, the closed loop, every output check
and, with --trace 1, the span emission, in a few seconds.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SMOKE = ["census-n5", "census-n5-jobs2", "generate-n5"]


def bench(*args, root=ROOT):
    proc = subprocess.run([sys.executable, str(root / "censusbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=root)
    return proc, proc.stdout.strip().splitlines()


def result(*args, root=ROOT):
    proc, lines = bench(*args, root=root)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1
    return res


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == tracer.PER_LAYER
    assert all(w["name"] in run.WORKLOADS for w in doc["workloads"])


def test_predictions_name_real_metrics_and_workloads():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in doc["workloads"]}
    predictions = json.loads((HERE / "predictions.json").read_text())
    assert set(predictions["workloads"]) == workloads
    for layer_metric, moves in predictions["layer_to_end_to_end"].items():
        assert layer_metric in tracer.PER_LAYER
        for workload, effect in moves.items():
            assert workload in workloads
            assert effect["metric"] in run.END_TO_END


@pytest.mark.parametrize("workload", SMOKE)
def test_smoke_end_to_end(workload):
    res = result("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0")
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == set(run.END_TO_END)
    for name, metric in res["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name][0]
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", SMOKE)
def test_smoke_traced_counts_repeat_exactly(workload):
    res = result("--workload", workload, "--seed", "4", "--seconds", "0.5", "--trace", "1")
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == set(tracer.PER_LAYER)
    value = {k: v["value"] for k, v in res["metrics"].items()}
    generates = workload != "census-n5-jobs2"
    assert value["orderly.skeletons"] == (34 if generates else 0)
    assert value["orderly.accept_ratio"] == (pytest.approx(19 / 62) if generates else 0)
    if workload.startswith("census"):
        assert value["markov.orientations"] == 1077
        assert value["markov.classes"] == 272
        assert value["markov.vconfigs"] == 113
        assert value["markov.classify_s"] > 0
        assert value["census.worker_busy_frac"] > 0
    else:
        assert value["markov.orientations"] == 0
        assert value["catalog.write_s"] > 0
    assert value["catalog.bytes"] == (0 if workload == "census-n5" else 508)


def test_failed_output_check_counts_as_error(tmp_path):
    shutil.copytree(ROOT / "src" / "mecensus", tmp_path / "src" / "mecensus")
    shutil.copytree(HERE, tmp_path / "censusbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ref = tmp_path / "src" / "mecensus" / "reference.py"
    ref.write_text(ref.read_text().replace("5: 8782,", "5: 8783,"))
    res = result("--workload", "census-n5", "--seconds", "0.5", root=tmp_path)
    assert not res["correct"]
    assert res["failed"] == res["attempted"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "censusbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, lines = bench("--workload", "census-n7", "--seconds", "1", root=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def _gone(pid):
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def test_a_run_past_its_deadline_is_killed_with_its_workers(tmp_path):
    code = ("import subprocess, time; p = subprocess.Popen(['sleep', '60']); "
            "print(p.pid, flush=True); time.sleep(60)")
    log = tmp_path / "run.log"
    res = run.spawn([sys.executable, "-c", code], log, time.perf_counter() + 1.0)
    assert res.problems and res.wall_s < 30
    worker = int(log.read_text().split()[0])
    deadline = time.monotonic() + 10
    while not _gone(worker):
        assert time.monotonic() < deadline, "the worker outlived its killed parent"
        time.sleep(0.05)


def test_checks_catch_changed_outputs(tmp_path):
    from mecensus import catalog
    from mecensus.census import census
    from mecensus.graphs import pair_count
    path = tmp_path / "r5.txt"
    catalog.write_report(path, census(5))
    assert checks.report_problems(path, 5) == []
    path.write_text(path.read_text().replace("max_vconfigs = 9", "max_vconfigs = 8"))
    assert any("max_vconfigs" in p for p in checks.report_problems(path, 5))

    assert subprocess.run([sys.executable, "-m", "mecensus.cli", "generate", "--n", "5",
                           "--graphs", str(tmp_path / "g")], capture_output=True,
                          env=run.child_env()).returncode == 0
    assert checks.catalog_problems(tmp_path / "g", 5) == []
    layer = catalog.catalog_path(tmp_path / "g", 5, 3)
    head, first, *rest = layer.read_text().splitlines()
    code, labellings = first.split()
    layer.write_text("\n".join([head, f"{code} {int(labellings) + 1}", *rest]) + "\n")
    assert any(f"C({pair_count(5)}, 3)" in p for p in checks.catalog_problems(tmp_path / "g", 5))


def test_self_time_subtracts_children_of_the_same_process_only():
    spans = [
        {"id": "1.1", "parent": None, "name": "census", "start": 0.0, "end": 10.0,
         "pid": 1, "attrs": {"jobs": 2, "worker_cpu_s": 12.0}},
        {"id": "1.2", "parent": "1.1", "name": "merge", "start": 9.0, "end": 9.5,
         "pid": 1, "attrs": None},
        {"id": "2.1", "parent": "1.1", "name": "census_skeletons", "start": 1.0,
         "end": 8.0, "pid": 2, "attrs": None},
        {"id": "2.2", "parent": "2.1", "name": "classify_skeleton", "start": 2.0,
         "end": 6.0, "pid": 2, "attrs": {"e": 3, "orientations": 8, "classes": 2}},
    ]
    doc = {"spans": spans, "patched": [], "accept": {"kept": 0, "tried": 0}}
    metrics, detail = tracer.summarise(doc, traced_wall=11.0, untraced_wall=10.5)
    assert metrics["census.self_s"] == pytest.approx(9.5 + 0.5 + 3.0)
    assert metrics["census.aggregate_s"] == pytest.approx(3.0)
    assert metrics["census.merge_s"] == pytest.approx(0.5)
    assert metrics["census.worker_busy_frac"] == pytest.approx(12.0 / 20.0)
    assert metrics["markov.ns_per_orientation"] == pytest.approx(4.0 / 8 * 1e9)
    assert metrics["trace.overhead_s"] == pytest.approx(0.5)
    assert detail["by_edges"]["3"]["aggregate_s_derived"] == pytest.approx(3.0)
