import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mecensus import cli
from mecensus.catalog import catalog_path, read_catalog


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_writes_all_layers(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "--n", "5", "--graphs", str(tmp_path))
    assert code == 0
    files = sorted((tmp_path / "n5").glob("e*.cat"))
    assert len(files) == 11  # one per edge count 0..10
    total = sum(len(read_catalog(p)[2]) for p in files)
    assert total == 34


def test_generate_single_record_for_n1(tmp_path, capsys):
    code, _, _ = run(capsys, "generate", "--n", "1", "--graphs", str(tmp_path))
    assert code == 0
    n, e, records = read_catalog(catalog_path(tmp_path, 1, 0))
    assert (n, e, len(records)) == (1, 0, 1)
    assert records[0].graph.code == 0


def test_census_stdout_report(capsys):
    code, out, _ = run(capsys, "census", "--n", "4")
    assert code == 0
    assert "total_classes = 185" in out
    assert "total_adgs = 543" in out


def test_census_jobs_byte_identical(tmp_path, capsys):
    outputs = []
    for jobs in ("1", "2", "8"):
        path = tmp_path / f"r{jobs}.txt"
        code, _, _ = run(capsys, "census", "--n", "5", "--jobs", jobs,
                         "--out", str(path))
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_census_jobs3_matches_serial_n6(tmp_path, capsys):
    outputs = []
    for jobs in ("1", "3"):
        path = tmp_path / f"r{jobs}.txt"
        assert run(capsys, "census", "--n", "6", "--jobs", jobs, "--out", str(path))[0] == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def _die_in_worker(n, items):
    os._exit(1)


def test_census_worker_death_exits_2(capsys, monkeypatch):
    # module-level so the pool pickles it by name; forked workers see the patch.
    # The package's `census` attribute is the function, so fetch the module.
    monkeypatch.setattr(importlib.import_module("mecensus.census"), "_census_slice",
                        _die_in_worker)
    code, _, err = run(capsys, "census", "--n", "4", "--jobs", "2")
    assert code == 2
    assert "error: census worker died" in err


def test_cli_import_leaves_numpy_out():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    probe = "import sys, mecensus.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_census_from_catalogs_matches_regeneration(tmp_path, capsys):
    run(capsys, "generate", "--n", "4", "--graphs", str(tmp_path / "g"))
    a = tmp_path / "from_catalog.txt"
    b = tmp_path / "regenerated.txt"
    assert run(capsys, "census", "--n", "4", "--graphs", str(tmp_path / "g"),
               "--out", str(a))[0] == 0
    assert run(capsys, "census", "--n", "4", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_census_edge_slice_consistent(tmp_path, capsys):
    full = tmp_path / "full.txt"
    part = tmp_path / "part.txt"
    run(capsys, "census", "--n", "5", "--out", str(full))
    code, _, _ = run(capsys, "census", "--n", "5", "--edges", "4", "--out", str(part))
    assert code == 0
    get = lambda p, key: next(ln for ln in p.read_text().splitlines()
                              if ln.startswith(key + " = ")).split(" = ")[1]
    full_by_edges = get(full, "classes_by_edges").split(",")
    part_by_edges = get(part, "classes_by_edges").split(",")
    assert part_by_edges[4] == full_by_edges[4]
    assert all(v == "0" for i, v in enumerate(part_by_edges) if i != 4)
    assert "edges = 4..4" in part.read_text()


def test_census_csv_requires_out(capsys):
    code, _, err = run(capsys, "census", "--n", "3", "--format", "csv")
    assert code == 2
    assert "--out" in err


def test_census_csv_sidecars(tmp_path, capsys):
    out = tmp_path / "rep.txt"
    code, stdout, _ = run(capsys, "census", "--n", "4", "--out", str(out),
                          "--format", "csv", "--size-cap", "4")
    assert code == 0
    assert (tmp_path / "rep.txt.by_edges.csv").exists()
    assert (tmp_path / "rep.txt.by_size.csv").exists()
    assert (tmp_path / "rep.txt.joint.csv").exists()


def test_census_rejects_corrupt_catalog(tmp_path, capsys):
    run(capsys, "generate", "--n", "3", "--graphs", str(tmp_path))
    victim = catalog_path(tmp_path, 3, 1)
    victim.write_text("MECCAT 1 n=3 e=1 count=2\n4 3\n")
    code, _, err = run(capsys, "census", "--n", "3", "--graphs", str(tmp_path))
    assert code == 2
    assert "e1.cat" in err


def test_census_rejects_catalog_with_wrong_labelling_sum(tmp_path, capsys):
    run(capsys, "generate", "--n", "5", "--graphs", str(tmp_path))
    victim = catalog_path(tmp_path, 5, 4)
    head, first, *rest = victim.read_text().splitlines()
    code, lab = first.split()
    victim.write_text("\n".join([head, f"{code} {int(lab) + 1}", *rest]) + "\n")
    code, _, err = run(capsys, "census", "--n", "5", "--graphs", str(tmp_path))
    assert code == 2
    assert "e4.cat" in err
    assert "labellings sum to" in err


def test_census_rejects_bad_edge_range(capsys):
    code, _, err = run(capsys, "census", "--n", "3", "--edges", "2..9")
    assert code == 2


def test_verify_passes_small_n(capsys):
    for n in ("1", "2", "3"):
        code, out, _ = run(capsys, "verify", "--n", n)
        assert code == 0, out
        assert "all checks passed" in out
        assert "FAIL" not in out


def test_verify_catches_injected_labelling_fault(capsys, monkeypatch):
    from mecensus import automorphisms
    real = automorphisms.labelling_count

    def off_by_one(g):
        value = real(g)
        return value + 1 if g.edge_count == 2 else value

    monkeypatch.setattr(automorphisms, "labelling_count", off_by_one)
    code, out, _ = run(capsys, "verify", "--n", "4")
    assert code == 1
    assert "FAIL" in out


def test_extrapolate_published_inputs(capsys):
    code, out, _ = run(capsys, "extrapolate", "--r-prev", "0.26888",
                       "--r-cur", "0.26799", "--n-cur", "10", "--n-target", "200")
    assert code == 0
    r_line = next(ln for ln in out.splitlines() if ln.startswith("r[200]"))
    asym_line = next(ln for ln in out.splitlines() if ln.startswith("asymptote_estimate"))
    assert abs(float(r_line.split(" = ")[1]) - 0.26714) < 0.0005
    assert abs(float(asym_line.split(" = ")[1]) - 0.26714) < 0.0005


def test_extrapolate_rejects_increasing_ratios(capsys):
    code, _, err = run(capsys, "extrapolate", "--r-prev", "0.2",
                       "--r-cur", "0.3", "--n-cur", "10", "--n-target", "20")
    assert code == 2
    assert "error" in err


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
