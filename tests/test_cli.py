import ast
import contextlib
import functools
import hashlib
import io
import os
import subprocess
import sys
from collections import Counter
from math import comb
from pathlib import Path

import pytest

from mecensus import catalog, census, cli, markov, oracles, reference
from mecensus.catalog import catalog_path, read_catalog


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv) -> str:
    """stderr of a command line that argparse rejects: exit code 2, nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    return err


def probe(code: str) -> str:
    """stdout of `python -c code` in a fresh interpreter that imports this source tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


# a valid extrapolate command line: an option repeated after it overrides its value
EXTRAPOLATE = ("extrapolate", "--r-prev", "0.3", "--r-cur", "0.2",
               "--n-cur", "10", "--n-target", "12")


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


def test_generate_n8_catalogs_are_pinned(tmp_path, capsys):
    code, _, _ = run(capsys, "generate", "--n", "8", "--graphs", str(tmp_path))
    assert code == 0
    digest = hashlib.sha256()
    skeletons = 0
    for e in range(29):
        path = catalog_path(tmp_path, 8, e)
        digest.update(path.read_bytes())
        records = read_catalog(path)[2]
        skeletons += len(records)
        assert sum(r.labellings for r in records) == comb(28, e)
    assert skeletons == reference.KNOWN_UNLABELED_GRAPHS[8]
    # SHA-256 of the files e0..e28 as the branch-and-bound generator that
    # canonical_search replaced wrote them
    assert digest.hexdigest() == (
        "37f792b0dd3abe243d0262cec1bfa1639a18f68c7bf24587c30de077155fec66")


def test_census_stdout_report(capsys):
    code, out, _ = run(capsys, "census", "--n", "4")
    assert code == 0
    assert "total_classes = 185" in out
    assert "total_adgs = 543" in out


def test_census_default_uses_every_usable_cpu(tmp_path, capsys, monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(n)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    for n in ("5", "6"):
        outputs = []
        for jobs in ([], ["--jobs", "1"]):
            path = tmp_path / f"r{n}{len(jobs)}.txt"
            assert run(capsys, "census", "--n", n, *jobs, "--out", str(path))[0] == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
    # the caller takes one of three slices and forks a child for each of the others
    assert forks == ["5", "5", "6", "6"]


def _fail_in_children(monkeypatch, fail):
    """Patch census_skeletons to run as before in this process and call fail() in a child."""
    caller, real = os.getpid(), census.census_skeletons

    def census_skeletons(n, records):
        if os.getpid() == caller:
            return real(n, records)
        fail()

    monkeypatch.setattr(census, "census_skeletons", census_skeletons)


def test_census_worker_death_exits_2(capsys, monkeypatch):
    _fail_in_children(monkeypatch, lambda: os._exit(1))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # one child on any host
    code, _, err = run(capsys, "census", "--n", "4", "--jobs", "2")
    assert code == 2
    assert "error: census worker died" in err


def _raise_slice_failed():
    raise RuntimeError("slice failed on purpose")


def test_census_worker_exception_exits_2_with_its_traceback(capfd, monkeypatch):
    # the child's traceback goes to the inherited stderr file descriptor
    _fail_in_children(monkeypatch, _raise_slice_failed)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    code = cli.main(["census", "--n", "4", "--jobs", "2"])
    err = capfd.readouterr().err
    assert code == 2
    assert "error: census worker died" in err
    assert "Traceback" in err
    assert "RuntimeError: slice failed on purpose" in err


def test_package_import_loads_no_submodule():
    # the package re-exports nothing, so `mecensus.census` names the module
    out = probe("import sys, types, mecensus\n"
                "print(sorted(m for m in sys.modules if m.startswith('mecensus.')))\n"
                "import mecensus.census as m\n"
                "print(isinstance(m, types.ModuleType))")
    assert out.splitlines() == ["[]", "True"]


def test_package_imports_only_the_standard_library():
    # no runtime dependency: every absolute import names a standard-library module
    foreign = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_package_has_no_assert_statement():
    # runtime checks raise; python -O strips every assert
    paths = sorted(Path(cli.__file__).parent.glob("*.py"))
    assert "cli.py" in [p.name for p in paths]
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_pipeline_modules_define_no_test_only_name():
    # every public def and class of every module but reference, the published
    # data that tests read, is referred to elsewhere in the package, by name or
    # attribute; what only the tests call lives in tests/helpers.py
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in Path(cli.__file__).parent.glob("*.py")}

    def names(node):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    used = sum(map(names, trees.values()), Counter())
    unused = [f"{module}.{node.name}"
              for module, tree in sorted(trees.items()) if module != "reference"
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and f"{module}.{node.name}" != "cli.main"
              and used[node.name] == names(node)[node.name]]
    assert unused == []


def test_package_classes_define_no_uncalled_method():
    # every public, undecorated method of a package class is called in the
    # package as x.name(...); properties, read without a call, are out of scope
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in Path(cli.__file__).parent.glob("*.py")}
    called = {node.func.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    classes = [(module, cls) for module, tree in sorted(trees.items())
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)]
    assert "Graph" in [cls.name for _, cls in classes]
    uncalled = [f"{module}.{cls.name}.{node.name}" for module, cls in classes
                for node in cls.body
                if isinstance(node, ast.FunctionDef) and not node.decorator_list
                and not node.name.startswith("_") and node.name not in called]
    assert uncalled == []


def test_references_import_only_the_graph_coding():
    # the references share nothing with the pipeline beyond the bit coding:
    # oracles imports only graphs, and the test helpers only graphs and oracles
    def package_imports(path):
        out = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                out |= {a.name.partition(".")[2] or a.name for a in node.names
                        if a.name.partition(".")[0] == "mecensus"}
            elif isinstance(node, ast.ImportFrom):
                top, _, sub = (node.module or "").partition(".")
                if node.level:
                    sub = node.module or ""
                elif top != "mecensus":
                    continue
                out |= {sub} if sub else {a.name for a in node.names}
        return out

    assert package_imports(Path(oracles.__file__)) <= {"graphs"}
    assert package_imports(Path(__file__).with_name("helpers.py")) <= {"graphs", "oracles"}


def test_cli_import_leaves_process_pool_out():
    # pickle is loaded only by a forked census, and no census loads a process pool
    out = probe("import os, sys, mecensus.cli\n"
                "print('pickle' in sys.modules)\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "assert mecensus.cli.main(['census', '--n', '5', '--jobs', '2']) == 0\n"
                "print('concurrent.futures' in sys.modules)").splitlines()
    assert out[0] == out[-1] == "False"
    assert out.count("False") == 2  # the child flushed none of the caller's buffered output


def test_generate_and_census_start_without_verify_only_modules(tmp_path):
    # every module kept off the start path saves its import and compile time;
    # a census that forks nothing loads neither pickle nor signal: one job asked
    # for, or the default on one usable CPU
    out = probe("import os, sys\n"
                "before = set(sys.modules)\n"
                "from mecensus.cli import main\n"
                f"assert main(['generate', '--n', '5', '--graphs', {str(tmp_path)!r}]) == 0\n"
                "assert main(['census', '--n', '5', '--jobs', '1']) == 0\n"
                "os.sched_getaffinity = lambda pid: {0}\n"
                "assert main(['census', '--n', '5']) == 0\n"
                "print('loaded', sorted(set(sys.modules) - before))\n"
                "assert main(['verify', '--n', '4']) == 0\n"
                "assert main(['extrapolate', '--r-prev', '0.27443', '--r-cur', '0.27068',"
                " '--n-cur', '8', '--n-target', '9']) == 0\n"
                "print('after verify', 'fractions' in sys.modules, 'decimal' in sys.modules)\n")
    line = next(ln for ln in out.splitlines() if ln.startswith("loaded "))
    loaded = set(ast.literal_eval(line[len("loaded "):]))
    assert "mecensus.census" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "fractions", "decimal", "pickle", "signal",
                              "mecensus.oracles", "mecensus.analysis", "mecensus.reference"})
    assert "all checks passed for n=4" in out
    # verify and extrapolate compare strings and print floats: no exact-arithmetic module
    assert out.splitlines()[-1] == "after verify False False"


def test_census_from_catalogs_matches_regeneration(tmp_path, capsys):
    run(capsys, "generate", "--n", "4", "--graphs", str(tmp_path / "g"))
    a = tmp_path / "from_catalog.txt"
    b = tmp_path / "regenerated.txt"
    assert run(capsys, "census", "--n", "4", "--graphs", str(tmp_path / "g"),
               "--out", str(a))[0] == 0
    assert run(capsys, "census", "--n", "4", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_census_rejects_a_missing_catalog(tmp_path, capsys):
    run(capsys, "generate", "--n", "4", "--graphs", str(tmp_path / "g"))
    catalog_path(tmp_path / "g", 4, 2).unlink()
    catalog_path(tmp_path / "g", 4, 5).unlink()
    report = tmp_path / "r.txt"
    for out in ([], ["--out", str(report)]):
        code, stdout, err = run(capsys, "census", "--n", "4", "--graphs", str(tmp_path / "g"), *out)
        assert code == 2
        assert stdout == ""
        assert "e2.cat" in err and "e5.cat" not in err
    assert not report.exists()
    # a complete catalog set is read without a word
    run(capsys, "generate", "--n", "4", "--graphs", str(tmp_path / "g"))
    assert run(capsys, "census", "--n", "4", "--graphs", str(tmp_path / "g"))[2] == ""


def test_census_reads_every_catalog_it_needs(tmp_path, capsys):
    # the layers are read in order, so the corrupt e3 fails before the missing e5
    run(capsys, "generate", "--n", "4", "--graphs", str(tmp_path))
    catalog_path(tmp_path, 4, 3).write_text("MECCAT 1 n=4 e=3 count=1\n7 4\n")
    catalog_path(tmp_path, 4, 5).unlink()
    code, stdout, err = run(capsys, "census", "--n", "4", "--graphs", str(tmp_path))
    assert code == 2
    assert stdout == ""
    assert "e3.cat" in err and "e5.cat" not in err


def test_census_rejects_a_catalog_directory_that_does_not_exist(tmp_path, capsys):
    report = tmp_path / "r.txt"
    code, stdout, err = run(capsys, "census", "--n", "3", "--graphs", str(tmp_path / "nowhere"),
                            "--out", str(report))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:") and str(catalog_path(tmp_path / "nowhere", 3, 0)) in err
    assert list(tmp_path.iterdir()) == []


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
                          "--format", "csv")
    assert code == 0
    assert (tmp_path / "rep.txt.by_edges.csv").exists()
    assert (tmp_path / "rep.txt.by_size.csv").exists()
    assert (tmp_path / "rep.txt.joint.csv").exists()


@pytest.mark.parametrize("argv", [("census", "--n", "3", "--size-cap", "2"),
                                  ("generate", "--n", "3", "--edges", "3")])
def test_output_filters_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    # every table and catalog layer is always written whole
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _no_skeletons(*args):
    raise AssertionError("skeletons loaded before the flags were checked")


@pytest.mark.parametrize("flags", [("--format", "csv"), ("--jobs", "0")])
def test_census_rejects_bad_flags_before_loading(flags, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_load_or_generate", _no_skeletons)
    code, stdout, err = run(capsys, "census", "--n", "7", *flags)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:")


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
    for edges, message in [("2..9", "range outside 0..3"), ("x", "expected E or LO..HI"),
                           ("1..", "expected E or LO..HI"), ("..2", "expected E or LO..HI")]:
        code, stdout, err = run(capsys, "census", "--n", "3", "--edges", edges)
        assert code == 2
        assert stdout == ""
        assert err == f"error: --edges {edges!r}: {message}\n"
    # int() reads these as 10, 2..3, 2..3 and 3; each bound must be ASCII digits alone
    for edges in ("1_0", "+2..3", "2.. 3", "\u0663"):
        code, stdout, err = run(capsys, "census", "--n", "5", "--edges", edges)
        assert code == 2
        assert stdout == ""
        assert err == f"error: --edges {edges!r}: expected E or LO..HI\n"


@pytest.mark.parametrize("argv", [("generate", "--n"), ("census", "--n"), ("verify", "--n"),
                                  ("census", "--n", "3", "--jobs"),
                                  (*EXTRAPOLATE, "--n-cur"), (*EXTRAPOLATE, "--n-target")])
def test_counts_take_ascii_digits_alone(argv, tmp_path, monkeypatch, capsys):
    # int() reads these as 10, 2, 2, 3 and -5
    monkeypatch.chdir(tmp_path)
    for text in ("1_0", "+2", " 2", "٣", "-5"):
        assert f"expected ASCII digits, got {text!r}" in usage_error(capsys, *argv, text)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--r-prev", "--r-cur"])
def test_ratios_take_ascii_decimals_alone(flag, capsys):
    # float() reads all of these, the last as 0.27068
    for text in ("0.2_7", " 0.3", "1e-1", ".5", "5.", "inf", "nan", "٠.٢٧٠٦٨"):
        err = usage_error(capsys, *EXTRAPOLATE, flag, text)
        assert f"expected ASCII digits[.digits], got {text!r}" in err


def test_verify_passes_small_n(capsys):
    for n in ("1", "2", "3", "4", "5", "6"):
        code, out, _ = run(capsys, "verify", "--n", n)
        assert code == 0, out
        assert "all checks passed" in out
        assert "FAIL" not in out


def _skew_labellings(monkeypatch):
    # every 2-edge skeleton counts one labelled copy too many
    real = census.generate_all

    def skewed(n):
        for layer in real(n):
            if layer.edge_count == 2:
                layer = layer._replace(labellings=[lab + 1 for lab in layer.labellings])
            yield layer

    monkeypatch.setattr(census, "generate_all", skewed)


def _move_classes(*steps):
    """A fault that adds each step to its (edges, size) cell of the folded joint table."""
    def install(monkeypatch):
        real = cli.census_rows

        def skewed(n, rows):
            report = real(n, rows)
            for cell, step in steps:
                report.joint[cell] = report.joint.get(cell, 0) + step
            return report

        monkeypatch.setattr(cli, "census_rows", skewed)
    return install


def _misprint(field, edit):
    """A fault that prints edit(value) on the report line of field; every count stays right."""
    def install(monkeypatch):
        real = catalog.report_lines

        def misprinted(report, edges=None):
            lines = []
            for ln in real(report, edges):
                name, _, value = ln.partition(" = ")
                lines.append(f"{name} = {edit(value)}" if name == field else ln)
            return lines

        monkeypatch.setattr(catalog, "report_lines", misprinted)
    return install


def _one_orientation_too_many(monkeypatch):
    # one class of skeleton 788, the 13th at n=5, gains an orientation
    real = census.classify_skeleton

    def skewed(g, vcs):
        table = real(g, vcs)
        if g.code != 788:
            return table
        counts = dict(table.counts)
        counts[next(iter(counts))] += 1
        return markov.SkeletonClassTable(table.n, counts)

    monkeypatch.setattr(census, "classify_skeleton", skewed)


def _vconfig_count_one_short_on_4_edges(monkeypatch):
    real = cli.skeleton_rows

    def skewed(records):
        for rec, nv, sizes in real(records):
            yield rec, nv - (rec.graph.edge_count == 4), sizes

    monkeypatch.setattr(cli, "skeleton_rows", skewed)


def _first_tied_code_only(monkeypatch):
    real = census._maximum

    def first(pairs):
        top, codes = real(pairs)
        return top, codes[:1]

    monkeypatch.setattr(census, "_maximum", first)


def _class_maxima_at_code_0(monkeypatch):
    # every skeleton reaching the class maximum is recorded as code 0
    real = cli.census_rows
    monkeypatch.setattr(cli, "census_rows",
                        lambda n, rows: real(n, rows)._replace(max_class_codes=[0]))


def _swap_fields(value):
    return ",".join(":".join(reversed(item.split(":"))) for item in value.split(","))


# fault -> (installer, n, {row: detail} of every row that must fail)
VERIFY_FAULTS = {
    "labellings_skewed_in_layer_2": (_skew_labellings, 4, {
        "adgs_by_edges_vs_recurrence": "first mismatch at e=2: expected 60, got 68",
        "adg_total_vs_recurrence": "expected 543, got 551",
        "size1_classes_vs_recurrence": "expected 59, got 60",
        "class_total_vs_published": "expected 185, got 188",
        "ratio_vs_published": "expected 0.34070, got 0.34120",
        "size1_ratio_vs_published": "expected 0.31892, got 0.31915",
        "labelled_graphs_per_layer": "first mismatch at e=2: expected 15, got 17",
        "full_distribution_vs_brute_force": "first mismatch at (e, size)=(2, 1): expected 12, got 13",
        "classes_by_edges_vs_brute_force": "first mismatch at e=2: expected 27, got 30",
        "size_histogram_vs_brute_force": "first mismatch at size=1: expected 59, got 60"}),
    # the empty graph's one class moves to e=1: every total stays
    "adg_moved_between_layers": (_move_classes(((0, 1), -1), ((1, 1), 1)), 4, {
        "adgs_by_edges_vs_recurrence": "first mismatch at e=0: expected 1, got 0",
        "full_distribution_vs_brute_force": "first mismatch at (e, size)=(0, 1): expected 1, got 0",
        "classes_by_edges_vs_brute_force": "first mismatch at e=0: expected 1, got 0"}),
    # the empty graph's one class grows to size 2: one size-1 class fewer
    "class_moved_from_size_1_to_2": (_move_classes(((0, 1), -1), ((0, 2), 1)), 4, {
        "adgs_by_edges_vs_recurrence": "first mismatch at e=0: expected 1, got 2",
        "adg_total_vs_recurrence": "expected 543, got 544",
        "size1_classes_vs_recurrence": "expected 59, got 58",
        "ratio_vs_published": "expected 0.34070, got 0.34007",
        "size1_ratio_vs_published": "expected 0.31892, got 0.31351",
        "full_distribution_vs_brute_force": "first mismatch at (e, size)=(0, 1): expected 1, got 0",
        "size_histogram_vs_brute_force": "first mismatch at size=1: expected 59, got 58"}),
    # classes change size within layers 3 and 4: every total, every layer's
    # ADGs and classes, and the size histogram stay
    "classes_swapped_between_sizes_within_layers": (_move_classes(
        ((4, 1), -1), ((4, 3), -1), ((4, 2), 2), ((3, 2), -2), ((3, 1), 1), ((3, 3), 1)), 4, {
        "full_distribution_vs_brute_force": "first mismatch at (e, size)=(3, 1): expected 16, got 17"}),
    "ratio_line_one_unit_high": (_misprint("ratio", lambda v: v.replace("0.34070", "0.34071")), 4, {
        "ratio_vs_published": "expected 0.34070, got 0.34071"}),
    "skeleton_with_one_orientation_too_many": (_one_orientation_too_many, 5, {
        "adgs_by_edges_vs_recurrence": "first mismatch at e=4: expected 3050, got 3065",
        "adg_total_vs_recurrence": "expected 29281, got 29296",
        "size1_classes_vs_recurrence": "expected 2616, got 2601",
        "ratio_vs_published": "expected 0.29992, got 0.29977",
        "size1_ratio_vs_published": "expected 0.29788, got 0.29617",
        # skeleton 788 has 14 acyclic orientations
        "orientation_count_vs_source_sets": "first mismatch at code=788: expected 14, got 15",
        "full_distribution_vs_brute_force":
            "first mismatch at (e, size)=(4, 1): expected 385, got 370",
        "size_histogram_vs_brute_force": "first mismatch at size=1: expected 2616, got 2601"}),
    "classes_by_edges_line_reversed": (
        _misprint("classes_by_edges", lambda v: ",".join(reversed(v.split(",")))), 4, {
            "classes_by_edges_vs_brute_force": "first mismatch at e=1: expected 6, got 24"}),
    "size_histogram_line_as_count_size": (_misprint("size_histogram", _swap_fields), 4, {
        "size_histogram_vs_brute_force": "first mismatch at size=1: expected 59, got 24"}),
    "adgs_by_edges_line_shifted_by_one": (
        _misprint("adgs_by_edges", lambda v: "0," + v.rpartition(",")[0]), 4, {
            "adgs_by_edges_vs_recurrence": "first mismatch at e=0: expected 1, got 0"}),
    "vconfig_count_one_short_on_4_edges": (_vconfig_count_one_short_on_4_edges, 5, {
        "vconfig_count_vs_degrees": "first mismatch at code=786: expected 3, got 2"}),
    # both n=2 skeletons have no v-configuration, so both codes are maxima
    "max_codes_keep_the_first_tie_only": (_first_tied_code_only, 2, {
        "max_vconfig_codes_vs_degrees": "expected 0,1, got 0",
        "max_class_codes_vs_skeleton_rows": "expected 0,1, got 0"}),
    "class_maxima_recorded_at_code_0": (_class_maxima_at_code_0, 4, {
        "max_class_codes_vs_skeleton_rows": "expected 33, got 0"}),
}


@functools.cache
def _clean_verify(n: int) -> list[str]:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["verify", "--n", str(n)]) == 0
    return out.getvalue().splitlines()


@pytest.mark.parametrize("fault", VERIFY_FAULTS)
def test_verify_catches_injected_faults(fault, capsys, monkeypatch):
    # the rows named fail with their detail; every other row prints ok, as without the fault
    install, n, fails = VERIFY_FAULTS[fault]
    clean = _clean_verify(n)
    install(monkeypatch)
    code, out, _ = run(capsys, "verify", "--n", str(n))
    want = [f"FAIL {ln[5:]}: {fails[ln[5:]]}" if ln[5:] in fails else ln for ln in clean[:-1]]
    assert (code, out.splitlines()) == (1, [*want, f"{len(fails)} check(s) failed for n={n}"])


def test_verify_report_and_totals_match_the_census_and_the_kernel():
    for n in range(1, 7):
        records = list(census.iter_skeletons(n))
        assert census.census_rows(n, census.skeleton_rows(records)) == census.census(n, records)


def test_skeleton_rows_are_lazy():
    first = next(iter(census.iter_skeletons(4)))

    def records():
        yield first
        raise RuntimeError("second record asked for")

    rows = census.skeleton_rows(records())
    rec, vconfigs, sizes = next(rows)
    assert rec is first and vconfigs == 0 and sizes == {1: 1}
    with pytest.raises(RuntimeError, match="second record"):
        next(rows)


def test_verify_classifies_each_skeleton_once(capsys, monkeypatch):
    # one verify --n 5 run, and one single-process census, each lists the
    # v-configurations of every skeleton once, classifies it once and merges
    # no reports
    real_list, real_kernel, real_merge = (markov.find_v_configurations,
                                          markov.classify_skeleton, census.merge)
    listed, calls, merges = [], [], []

    def counted_list(g):
        listed.append(g.code)
        return real_list(g)

    def counted(g, vcs):
        calls.append(g.code)
        return real_kernel(g, vcs)

    def counted_merge(a, b):
        merges.append((a.n, b.n))
        return real_merge(a, b)

    # every mecensus module that bound one of them under its own name
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("mecensus"):
            for name, real, fake in (("find_v_configurations", real_list, counted_list),
                                     ("classify_skeleton", real_kernel, counted),
                                     ("merge", real_merge, counted_merge)):
                if getattr(mod, name, None) is real:
                    monkeypatch.setattr(mod, name, fake)
    codes = sorted(r.graph.code for r in census.iter_skeletons(5))
    assert len(codes) == reference.KNOWN_UNLABELED_GRAPHS[5] == 34
    for argv in (("verify", "--n", "5"), ("census", "--n", "5", "--jobs", "1")):
        code, out, _ = run(capsys, *argv)
        assert code == 0, out
        assert sorted(listed) == sorted(calls) == codes
        assert merges == []
        listed.clear()
        calls.clear()


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


def test_extrapolate_rejects_n_cur_below_2(capsys):
    # r_prev is the ratio at n_cur - 1, which must be a vertex count of at least 1
    for n_cur in ("0", "1"):
        code, out, err = run(capsys, "extrapolate", "--r-prev", "0.3",
                             "--r-cur", "0.2", "--n-cur", n_cur, "--n-target", "4")
        assert code == 2
        assert out == ""
        assert err == "error: n_cur must be >= 2\n"


@pytest.mark.parametrize("r_prev, r_cur", [("inf", "inf"), ("nan", "0.3"), ("2", "1.5")])
def test_extrapolate_rejects_ratios_that_are_not_proportions(r_prev, r_cur, capsys):
    argv = ("extrapolate", "--r-prev", r_prev, "--r-cur", r_cur,
            "--n-cur", "10", "--n-target", "12")
    if r_prev in ("inf", "nan"):
        # not ASCII decimals, so argparse rejects them before extrapolate_ratio
        err = usage_error(capsys, *argv)
        assert f"expected ASCII digits[.digits], got {r_prev!r}" in err
    else:
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: need 0 < r_cur <= r_prev <= 1")


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
