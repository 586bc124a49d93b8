"""On-disk formats: graph catalogs and census reports.

Catalogs are line-oriented text, one file per (n, edge count):

    MECCAT 1 n=<N> e=<E> count=<C>
    <hex code> <labellings>
    ...

Codes are lowercase hexadecimal with the most significant pair leading
and must be strictly descending; a file is read back only if every line is
exactly what the writer would write for its values.  Reports are UTF-8 key/value documents; CSV sidecars
carry the by-edge, by-size, and joint (edges x size) tables.
"""

from __future__ import annotations

import os
from math import comb
from pathlib import Path
from typing import Iterable

from .census import CensusReport, SkeletonRecord
from .graphs import MAX_VERTICES, Graph, pair_count

FORMAT_VERSION = 1


class CatalogError(ValueError):
    """A catalog file failed validation; message names the file."""


def catalog_path(root: Path | str, n: int, e: int) -> Path:
    return Path(root) / f"n{n}" / f"e{e}.cat"


def _header_line(n: int, e: int, count: int) -> str:
    return f"MECCAT {FORMAT_VERSION} n={n} e={e} count={count}"


def _record_line(code: int, labellings: int) -> str:
    return f"{code:x} {labellings}"


def _write_atomic(path: Path, text: str) -> None:
    """Write via a rename, so a failure leaves no partial file under path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_catalog(path: Path | str, n: int, e: int,
                  records: Iterable[SkeletonRecord]) -> None:
    """Write one layer file."""
    records = list(records)
    lines = [_header_line(n, e, len(records))]
    lines += [_record_line(rec.graph.code, rec.labellings) for rec in records]
    _write_atomic(Path(path), "\n".join(lines) + "\n")


def read_catalog(path: Path | str) -> tuple[int, int, list[SkeletonRecord]]:
    """Parse and validate one layer file.

    Structural checks only (every line exactly as write_catalog writes
    its values, the header's n and e ranges, counts, descending codes,
    edge counts, and labellings summing to the C(m, e) labelled graphs of
    the layer); canonicity of the codes is not re-proved here.
    """
    path = Path(path)
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CatalogError(f"{path}: {exc}") from None
    if not text:
        raise CatalogError(f"{path}: empty file")
    if not text.endswith("\n"):
        raise CatalogError(f"{path}: no newline at end of file")
    lines = text[:-1].split("\n")
    try:
        _, _, n_field, e_field, count_field = lines[0].split(" ")
        n, e, count = int(n_field[2:]), int(e_field[2:]), int(count_field[6:])
        if lines[0] != _header_line(n, e, count):
            raise ValueError
    except ValueError:
        raise CatalogError(f"{path}: bad header {lines[0]!r}") from None
    if not 1 <= n <= MAX_VERTICES:
        raise CatalogError(f"{path}: vertex count {n} outside 1..{MAX_VERTICES}")
    if not 0 <= e <= pair_count(n):
        raise CatalogError(f"{path}: edge count {e} outside 0..{pair_count(n)}")
    body = lines[1:]
    if len(body) != count:
        raise CatalogError(f"{path}: header promises {count} records, found {len(body)}")
    records = []
    prev_code = None
    for ln in body:
        try:
            code_hex, lab_text = ln.split(" ")
            code, lab = int(code_hex, 16), int(lab_text)
            if ln != _record_line(code, lab):
                raise ValueError
        except ValueError:
            raise CatalogError(f"{path}: bad record {ln!r}") from None
        if not 0 <= code < 1 << pair_count(n):
            raise CatalogError(f"{path}: code {code_hex} out of range for n={n}")
        if code.bit_count() != e:
            raise CatalogError(f"{path}: code {code_hex} has {code.bit_count()} edges, not {e}")
        if lab < 1:
            raise CatalogError(f"{path}: nonpositive labelling count in {ln!r}")
        if prev_code is not None and code >= prev_code:
            raise CatalogError(f"{path}: codes not strictly descending at {code_hex}")
        prev_code = code
        records.append(SkeletonRecord(graph=Graph(n, code), labellings=lab))
    labelled = sum(r.labellings for r in records)
    want = comb(pair_count(n), e)
    if labelled != want:
        raise CatalogError(f"{path}: labellings sum to {labelled}, "
                           f"not C({pair_count(n)}, {e}) = {want}")
    return n, e, records


def report_lines(report: CensusReport, edges: tuple[int, int] | None = None) -> list[str]:
    lines = [
        f"format = mecreport {FORMAT_VERSION}",
        f"n = {report.n}",
    ]
    if edges is not None:
        lines.append(f"edges = {edges[0]}..{edges[1]}")
    lines += [
        f"total_adgs = {report.total_adgs}",
        f"total_classes = {report.total_classes}",
        # int / int is correctly rounded, so these digits are those of the exact ratios
        f"ratio = {report.total_classes / report.total_adgs:.5f}",
        f"size1_classes = {report.size_histogram.get(1, 0)}",
        f"size1_ratio = {report.size_histogram.get(1, 0) / report.total_classes:.5f}",
        f"max_vconfigs = {report.max_vconfigs}",
        "max_vconfig_codes = " + ",".join(f"{c:x}" for c in report.max_vconfig_codes),
        f"max_classes_per_skeleton = {report.max_classes_per_skeleton}",
        "max_class_codes = " + ",".join(f"{c:x}" for c in report.max_class_codes),
        "classes_by_edges = " + ",".join(str(c) for c in report.classes_by_edges),
        "adgs_by_edges = " + ",".join(str(c) for c in report.adgs_by_edges),
        "size_histogram = " + ",".join(f"{s}:{c}" for s, c in sorted(report.size_histogram.items())),
    ]
    return lines


def write_report(path: Path | str, report: CensusReport,
                 edges: tuple[int, int] | None = None) -> None:
    _write_atomic(Path(path), "\n".join(report_lines(report, edges)) + "\n")


def write_csv_sidecars(base: Path | str, report: CensusReport) -> list[Path]:
    """by_edges / by_size / joint tables next to the report; returns the paths."""
    base = Path(base)
    by_edges = [(e, c, a) for e, (c, a) in
                enumerate(zip(report.classes_by_edges, report.adgs_by_edges))]
    by_size = sorted(report.size_histogram.items())
    joint = [(e, size, cnt) for (e, size), cnt in sorted(report.joint.items())]
    paths = []
    for suffix, header, rows in (("by_edges", "edge_count,classes,adgs", by_edges),
                                 ("by_size", "class_size,classes", by_size),
                                 ("joint", "edge_count,class_size,classes", joint)):
        path = base.with_name(f"{base.name}.{suffix}.csv")
        lines = [header] + [",".join(map(str, row)) for row in rows]
        _write_atomic(path, "\n".join(lines) + "\n")
        paths.append(path)
    return paths
