"""On-disk formats: graph catalogs and census reports.

Catalogs are line-oriented text, one file per (n, edge count):

    MECCAT 1 n=<N> e=<E> count=<C>
    <hex code> <labellings>
    ...

Codes are hexadecimal with the most significant pair leading and must be
strictly descending.  Reports are UTF-8 key/value documents; CSV sidecars
carry the by-edge, by-size, and joint (edges x size) tables.
"""

from __future__ import annotations

import os
from math import comb
from pathlib import Path
from typing import Iterable

from .census import CensusReport, SkeletonRecord
from .graphs import Graph, pair_count

FORMAT_VERSION = 1


class CatalogError(Exception):
    """A catalog file failed validation; message names the file."""


def catalog_path(root: Path | str, n: int, e: int) -> Path:
    return Path(root) / f"n{n}" / f"e{e}.cat"


def write_catalog(path: Path | str, n: int, e: int,
                  records: Iterable[SkeletonRecord]) -> None:
    """Write one layer file; atomic via rename so failures leave no partial file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    records = list(records)
    tmp = path.with_suffix(".cat.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(f"MECCAT {FORMAT_VERSION} n={n} e={e} count={len(records)}\n")
            for rec in records:
                fh.write(f"{rec.graph.code:x} {rec.labellings}\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_catalog(path: Path | str) -> tuple[int, int, list[SkeletonRecord]]:
    """Parse and validate one layer file.

    Structural checks only (header, counts, descending codes, edge counts,
    and labellings summing to the C(m, e) labelled graphs of the layer);
    canonicity of the codes is not re-proved here.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CatalogError(f"{path}: empty file")
    head = lines[0].split()
    if (len(head) != 5 or head[0] != "MECCAT" or head[1] != str(FORMAT_VERSION)
            or not head[2].startswith("n=") or not head[3].startswith("e=")
            or not head[4].startswith("count=")):
        raise CatalogError(f"{path}: bad header {lines[0]!r}")
    try:
        n = int(head[2][2:])
        e = int(head[3][2:])
        count = int(head[4][6:])
    except ValueError:
        raise CatalogError(f"{path}: bad header {lines[0]!r}") from None
    body = [ln for ln in lines[1:] if ln]
    if len(body) != count:
        raise CatalogError(f"{path}: header promises {count} records, found {len(body)}")
    records = []
    prev_code = None
    for ln in body:
        parts = ln.split()
        try:
            code = int(parts[0], 16)
            lab = int(parts[1])
        except (IndexError, ValueError):
            raise CatalogError(f"{path}: bad record {ln!r}") from None
        if code >= 1 << pair_count(n):
            raise CatalogError(f"{path}: code {parts[0]} out of range for n={n}")
        if code.bit_count() != e:
            raise CatalogError(f"{path}: code {parts[0]} has {code.bit_count()} edges, not {e}")
        if lab < 1:
            raise CatalogError(f"{path}: nonpositive labelling count in {ln!r}")
        if prev_code is not None and code >= prev_code:
            raise CatalogError(f"{path}: codes not strictly descending at {parts[0]}")
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
        f"ratio = {float(report.ratio):.5f}",
        f"size1_classes = {report.size_histogram.get(1, 0)}",
        f"size1_ratio = {float(report.size1_ratio):.5f}",
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
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(report_lines(report, edges)) + "\n", encoding="utf-8")


def write_csv_sidecars(base: Path | str, report: CensusReport,
                       size_cap: int | None = None) -> list[Path]:
    """by_edges / by_size / joint tables next to the report; returns the paths."""
    base = Path(base)
    by_edges = base.with_name(base.name + ".by_edges.csv")
    with open(by_edges, "w", encoding="utf-8") as fh:
        fh.write("edge_count,classes,adgs\n")
        for e, (c, a) in enumerate(zip(report.classes_by_edges, report.adgs_by_edges)):
            fh.write(f"{e},{c},{a}\n")
    by_size = base.with_name(base.name + ".by_size.csv")
    with open(by_size, "w", encoding="utf-8") as fh:
        fh.write("class_size,classes\n")
        for size, cnt in sorted(report.size_histogram.items()):
            if size_cap is None or size <= size_cap:
                fh.write(f"{size},{cnt}\n")
    joint = base.with_name(base.name + ".joint.csv")
    with open(joint, "w", encoding="utf-8") as fh:
        fh.write("edge_count,class_size,classes\n")
        for (e, size), cnt in sorted(report.joint.items()):
            if size_cap is None or size <= size_cap:
                fh.write(f"{e},{size},{cnt}\n")
    return [by_edges, by_size, joint]
