"""Command line front end.

Commands: generate (graph catalogs), census (report files), verify
(oracle suite), extrapolate (ratio recursion).  Exit codes: 0 success,
1 verification mismatch, 2 invalid usage, bad input or a dead census worker.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import Counter
from math import comb
from pathlib import Path

from . import catalog
from .census import (
    CensusWorkerError,
    SkeletonRecord,
    census,
    census_rows,
    essential_dag_count,
    iter_skeletons,
    robinson_adg_count,
    robinson_adgs_by_edges,
    skeleton_rows,
    usable_cpus,
)
from .graphs import MAX_VERTICES, pair_count
from .orderly import generate_all


def _digits(text: str) -> int:
    """argparse type for a count, by the rule _parse_edges applies to each bound."""
    if re.fullmatch(r"\d+", text, re.ASCII) is None:
        raise argparse.ArgumentTypeError(f"expected ASCII digits, got {text!r}")
    return int(text)


def _ratio(text: str) -> float:
    """argparse type for a ratio: ASCII digits, then optionally '.' and more ASCII digits."""
    if re.fullmatch(r"\d+(?:\.\d+)?", text, re.ASCII) is None:
        raise argparse.ArgumentTypeError(f"expected ASCII digits[.digits], got {text!r}")
    return float(text)


def _parse_edges(text: str, m: int) -> tuple[int, int]:
    # ASCII digits alone: int() also takes signs, spaces, underscores and other scripts
    bounds = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text, re.ASCII)
    if bounds is None:
        raise ValueError(f"--edges {text!r}: expected E or LO..HI")
    lo = int(bounds[1])
    hi = int(bounds[2] or bounds[1])
    if not 0 <= lo <= hi <= m:
        raise ValueError(f"--edges {text!r}: range outside 0..{m}")
    return lo, hi


def cmd_generate(args) -> int:
    root = Path(args.graphs)
    for layer in generate_all(args.n):
        path = catalog.catalog_path(root, args.n, layer.edge_count)
        catalog.write_catalog(path, args.n, layer.edge_count,
                              map(SkeletonRecord, layer.graphs, layer.labellings))
        print(f"wrote {path} ({len(layer.graphs)} graphs)")
    return 0


def _load_or_generate(n: int, graphs_dir: str | None,
                      edges: tuple[int, int] | None) -> list[SkeletonRecord]:
    """Generate, or read every wanted layer of graphs_dir: a missing or bad file raises."""
    lo, hi = (0, pair_count(n)) if edges is None else edges
    if graphs_dir is None:
        return [r for r in iter_skeletons(n) if lo <= r.graph.edge_count <= hi]
    records = []
    for e in range(lo, hi + 1):
        path = catalog.catalog_path(graphs_dir, n, e)
        fn, fe, recs = catalog.read_catalog(path)
        if fn != n or fe != e:
            raise catalog.CatalogError(f"{path}: header does not match its location")
        records.extend(recs)
    return records


def cmd_census(args) -> int:
    if args.format == "csv" and not args.out:
        raise ValueError("--format csv needs --out to place the sidecar files")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    m = pair_count(args.n)
    edges = _parse_edges(args.edges, m) if args.edges else None
    records = _load_or_generate(args.n, args.graphs, edges)
    report = census(args.n, skeletons=records, jobs=args.jobs)
    if args.out:
        catalog.write_report(args.out, report, edges)
        if args.format == "csv":
            for p in catalog.write_csv_sidecars(Path(args.out), report):
                print(f"wrote {p}")
        print(f"wrote {args.out}")
    else:
        print("\n".join(catalog.report_lines(report, edges)))
    return 0


def _compare(got, want, key: str | None = None) -> tuple[bool, str]:
    """(ok, detail) for one value, or with key for two tables {k: count} (missing k counts 0)."""
    if key is None:
        return got == want, f"expected {want}, got {got}"
    bad = [k for k in got.keys() | want.keys() if got.get(k, 0) != want.get(k, 0)]
    k = min(bad, default=None)
    return not bad, f"first mismatch at {key}={k}: expected {want.get(k, 0)}, got {got.get(k, 0)}"


def _verify_checks(n: int):
    """Yield (name, ok, detail) for every oracle applicable at this n.

    Each check is one row (name, got, want), or (name, got, want, key) for
    tables, for _compare.  Each skeleton is classified once: census_rows folds
    skeleton_rows as they stream past, and tallied keeps each skeleton's
    orientation total, sum(size * count), and v-configuration count by its
    code.  The printed by-edge and by-size lines are parsed back into tables.
    """
    from . import oracles, reference  # verify-only; generate and census start without them
    records = list(iter_skeletons(n))
    orientations, vconfigs = {}, {}

    def tallied(rows):
        for rec, nv, sizes in rows:
            orientations[rec.graph.code] = sum(size * cnt for size, cnt in sizes.items())
            vconfigs[rec.graph.code] = nv
            yield rec, nv, sizes

    report = census_rows(n, tallied(skeleton_rows(records)))
    # the report as census --out writes it: each printed field against its expected string
    printed = dict(line.split(" = ", 1) for line in catalog.report_lines(report))
    by_index = {field: dict(enumerate(map(int, printed[field].split(","))))
                for field in ("classes_by_edges", "adgs_by_edges")}
    m = pair_count(n)
    labelled = Counter()
    for rec in records:
        labelled[rec.graph.edge_count] += rec.labellings
    by_degrees = {rec.graph.code: oracles.vconfig_count(rec.graph) for rec in records}
    top = max(by_degrees.values())

    rows = [
        ("adgs_by_edges_vs_recurrence", by_index["adgs_by_edges"],
         dict(enumerate(robinson_adgs_by_edges(n))), "e"),
        *[(name, printed[field], str(want)) for name, field, want in (
            ("adg_total_vs_recurrence", "total_adgs", robinson_adg_count(n)),
            ("size1_classes_vs_recurrence", "size1_classes", essential_dag_count(n)),
            ("class_total_vs_published", "total_classes", reference.KNOWN_CLASS_COUNTS[n]),
            ("ratio_vs_published", "ratio", reference.KNOWN_RATIOS[n]),
            ("size1_ratio_vs_published", "size1_ratio", reference.KNOWN_SIZE1_RATIOS[n]),
            ("max_vconfigs_vs_published", "max_vconfigs", reference.KNOWN_MAX_VCONFIGS[n]),
            ("max_classes_vs_published", "max_classes_per_skeleton",
             reference.KNOWN_MAX_CLASSES[n]))],
        ("unlabeled_total_vs_published", len(records), reference.KNOWN_UNLABELED_GRAPHS[n]),
        ("labelled_graphs_per_layer", labelled, {e: comb(m, e) for e in range(m + 1)}, "e"),
        ("orientation_count_vs_source_sets", orientations,
         {rec.graph.code: oracles.acyclic_orientation_count(rec.graph) for rec in records},
         "code"),
        ("vconfig_count_vs_degrees", vconfigs, by_degrees, "code"),
        ("max_vconfig_codes_vs_degrees", printed["max_vconfig_codes"],
         ",".join(f"{code:x}" for code, k in sorted(by_degrees.items()) if k == top)),
    ]
    if n <= 6:
        rows.append(("canonical_codes_vs_brute_force", Counter(rec.graph.code for rec in records),
                     Counter(oracles.brute_force_unlabeled(n)), "code"))
    if n <= 5:
        # the by-edge and by-size margins summed here, not by the report's views
        joint = oracles.brute_force_census(n)
        by_edges, by_size = Counter(), Counter()
        for (e, size), cnt in joint.items():
            by_edges[e] += cnt
            by_size[size] += cnt
        histogram = dict(map(int, item.split(":")) for item in printed["size_histogram"].split(","))
        rows += [("full_distribution_vs_brute_force", report.joint, joint, "(e, size)"),
                 ("classes_by_edges_vs_brute_force", by_index["classes_by_edges"], by_edges, "e"),
                 ("size_histogram_vs_brute_force", histogram, by_size, "size")]
    for name, got, want, *key in rows:
        yield (name, *_compare(got, want, *key))


def cmd_verify(args) -> int:
    failures = 0
    for name, ok, detail in _verify_checks(args.n):
        if ok:
            print(f"ok   {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    if failures:
        print(f"{failures} check(s) failed for n={args.n}")
        return 1
    print(f"all checks passed for n={args.n}")
    return 0


def cmd_extrapolate(args) -> int:
    from .analysis import extrapolate_ratio, ratio_asymptote
    r_target = extrapolate_ratio(args.r_prev, args.r_cur, args.n_cur, args.n_target)
    asymptote = ratio_asymptote(args.r_prev, args.r_cur, args.n_cur)
    print(f"r[{args.n_target}] = {r_target:.5f}")
    print(f"asymptote_estimate = {asymptote:.5f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mecensus",
        description="Count Markov equivalence classes of acyclic digraphs by exhaustive enumeration.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write graph catalog files")
    p.add_argument("--n", type=_digits, required=True, choices=range(1, MAX_VERTICES + 1))
    p.add_argument("--graphs", default="graphs", help="catalog output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("census", help="run a census and emit a report")
    p.add_argument("--n", type=_digits, required=True, choices=range(1, MAX_VERTICES + 1))
    p.add_argument("--edges", help="restrict to an edge count or range")
    p.add_argument("--jobs", type=_digits, default=usable_cpus(),
                   help="processes, one slice each: this one plus up to N-1 forked "
                        "children; at most one per usable CPU (default: every usable "
                        "CPU, %(default)s here)")
    p.add_argument("--graphs", help="catalog directory to read instead of generating")
    p.add_argument("--out", help="report file path (default: print to stdout)")
    p.add_argument("--format", choices=("report", "csv"), default="report",
                   help="csv also writes by-edge/by-size/joint sidecar tables")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="run the oracle suite")
    p.add_argument("--n", type=_digits, required=True, choices=range(1, 9))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("extrapolate", help="extrapolate the class/ADG ratio")
    p.add_argument("--r-prev", type=_ratio, required=True, dest="r_prev")
    p.add_argument("--r-cur", type=_ratio, required=True, dest="r_cur")
    p.add_argument("--n-cur", type=_digits, required=True, dest="n_cur")
    p.add_argument("--n-target", type=_digits, required=True, dest="n_target")
    p.set_defaults(func=cmd_extrapolate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, catalog.CatalogError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CensusWorkerError as exc:
        print(f"error: census worker died: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
