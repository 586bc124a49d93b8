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
from itertools import groupby
from math import comb
from operator import attrgetter
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
)
from .graphs import MAX_VERTICES, pair_count


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
    for e, layer in groupby(iter_skeletons(args.n), key=attrgetter("graph.edge_count")):
        records = list(layer)
        path = catalog.catalog_path(root, args.n, e)
        catalog.write_catalog(path, args.n, e, records)
        print(f"wrote {path} ({len(records)} graphs)")
    return 0


def _load_or_generate(n: int, graphs_dir: str | None,
                      edges: tuple[int, int] | None) -> list[SkeletonRecord]:
    """Generate, or read every wanted layer of graphs_dir: a missing or bad file raises."""
    if graphs_dir is None:
        return list(iter_skeletons(n, edges))
    lo, hi = (0, pair_count(n)) if edges is None else edges
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


def _verify_checks(n: int):
    """Yield (name, ok, detail) for every oracle applicable at this n.

    Each skeleton is classified once: census_rows folds skeleton_rows as they
    stream past, and tallied keeps each row's orientation total, sum(size * count).
    """
    from . import oracles, reference  # verify-only; generate and census start without them
    records = list(iter_skeletons(n))
    totals = []

    def tallied(rows):
        for row in rows:
            totals.append(sum(size * cnt for size, cnt in row[2].items()))
            yield row

    report = census_rows(n, tallied(skeleton_rows(records)))

    robinson = robinson_adg_count(n)
    yield ("adg_total_vs_recurrence", report.total_adgs == robinson,
           f"expected {robinson}, got {report.total_adgs}")
    by_edges = robinson_adgs_by_edges(n)
    bad = [e for e, (got, want) in enumerate(zip(report.adgs_by_edges, by_edges)) if got != want]
    yield ("adgs_by_edges_vs_recurrence", not bad,
           f"first mismatch at e={bad[0]}: expected {by_edges[bad[0]]}, "
           f"got {report.adgs_by_edges[bad[0]]}" if bad else "all layers agree")
    essential = essential_dag_count(n)
    size1 = report.size_histogram.get(1, 0)
    yield ("size1_classes_vs_recurrence", size1 == essential,
           f"expected {essential}, got {size1}")

    if n in reference.KNOWN_CLASS_COUNTS:
        want = reference.KNOWN_CLASS_COUNTS[n]
        yield ("class_total_vs_published", report.total_classes == want,
               f"expected {want}, got {report.total_classes}")
        ok = reference.matches_published_ratio(report.ratio, reference.KNOWN_RATIOS[n])
        yield ("ratio_vs_published", ok,
               f"expected {reference.KNOWN_RATIOS[n]}, got {float(report.ratio):.5f}")
        ok = reference.matches_published_ratio(report.size1_ratio,
                                               reference.KNOWN_SIZE1_RATIOS[n])
        yield ("size1_ratio_vs_published", ok,
               f"expected {reference.KNOWN_SIZE1_RATIOS[n]}, got {float(report.size1_ratio):.5f}")
        yield ("max_vconfigs_vs_published",
               report.max_vconfigs == reference.KNOWN_MAX_VCONFIGS[n],
               f"expected {reference.KNOWN_MAX_VCONFIGS[n]}, got {report.max_vconfigs}")
        yield ("max_classes_vs_published",
               report.max_classes_per_skeleton == reference.KNOWN_MAX_CLASSES[n],
               f"expected {reference.KNOWN_MAX_CLASSES[n]}, got {report.max_classes_per_skeleton}")

    if n in reference.KNOWN_UNLABELED_GRAPHS:
        want = reference.KNOWN_UNLABELED_GRAPHS[n]
        yield ("unlabeled_total_vs_published", len(records) == want,
               f"expected {want}, got {len(records)}")

    m = pair_count(n)
    bad = [(e, got, want) for e, recs in groupby(records, key=attrgetter("graph.edge_count"))
           if (got := sum(r.labellings for r in recs)) != (want := comb(m, e))]
    yield ("labelled_graphs_per_layer", not bad,
           "mismatches at " + ", ".join(f"e={e}: got {g}, want {w}" for e, g, w in bad[:3])
           if bad else "all layers sum to C(m, e)")

    counters = [("orientation_count_vs_source_sets", oracles.acyclic_orientation_count)]
    if n <= 6:
        counters.append(("orientation_count_vs_chromatic",
                         lambda g: abs(oracles.chromatic_polynomial_at(g, -1))))
    for name, count in counters:
        mism = [(rec.graph.code, want, got) for rec, got in zip(records, totals)
                if (want := count(rec.graph)) != got]
        yield (name, not mism, f"first mismatch {mism[0]}" if mism else "all skeletons agree")

    if n <= 6:
        brute = oracles.brute_force_unlabeled(n)
        ours = sorted(rec.graph.code for rec in records)
        yield ("canonical_codes_vs_brute_force", brute == ours,
               f"{len(set(brute) ^ set(ours))} codes differ" if brute != ours else "identical")

    if n <= 5:
        bf = oracles.brute_force_census(n)
        ok = (bf.total_dags == report.total_adgs
              and bf.dags_by_edges == report.adgs_by_edges
              and len(bf.classes) == report.total_classes
              and Counter(bf.classes.values()) == report.size_histogram)
        yield ("full_distribution_vs_brute_force", ok,
               f"DAGs {bf.total_dags}/{report.total_adgs}, "
               f"classes {len(bf.classes)}/{report.total_classes}")


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
    p.add_argument("--n", type=int, required=True, choices=range(1, MAX_VERTICES + 1))
    p.add_argument("--graphs", default="graphs", help="catalog output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("census", help="run a census and emit a report")
    p.add_argument("--n", type=int, required=True, choices=range(1, MAX_VERTICES + 1))
    p.add_argument("--edges", help="restrict to an edge count or range")
    p.add_argument("--jobs", type=int, default=1,
                   help="processes, one slice each: this one plus up to N-1 forked "
                        "children; at most one per usable CPU")
    p.add_argument("--graphs", help="catalog directory to read instead of generating")
    p.add_argument("--out", help="report file path (default: print to stdout)")
    p.add_argument("--format", choices=("report", "csv"), default="report",
                   help="csv also writes by-edge/by-size/joint sidecar tables")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="run the oracle suite")
    p.add_argument("--n", type=int, required=True, choices=range(1, 9))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("extrapolate", help="extrapolate the class/ADG ratio")
    p.add_argument("--r-prev", type=float, required=True, dest="r_prev")
    p.add_argument("--r-cur", type=float, required=True, dest="r_cur")
    p.add_argument("--n-cur", type=int, required=True, dest="n_cur")
    p.add_argument("--n-target", type=int, required=True, dest="n_target")
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
