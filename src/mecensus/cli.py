"""Command line front end.

Commands: generate (graph catalogs), census (report files), verify
(oracle suite), extrapolate (ratio recursion).  Exit codes: 0 success,
1 verification mismatch, 2 invalid usage, bad input or a dead census worker.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures.process import BrokenProcessPool
from itertools import groupby
from math import comb
from operator import attrgetter
from pathlib import Path

from . import catalog, reference
from .census import (
    SkeletonRecord,
    census,
    extrapolate_ratio,
    iter_skeletons,
    ratio_asymptote,
    robinson_adg_count,
)
from .graphs import MAX_VERTICES, pair_count
from .markov import classify_skeleton


def _parse_edges(text: str, m: int) -> tuple[int, int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if not 0 <= lo <= hi <= m:
        raise ValueError(f"edge range {text!r} outside 0..{m}")
    return lo, hi


def cmd_generate(args) -> int:
    edges = _parse_edges(args.edges, pair_count(args.n)) if args.edges else None
    root = Path(args.graphs)
    for e, layer in groupby(iter_skeletons(args.n, edges), key=attrgetter("graph.edge_count")):
        records = list(layer)
        path = catalog.catalog_path(root, args.n, e)
        catalog.write_catalog(path, args.n, e, records)
        print(f"wrote {path} ({len(records)} graphs)")
    return 0


def _load_or_generate(n: int, graphs_dir: str | None,
                      edges: tuple[int, int] | None) -> list[SkeletonRecord]:
    m = pair_count(n)
    wanted = range(m + 1) if edges is None else range(edges[0], edges[1] + 1)
    if graphs_dir is not None:
        paths = [(e, catalog.catalog_path(graphs_dir, n, e)) for e in wanted]
        if all(p.exists() for _, p in paths):
            records = []
            for e, p in paths:
                fn, fe, recs = catalog.read_catalog(p)
                if fn != n or fe != e:
                    raise catalog.CatalogError(f"{p}: header does not match its location")
                records.extend(recs)
            return records
    return list(iter_skeletons(n, edges))


def cmd_census(args) -> int:
    m = pair_count(args.n)
    edges = _parse_edges(args.edges, m) if args.edges else None
    records = _load_or_generate(args.n, args.graphs, edges)
    report = census(args.n, skeletons=records, edges=edges, jobs=args.jobs)
    if args.out:
        catalog.write_report(args.out, report, edges)
        if args.format == "csv":
            for p in catalog.write_csv_sidecars(Path(args.out), report, args.size_cap):
                print(f"wrote {p}")
        print(f"wrote {args.out}")
    else:
        if args.format == "csv":
            raise ValueError("--format csv needs --out to place the sidecar files")
        print("\n".join(catalog.report_lines(report, edges)))
    return 0


def _verify_checks(n: int):
    """Yield (name, ok, detail) for every oracle applicable at this n."""
    from . import oracles  # brings numpy; only verify needs it

    layers = {e: list(recs) for e, recs in
              groupby(iter_skeletons(n), key=attrgetter("graph.edge_count"))}
    records = [rec for e in sorted(layers) for rec in layers[e]]
    report = census(n, skeletons=records)

    robinson = robinson_adg_count(n)
    yield ("adg_total_vs_recurrence", report.total_adgs == robinson,
           f"expected {robinson}, got {report.total_adgs}")

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
        total = sum(len(v) for v in layers.values())
        want = reference.KNOWN_UNLABELED_GRAPHS[n]
        yield ("unlabeled_total_vs_published", total == want,
               f"expected {want}, got {total}")

    m = pair_count(n)
    bad = [(e, sum(r.labellings for r in layers[e]), comb(m, e))
           for e in sorted(layers)
           if sum(r.labellings for r in layers[e]) != comb(m, e)]
    yield ("labelled_graphs_per_layer", not bad,
           "mismatches at " + ", ".join(f"e={e}: got {g}, want {w}" for e, g, w in bad[:3])
           if bad else "all layers sum to C(m, e)")

    if n <= 6:
        mism = []
        for e in sorted(layers):
            for rec in layers[e]:
                want = abs(oracles.chromatic_polynomial_at(rec.graph, -1))
                got = classify_skeleton(rec.graph).total_orientations
                if want != got:
                    mism.append((rec.graph.code, want, got))
        yield ("orientation_count_vs_chromatic", not mism,
               f"first mismatch {mism[0]}" if mism else "all skeletons agree")

        brute = oracles.brute_force_unlabeled(n)
        ours = sorted(g.graph.code for recs in layers.values() for g in recs)
        yield ("canonical_codes_vs_brute_force", brute == ours,
               f"{len(set(brute) ^ set(ours))} codes differ" if brute != ours else "identical")

    if n <= 5:
        bf = oracles.brute_force_census(n)
        sizes_bf = sorted(bf.classes.values())
        sizes_us = sorted(
            s for size, cnt in report.size_histogram.items() for s in [size] * cnt)
        ok = (bf.total_dags == report.total_adgs
              and bf.dags_by_edges == report.adgs_by_edges
              and len(bf.classes) == report.total_classes
              and sizes_bf == sizes_us)
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
    p.add_argument("--edges", help="restrict to an edge count or range, e.g. 4 or 2..5")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("census", help="run a census and emit a report")
    p.add_argument("--n", type=int, required=True, choices=range(1, MAX_VERTICES + 1))
    p.add_argument("--edges", help="restrict to an edge count or range")
    p.add_argument("--jobs", type=int, default=1, help="worker process count")
    p.add_argument("--graphs", help="catalog directory to load instead of regenerating")
    p.add_argument("--out", help="report file path (default: print to stdout)")
    p.add_argument("--format", choices=("report", "csv"), default="report",
                   help="csv also writes by-edge/by-size/joint sidecar tables")
    p.add_argument("--size-cap", type=int, dest="size_cap",
                   help="largest class size exported to the CSV tables")
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
    except BrokenProcessPool as exc:
        print(f"error: census worker died: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
