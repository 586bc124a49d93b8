"""Spans around the calls one mecensus module makes into another.

The benchmark's traced run installs these wrappers from outside the
package: nothing under src/ knows about them.  A span records its name,
start, end, parent span, process id, run id and a few attributes (edge
count, orientations, ...).  Spans stay in memory and are written out when
the run ends; forked census workers append theirs to one file per worker
process after each top-level call, because pool workers leave through
os._exit and run no exit hooks.

summarise() turns a span list into the per-layer metrics of
BENCHMARK.json.  Layer self time is a span's duration minus the
durations of its direct children in the same process.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# span name -> (layer, [(module, attribute) the span is installed on]).
# Each attribute is the name a *caller* looks up, so a span sits on the
# boundary between two modules.  labelling_count is patched on its own
# module too because cli imports it from there at call time.
SPAN_SITES = {
    "generate_all": ("orderly", [("mecensus.cli", "generate_all"),
                                 ("mecensus.census", "generate_all")]),
    "labelling_count": ("automorphisms", [("mecensus.automorphisms", "labelling_count"),
                                          ("mecensus.census", "labelling_count")]),
    "find_v_configurations": ("markov", [("mecensus.census", "find_v_configurations")]),
    "classify_skeleton": ("markov", [("mecensus.census", "classify_skeleton"),
                                     ("mecensus.cli", "classify_skeleton")]),
    "census_skeletons": ("census", [("mecensus.census", "census_skeletons")]),
    "merge": ("census", [("mecensus.census", "merge")]),
    "census": ("census", [("mecensus.cli", "census")]),
    "read_catalog": ("catalog", [("mecensus.catalog", "read_catalog")]),
    "write_catalog": ("catalog", [("mecensus.catalog", "write_catalog")]),
    "write_report": ("catalog", [("mecensus.catalog", "write_report")]),
}
LAYERS = ("orderly", "automorphisms", "markov", "census", "catalog")

# per-layer metric -> (unit, better); the order BENCHMARK.json lists them in
PER_LAYER = {
    "orderly.generate_s": ("s", "lower"),
    "orderly.skeletons": ("count", "higher"),
    "orderly.accept_ratio": ("ratio", "higher"),
    "automorphisms.labelling_s": ("s", "lower"),
    "automorphisms.labelling_p99_ms": ("ms", "lower"),
    "markov.vconfig_s": ("s", "lower"),
    "markov.vconfigs": ("count", "lower"),
    "markov.classify_s": ("s", "lower"),
    "markov.orientations": ("count", "lower"),
    "markov.classes": ("count", "higher"),
    "markov.ns_per_orientation": ("ns", "lower"),
    "markov.classify_p50_ms": ("ms", "lower"),
    "markov.classify_p99_ms": ("ms", "lower"),
    "census.aggregate_s": ("s", "lower"),
    "census.merge_s": ("s", "lower"),
    "census.worker_busy_frac": ("ratio", "higher"),
    "catalog.read_s": ("s", "lower"),
    "catalog.write_s": ("s", "lower"),
    "catalog.bytes": ("bytes", "lower"),
    "catalog.report_write_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _cpu_pair() -> tuple[float, float]:
    """(this process, its reaped children) user + system CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


class Tracer:
    """In-memory span recorder; one per traced process tree."""

    def __init__(self, run_id: str, worker_dir: Path):
        self.run_id = run_id
        self.worker_dir = Path(worker_dir)
        self.root_pid = os.getpid()
        self.spans: list[dict] = []
        self.layers: list = []  # GenerationLayer objects seen by generate_all
        self.patched: list[str] = []
        self._stack: list[str] = []
        self._fork_depth = 0
        self._counter = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self.layers = []
        self._fork_depth = len(self._stack)

    def _open(self) -> tuple[str, str | None]:
        self._counter += 1
        sid = f"{os.getpid()}.{self._counter}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end, attrs) -> None:
        self._stack.pop()
        self.spans.append({"id": sid, "parent": parent, "name": name, "start": start,
                           "end": end, "pid": os.getpid(), "run": self.run_id,
                           "attrs": attrs})
        if os.getpid() != self.root_pid and len(self._stack) == self._fork_depth:
            self._flush_worker()

    def _flush_worker(self) -> None:
        path = self.worker_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def wrap(self, name: str, fn):
        """fn with a span around every call; attributes from _attrs()."""
        def traced(*args, **kwargs):
            sid, parent = self._open()
            cpu0 = _cpu_pair() if name == "census" else None
            start = perf_counter()
            attrs = None
            try:
                result = fn(*args, **kwargs)
                attrs = _attrs(name, args, kwargs, result, cpu0)
                return result
            finally:
                self._close(sid, parent, name, start, perf_counter(), attrs)
        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        """A span around each step of the generator fn returns.

        generate_all builds every layer before its first yield, so the
        spans cover the generation work and none of the consumer's.
        """
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid, parent = self._open()
                start = perf_counter()
                layer = None
                try:
                    layer = next(it)
                except StopIteration:
                    return
                finally:
                    attrs = None if layer is None else {"e": layer.edge_count,
                                                        "graphs": len(layer.graphs)}
                    self._close(sid, parent, name, start, perf_counter(), attrs)
                self.layers.append(layer)
                yield layer
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every call site in SPAN_SITES that exists in this version."""
        for name, (_, sites) in SPAN_SITES.items():
            for module_name, attr in sites:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                if name == "generate_all":
                    wrapper = self.wrap_generator(name, fn)
                else:
                    wrapper = self.wrap(name, fn)
                setattr(module, attr, wrapper)
                self.patched.append(f"{module_name}.{attr}")

    def accept_counts(self) -> tuple[int, int]:
        """(kept, tried) for the augmentation layers, recomputed from outside.

        tried counts augment_children over layers 0..m//2-1, kept counts
        the canonical graphs of layers 1..m//2 that survived.
        """
        from mecensus.graphs import pair_count
        from mecensus.orderly import augment_children
        kept = tried = 0
        for layer in self.layers:
            half = pair_count(layer.n) // 2
            if layer.edge_count < half:
                tried += sum(len(augment_children(g)) for g in layer.graphs)
            if 1 <= layer.edge_count <= half:
                kept += len(layer.graphs)
        return kept, tried

    def dump(self, path: Path) -> None:
        """Write this process's spans plus every worker's to one JSON file."""
        spans = list(self.spans)
        for worker_file in sorted(self.worker_dir.glob("spans-*.jsonl")):
            with open(worker_file, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
        kept, tried = self.accept_counts()
        doc = {"run": self.run_id, "patched": self.patched, "spans": spans,
               "accept": {"kept": kept, "tried": tried}}
        Path(path).write_text(json.dumps(doc), encoding="utf-8")


def _attrs(name, args, kwargs, result, cpu0):
    """Counts recorded at the span boundary, so ratios use the same calls."""
    if name == "classify_skeleton":
        return {"e": args[0].edge_count, "orientations": result.total_orientations,
                "classes": len(result.classes)}
    if name == "find_v_configurations":
        return {"e": args[0].edge_count, "vconfigs": len(result)}
    if name == "labelling_count":
        return {"e": args[0].edge_count}
    if name == "read_catalog":
        return {"e": result[1], "bytes": os.path.getsize(args[0])}
    if name == "write_catalog":
        return {"e": args[2], "bytes": os.path.getsize(args[0])}
    if name == "census":
        jobs = kwargs.get("jobs", 1)
        own, kids = _cpu_pair()
        # with workers the parent mostly waits; without, it is the worker
        busy = kids - cpu0[1] if jobs > 1 else own - cpu0[0]
        return {"jobs": jobs, "worker_cpu_s": busy}
    return None


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def summarise(doc: dict, traced_wall: float, untraced_wall: float) -> tuple[dict, dict]:
    """(per-layer metrics, detail) from one traced run's span document.

    census.aggregate_s is derived: census_skeletons self time, i.e. the
    span minus the classify and v-configuration spans inside it.  The
    detail splits it per edge layer by giving each gap between child
    spans to the skeleton whose span precedes it.
    """
    spans = doc["spans"]
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def same_pid_children(s):
        return [c for c in children[s["id"]] if c["pid"] == s["pid"]]

    def self_time(s):
        return dur(s) - sum(dur(c) for c in same_pid_children(s))

    def total(name):
        return sum((dur(s) for s in by_name[name]), 0.0)

    def attr_sum(name, key):
        return sum(s["attrs"][key] for s in by_name[name] if s["attrs"])

    classify_ms = [dur(s) * 1e3 for s in by_name["classify_skeleton"]]
    labelling_ms = [dur(s) * 1e3 for s in by_name["labelling_count"]]
    orientations = attr_sum("classify_skeleton", "orientations")
    classify_s = total("classify_skeleton")
    census_spans = [s for s in by_name["census"] if s["attrs"]]
    busy_base = sum(s["attrs"]["jobs"] * dur(s) for s in census_spans)
    kept, tried = doc["accept"]["kept"], doc["accept"]["tried"]

    metrics = {
        "orderly.generate_s": total("generate_all"),
        "orderly.skeletons": attr_sum("generate_all", "graphs"),
        "orderly.accept_ratio": kept / tried if tried else 0.0,
        "automorphisms.labelling_s": total("labelling_count"),
        "automorphisms.labelling_p99_ms": _percentile(labelling_ms, 99),
        "markov.vconfig_s": total("find_v_configurations"),
        "markov.vconfigs": attr_sum("find_v_configurations", "vconfigs"),
        "markov.classify_s": classify_s,
        "markov.orientations": orientations,
        "markov.classes": attr_sum("classify_skeleton", "classes"),
        "markov.ns_per_orientation": classify_s / orientations * 1e9 if orientations else 0.0,
        "markov.classify_p50_ms": _percentile(classify_ms, 50),
        "markov.classify_p99_ms": _percentile(classify_ms, 99),
        "census.aggregate_s": sum((self_time(s) for s in by_name["census_skeletons"]), 0.0),
        "census.merge_s": total("merge"),
        "census.worker_busy_frac": (sum(s["attrs"]["worker_cpu_s"] for s in census_spans)
                                    / busy_base if busy_base else 0.0),
        "catalog.read_s": total("read_catalog"),
        "catalog.write_s": total("write_catalog"),
        "catalog.bytes": attr_sum("read_catalog", "bytes") + attr_sum("write_catalog", "bytes"),
        "catalog.report_write_s": total("write_report"),
    }
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer_self[SPAN_SITES[s["name"]][0]] += self_time(s)
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_s"] = value
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall

    by_edges = defaultdict(lambda: {"skeletons": 0, "classify_s": 0.0, "orientations": 0,
                                    "aggregate_s_derived": 0.0})
    for s in by_name["classify_skeleton"]:
        row = by_edges[s["attrs"]["e"]]
        row["skeletons"] += 1
        row["classify_s"] += dur(s)
        row["orientations"] += s["attrs"]["orientations"]
    for s in by_name["census_skeletons"]:
        kids = sorted(same_pid_children(s), key=lambda c: c["start"])
        if not kids:
            continue
        by_edges[kids[0]["attrs"]["e"]]["aggregate_s_derived"] += kids[0]["start"] - s["start"]
        for kid, nxt in zip(kids, kids[1:] + [None]):
            gap = (nxt["start"] if nxt else s["end"]) - kid["end"]
            by_edges[kid["attrs"]["e"]]["aggregate_s_derived"] += gap
    detail = {
        "spans": len(spans),
        "patched": doc["patched"],
        "accept": doc["accept"],
        "slowest_classify_ms": sorted(classify_ms)[-1] if classify_ms else 0.0,
        "by_edges": {str(e): by_edges[e] for e in sorted(by_edges)},
    }
    return metrics, detail
