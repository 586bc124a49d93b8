#!/usr/bin/env python3
"""Census benchmark: closed-loop runs of the mecensus command line.

    python3 censusbench/run.py --workload census-n7 --seed 1 --seconds 30 --trace 0
    python3 censusbench/run.py --workload all --seed 1      # every workload in BENCHMARK.json
    python3 censusbench/run.py --workload census-n5 --seconds 1 --trace 1   # smoke variant

One client runs the real CLI as a fresh process per run, and starts the
next run only after the previous one exited.  Runs repeat until the next
one would end past --seconds; there is always at least one.  Every run's
output is checked (see checks.py) and a failed check or a non-zero exit
counts against the error rate, failed/attempted, instead of stopping the
benchmark.  Timings are medians over the runs that passed.

--trace 0 reports the end-to-end metrics.  --trace 1 instead pairs an
untraced run with a run under traced_cli.py, in an order drawn from
--seed, and reports the per-layer metrics of tracer.py; their difference
is the tracing overhead.  The program gets no seed-dependent input: a
census input is the complete skeleton set for n.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it stamp the
result with the backend, versions, nproc, commit and seed.  Scratch
output goes to .bench_work/ in the checkout and is removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3

# end-to-end metric -> (unit, better); the order BENCHMARK.json lists them in
END_TO_END = {
    "wall_s": ("s", "lower"),
    "skeletons_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


@dataclass(frozen=True)
class Workload:
    command: str  # "census" or "generate"
    n: int
    jobs: int = 1
    catalogs: bool = False  # census reads catalogs written during set-up
    # processes still running this long after the start are killed, so a
    # benchmark run ends within the 180 s its caller allows
    budget_s: float = 165.0


# The first three are the ones BENCHMARK.json lists; why each was chosen
# is recorded there and in NOTES.md.  generate-n8 (about 100 s a run) is
# kept runnable but is left out of BENCHMARK.json: 22 timed runs of it
# would not fit the benchmark's time budget.  The n=5
# variants run every code path and check in seconds, for the tests.
WORKLOADS = {
    "census-n7": Workload("census", 7),
    "census-n7-jobs2": Workload("census", 7, jobs=2, catalogs=True),
    "generate-n7": Workload("generate", 7),
    "generate-n8": Workload("generate", 8, budget_s=450.0),
    "census-n5": Workload("census", 5),
    "census-n5-jobs2": Workload("census", 5, jobs=2, catalogs=True),
    "generate-n5": Workload("generate", 5),
}


class SetupError(Exception):
    """The workload could not be brought to its first timed run."""


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: list[str]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], log_path: Path, deadline: float) -> Run:
    """Run argv to completion; wall, CPU and peak RSS include reaped workers.

    os.wait4 reports the child's usage together with the descendants it
    waited for, which is where pool workers' CPU and memory show up.  A
    process group still running at deadline (perf_counter time) is killed,
    workers included.
    """
    with open(log_path, "wb") as log:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT, start_new_session=True)

        def kill_group():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(deadline - start, 1.0), kill_group)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill_group()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = []
    if proc.returncode != 0:
        tail = log_path.read_text(errors="replace").strip().splitlines()[-3:]
        problems.append(f"exit code {proc.returncode}: " + " | ".join(tail))
    return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, problems)


class Bench:
    """One workload's set-up, runs and output checks inside a scratch directory."""

    def __init__(self, name: str, work: Path, seed: int):
        import checks
        self.checks = checks
        self.name = name
        self.w = WORKLOADS[name]
        self.work = work
        self.rng = random.Random(seed)
        self.deadline = perf_counter() + self.w.budget_s
        self.runs = 0

    def cli(self, traced_spans: Path | None = None) -> tuple[list[str], Path]:
        """argv of the next run and the output (report file or catalog root) it writes."""
        self.runs += 1
        w = self.w
        if traced_spans is None:
            argv = [sys.executable, "-m", "mecensus.cli"]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(traced_spans)]
        if w.command == "census":
            out = self.work / f"report-{self.runs}.txt"
            argv += ["census", "--n", str(w.n), "--out", str(out)]
            if w.jobs > 1:
                argv += ["--jobs", str(w.jobs)]
            if w.catalogs:
                argv += ["--graphs", str(self.work / "catalogs")]
        else:
            out = self.work / f"graphs-{self.runs}"
            argv += ["generate", "--n", str(w.n), "--graphs", str(out)]
        return argv, out

    def check(self, run: Run, out: Path) -> Run:
        if not run.problems:
            if self.w.command == "census":
                run.problems = self.checks.report_problems(out, self.w.n)
            else:
                run.problems = self.checks.catalog_problems(out, self.w.n)
        if out.is_dir():
            shutil.rmtree(out)
        else:
            out.unlink(missing_ok=True)
        for problem in run.problems:
            print(f"check failed ({self.name} run {self.runs}): {problem}", file=sys.stderr)
        return run

    def run_cli(self, traced_spans: Path | None = None) -> Run:
        argv, out = self.cli(traced_spans)
        run = spawn(argv, self.work / f"run-{self.runs}.log", self.deadline)
        return self.check(run, out)

    def setup(self, repeats: int) -> list[float]:
        """Times from nothing to a workload ready for its first run.

        That is a fresh interpreter's `import mecensus`, or for a workload
        reading catalogs, the `mecensus generate` run that writes them.
        """
        times = []
        catalogs = self.work / "catalogs"
        for k in range(repeats):
            if self.w.catalogs:
                shutil.rmtree(catalogs, ignore_errors=True)
                argv = [sys.executable, "-m", "mecensus.cli", "generate",
                        "--n", str(self.w.n), "--graphs", str(catalogs)]
            else:
                argv = [sys.executable, "-c", "import mecensus"]
            run = spawn(argv, self.work / f"setup-{k}.log", self.deadline)
            if run.problems:
                raise SetupError("; ".join(run.problems))
            times.append(run.wall_s)
        if self.w.catalogs:
            problems = self.checks.catalog_problems(catalogs, self.w.n)
            if problems:
                raise SetupError("set-up catalogs: " + "; ".join(problems))
        return times

    def loop(self, seconds: float, one_round) -> list:
        """Closed loop: call one_round() until the next would end past seconds."""
        results = []
        start = perf_counter()
        while True:
            t0 = perf_counter()
            results.append(one_round())
            took = perf_counter() - t0
            now = perf_counter()
            if now - start + took > seconds or now + took > self.deadline:
                return results

    def measure(self, seconds: float) -> dict:
        setup = self.setup(SETUP_REPEATS)
        runs = self.loop(seconds, self.run_cli)
        good = [r for r in runs if not r.problems] or runs
        skeletons = self.checks.reference.KNOWN_UNLABELED_GRAPHS[self.w.n]
        samples = {
            "wall_s": [r.wall_s for r in good],
            "skeletons_per_s": [skeletons / r.wall_s for r in good],
            "cpu_s": [r.cpu_s for r in good],
            "peak_rss_mb": [r.peak_rss_mb for r in good],
            "setup_s": setup,
        }
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        return self.result(runs, metrics, END_TO_END, samples)

    def measure_traced(self, seconds: float) -> dict:
        self.setup(1)
        traced_first = self.rng.random() < 0.5
        pairs = []

        def one_pair():
            spans_path = self.work / f"spans-{self.runs + 1}.json"
            if traced_first:
                traced = self.run_cli(spans_path)
                plain = self.run_cli()
            else:
                plain = self.run_cli()
                traced = self.run_cli(spans_path)
            pairs.append((plain, traced))
            if traced.problems or not spans_path.exists():
                return None
            doc = json.loads(spans_path.read_text(encoding="utf-8"))
            return tracer.summarise(doc, traced.wall_s, plain.wall_s)

        summaries = self.loop(seconds, one_pair)
        runs = [r for pair in pairs for r in pair]
        done = [s for s in summaries if s is not None]
        if not done:
            metrics = dict.fromkeys(tracer.PER_LAYER, 0.0)
            return self.result(runs, metrics, tracer.PER_LAYER, {}, detail=None)
        metrics = {k: statistics.median(m[k] for m, _ in done) for k in tracer.PER_LAYER}
        samples = {k: [m[k] for m, _ in done] for k in tracer.PER_LAYER}
        return self.result(runs, metrics, tracer.PER_LAYER, samples,
                           detail=done[-1][1], traced_first=traced_first)

    def result(self, runs, metrics, units, samples, **extra) -> dict:
        failed = sum(1 for r in runs if r.problems)
        return {
            "workload": self.name,
            "attempted": len(runs),
            "failed": failed,
            "error_rate": failed / len(runs),
            "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
            "samples": samples,
            **extra,
        }


def source_digest() -> str:
    """SHA-256 over src/mecensus/*.py, which names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "mecensus").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def stamp(seed: int) -> dict:
    """What every number must be read with (ROADMAP aim 1)."""
    import numpy
    numba = importlib.util.find_spec("numba") is not None
    try:
        from mecensus._kernels import backend_name
        backend = backend_name()
    except (ImportError, AttributeError):
        # the kernel module may go away; without numba only Python can run
        backend = "unknown" if numba else "python"
    return {
        "backend": backend,
        "numba_available": numba,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def import_program() -> None:
    """Put the checkout's src/ first on sys.path and import mecensus from it."""
    if not (SRC / "mecensus" / "__init__.py").is_file():
        raise SetupError(f"no mecensus package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mecensus
    if Path(mecensus.__file__).resolve().parent != SRC / "mecensus":
        raise SetupError(f"imported mecensus from {mecensus.__file__}, not {SRC}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir()
    try:
        bench = Bench(name, work, seed)
        return bench.measure_traced(seconds) if trace else bench.measure(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def kept_workloads() -> list[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [w["name"] for w in doc["workloads"]]


def print_result(res: dict) -> None:
    print(f"workload {res['workload']}: {res['attempted']} run(s), {res['failed']} failed, "
          f"error_rate {res['error_rate']:.3f}")
    for key, metric in res["metrics"].items():
        count = len(res["samples"].get(key, []))
        print(f"  {key:<34} {metric['value']:>16.6g} {metric['unit']:<6} (median of {count})")


def append_record(path: Path, record: dict) -> None:
    points = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    points.append(record)
    path.write_text(json.dumps(points, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="append this result as a point to a trajectory JSON file")
    args = parser.parse_args(argv)

    try:
        import_program()
        names = kept_workloads() if args.workload == "all" else [args.workload]
        info = stamp(args.seed)
        print("stamp " + json.dumps(info))
        results = []
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_result(res)
            results.append(res)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.record:
        append_record(args.record, {"stamp": info, "seconds": args.seconds, "trace": args.trace,
                                    "results": results})
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
