"""Seeded end-to-end benchmark of the gcoh command line, with layer tracing.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory.  One process, one closed-loop client: each query is an
in-process call of `gcoh.cli.main(argv)` on a distinct generated input,
issued when the previous one has returned, and every answer is checked.

--trace 0  sets up, then times queries until S seconds have passed in all
           (or the workload's inputs run out), and reports the end-to-end
           metrics.  Times are wall times scaled to a reference host speed:
           each set-up and query runs between two runs of a fixed probe
           task, and is scaled by speed.PROBE_REF_S over their mean.
             setup_s        median of nine set-ups in a row, each a fresh
                            import of gcoh plus generating and writing
                            every input; the queries run on the last
             query_p50_s    median time of one query
             query_tail_s   highest percentile with >= 10 queries beyond it
             queries_per_s  answered queries / summed query times, which
                            leave out the benchmark's checks and probes
             peak_rss_mb    peak resident memory of this process
--trace 1  runs each of the workload's first K queries twice, untraced
           and with every layer wrapped, in alternating order, and reports
           the per-layer metrics and the slowdown of the traced calls.
           K is fixed per workload, so the counts repeat exactly.  Spans go to
           .perfbench-out/<workload>.spans.jsonl.gz.

The line before the result is a context object (interpreter, nproc,
seed, src/ line count, the tail percentile, failed fraction, the unscaled
times and the probe's quartiles); the last stdout line is the result.
Exit code 0 once a result is printed, 2 when the checkout has no program
to measure.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from speed import probe, scale
from workloads import WORKLOADS, RefMismatch, check_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 9
TAIL_BEYOND = 10
KEEP_CHARS = 1 << 20
SHOWN_FAILURES = 3


class Capture:
    """Stand-in for stdout that answers with the last KEEP_CHARS
    characters written, so a multi-MB report is not held whole and does
    not count in peak memory as if the program kept it."""

    def __init__(self):
        self.chunks: list[str] = []
        self.kept = 0

    def write(self, text: str) -> int:
        self.chunks.append(text)
        self.kept += len(text)
        if self.kept > 2 * KEEP_CHARS:
            joined = "".join(self.chunks)[-KEEP_CHARS:]
            self.chunks, self.kept = [joined], len(joined)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.chunks)[-KEEP_CHARS:]


def _gcoh_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "gcoh" or name.startswith("gcoh.")}


def import_gcoh() -> dict:
    """Import gcoh afresh from this checkout; {short name: module}."""
    for name in _gcoh_modules():
        del sys.modules[name]
    gcoh = importlib.import_module("gcoh")
    importlib.import_module("gcoh.cli")
    if Path(gcoh.__file__).resolve().parent != SRC / "gcoh":
        raise SystemExit(f"gcoh imported from {gcoh.__file__}, not {SRC}")
    return {name.partition(".")[2]: mod for name, mod in sys.modules.items()
            if name.startswith("gcoh.")}


def setup(workload, seed: int, workdir: Path):
    shutil.rmtree(workdir, ignore_errors=True)
    # the modules a previous set-up dropped hold reference cycles; collect
    # them now rather than inside the next timed import
    gc.collect()
    start = perf_counter()
    mods = import_gcoh()
    workdir.mkdir(parents=True)
    queries = workload.prepare(seed, workdir)
    return perf_counter() - start, mods, queries


class Runner:
    """Issues queries one at a time and checks each answer."""

    def __init__(self, workload, mods):
        self.workload = workload
        self.mods = mods
        self.attempted = 0
        self.failed = 0

    def run(self, query, tracer=None) -> float:
        """One query; returns its wall time.  An installed tracer records
        only inside the timed region, not during the check."""
        out, err = Capture(), Capture()
        problem = None
        main = self.mods["cli"].main
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            if tracer:
                tracer.active = True
            try:
                rc = main(query.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc, problem = None, traceback.format_exc()
            finally:
                if tracer:
                    tracer.active = False
                elapsed = perf_counter() - start
        self.attempted += 1
        if problem is None and rc != 0:
            problem = f"exit code {rc}: {err.text().strip()}"
        if problem is None:
            try:
                problem = self.workload.check(query, out.text(), self.mods)
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable report: {exc!r}"
        if problem is not None:
            self.failed += 1
            if self.failed <= SHOWN_FAILURES:
                print(f"query {query.argv} failed: {problem}", file=sys.stderr)
        gc.collect()
        return elapsed


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def timed_run(workload, seed, seconds, max_queries, workdir):
    # The set-ups and every query run between two speed probes and are
    # scaled by them (see speed.py); the raw times go to the context.
    # The queries run on the last set-up; --seconds bounds set-ups and
    # queries together.
    deadline = perf_counter() + seconds
    probes = [probe()]
    raw_setups, setups = [], []
    for _ in range(SETUP_REPEATS):
        took, mods, queries = setup(workload, seed, workdir)
        probes.append(probe())
        raw_setups.append(took)
        setups.append(scale(took, probes[-2], probes[-1]))
    check_inputs(queries)
    queries = queries[:max_queries]
    runner = Runner(workload, mods)
    raw, times = [], []
    gc.collect()
    exhausted = True
    for query in queries:
        if perf_counter() >= deadline and times:
            exhausted = False
            break
        elapsed = runner.run(query)
        probes.append(probe())
        raw.append(elapsed)
        times.append(scale(elapsed, probes[-2], probes[-1]))
    p_tail, pct = tail(times)
    answered = runner.attempted - runner.failed
    metrics = {name: {"value": value, "unit": unit} for name, value, unit in (
        ("setup_s", statistics.median(setups), "s"),
        ("query_p50_s", statistics.median(times), "s"),
        ("query_tail_s", p_tail, "s"),
        ("queries_per_s", answered / sum(times), "1/s"),
        ("peak_rss_mb",
         resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    )}
    context = {"queries": len(times), "tail_percentile": round(pct, 2),
               "inputs_exhausted": exhausted,
               "raw_setup_runs_s": [round(s, 4) for s in raw_setups],
               "raw_query_p50_s": round(statistics.median(raw), 4),
               "raw_queries_per_s": round(answered / sum(raw), 4),
               "probe_s": [round(q, 4) for q in
                           statistics.quantiles(probes, n=4)]}
    return runner, metrics, context


def traced_run(workload, seed, max_queries, workdir):
    from tracing import Tracer

    _, mods, queries = setup(workload, seed, workdir)
    check_inputs(queries)
    queries = queries[:min(workload.trace_queries, max_queries)]
    runner = Runner(workload, mods)
    tracer = Tracer(mods)
    # each query runs untraced and traced back to back, so a change in
    # host speed falls on both sides of the slowdown; the side that runs
    # second reuses memory the first one freed, so the order alternates.
    # Untraced calls run with no wrapper installed at all.
    untraced = traced = 0.0
    for i, query in enumerate(queries):
        if i % 2:
            untraced += runner.run(query)
        tracer.query = i
        tracer.install()
        try:
            traced += runner.run(query, tracer)
        finally:
            tracer.uninstall()
        tracer.digest_pending()
        if not i % 2:
            untraced += runner.run(query)
    metrics = tracer.metrics(len(queries), traced / untraced)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}.spans.jsonl.gz"
    tracer.write_spans(spans_path)
    context = {"queries": len(queries), "spans": len(tracer.spans),
               "spans_file": str(spans_path.relative_to(ROOT)),
               "untraced_s": round(untraced, 4), "traced_s": round(traced, 4)}
    return runner, metrics, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-queries", type=int, default=10 ** 9,
                        help="stop after this many queries (smoke tests)")
    args = parser.parse_args(argv)
    if args.max_queries < 1:
        parser.error("--max-queries must be at least 1")

    if not (SRC / "gcoh" / "__init__.py").is_file():
        print(f"error: no gcoh sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    workdir = OUT / f"inputs-{os.getpid()}"
    try:
        if args.trace:
            runner, metrics, context = traced_run(
                workload, args.seed, args.max_queries, workdir)
        else:
            runner, metrics, context = timed_run(
                workload, args.seed, args.seconds, args.max_queries, workdir)
    except RefMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    context.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(),
        "failed_frac": runner.failed / runner.attempted,
    })
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
