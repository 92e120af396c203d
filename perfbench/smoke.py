"""Smoke test of the benchmark itself, seconds-long per workload.

    python3 perfbench/smoke.py

Asserts that:
  * the stored references reproduce byte for byte at a small size;
  * one command per workload prints every end-to-end metric declared in
    BENCHMARK.json, with its unit, and no query fails;
  * two traced runs with the same seed, each over the workload's full
    traced query count K, print every per-layer metric and give
    identical deterministic counts;
  * in a directory holding only BENCHMARK.json and the benchmark, the
    command exits non-zero without printing a result.
Exits 1 on the first broken assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from tracing import DETERMINISTIC, HASH_ORDER_DEPENDENT
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 11
TIMEOUT = 180


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=TIMEOUT, check=False)


def bench(workload: str, trace: int, *limit: str) -> tuple[dict, dict]:
    proc = run([str(HERE / "run.py"), "--workload", workload, "--seed",
                str(SEED), "--seconds", "1", "--trace", str(trace), *limit])
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def check_metrics(workload: str, result: dict, declared: list[dict]) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{workload}: failed queries: {result}")
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"] \
                or not isinstance(got["value"], (int, float)):
            raise AssertionError(f"{workload}: metric {metric['name']}: {got}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = run([str(HERE / "refs.py"), "check", "--count", "2"])
    if proc.returncode != 0:
        raise AssertionError(f"references do not reproduce:\n{proc.stderr}")
    print(proc.stdout.strip())

    for workload in WORKLOADS:
        context, result = bench(workload, 0, "--max-queries", "2")
        check_metrics(workload, result, spec["end_to_end"])
        if context["failed_frac"] != 0:
            raise AssertionError(f"{workload}: failed_frac {context['failed_frac']}")
        first_ctx, first = bench(workload, 1)
        second_ctx, second = bench(workload, 1)
        for result in (first, second):
            check_metrics(workload, result, spec["per_layer"])
        differ = [m for m in DETERMINISTIC
                  if (workload, m) not in HASH_ORDER_DEPENDENT
                  and first["metrics"][m] != second["metrics"][m]]
        if differ:
            raise AssertionError(f"{workload}: counts differ between traced "
                                 f"runs: {differ}")
        print(f"{workload}: ok ({first_ctx['queries']} traced queries, "
              f"{first_ctx['spans']} spans, slowdown "
              f"{first['metrics']['trace.slowdown']['value']:.2f})")

    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run([*spec["command"][1:], "--workload", "verify-small",
                    "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            raise AssertionError("run without the program did not fail")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("bare checkout: refused as expected")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        sys.exit(1)
