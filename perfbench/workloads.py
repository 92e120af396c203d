"""The four workloads: how each writes its inputs and checks each answer.

Every query is one in-process call of `gcoh.cli.main(argv)` on a distinct
input; the answer is the text the call writes to stdout.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import inputs

REFS = Path(__file__).resolve().parent / "refs"


@dataclass
class Query:
    argv: list[str]
    ref: object = None
    graph: Path | None = None  # a pooled graph file, checked by check_inputs


def load_refs(workload: str) -> dict[str, dict]:
    out = {}
    with open(REFS / f"{workload}.jsonl", encoding="utf-8") as fh:
        for line in fh:
            entry = json.loads(line)
            out[entry["key"]] = entry
    return out


class RefMismatch(Exception):
    """The generator no longer reproduces the graphs the stored answers
    belong to; the benchmark itself is broken."""


def check_inputs(queries: list[Query]) -> None:
    """Raise RefMismatch unless every pooled graph file written is the
    one its stored answer belongs to.  Kept out of the timed set-up."""
    for query in queries:
        if query.graph is None:
            continue
        found = hashlib.sha256(query.graph.read_bytes()).hexdigest()
        if found != query.ref["graph"]:
            raise RefMismatch(f"{query.ref['key']}: generated graph differs")


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _pool_queries(workload, seed, strata, replicates, make_graph, argv_for,
                  workdir: Path) -> list[Query]:
    refs = load_refs(workload)
    queries = []
    for i, (stratum, j) in enumerate(
            inputs.pool_plan(workload, seed, strata, replicates)):
        path = _write(workdir / f"g{i:03d}.json",
                      inputs.canonical(make_graph(stratum, j)))
        queries.append(Query(argv_for(str(path), stratum),
                             refs[inputs.pool_key(workload, stratum, j)], path))
    return queries


class OracleLarge:
    name = "oracle-large"
    trace_queries = 12

    def prepare(self, seed: int, workdir: Path) -> list[Query]:
        return _pool_queries(
            self.name, seed, inputs.ORACLE_STRATA, inputs.ORACLE_REPLICATES,
            inputs.oracle_graph,
            lambda path, st: ["torsion", path, "--prime", str(st[2])],
            workdir)

    def check(self, query: Query, text: str, mods) -> str | None:
        doc = json.loads(text)
        if inputs.digest(doc["divisors"]) != query.ref["divisors"]:
            return "divisors differ from the stored SNF reference"
        if doc["forest_matches_divisors"] is not True:
            return "forest exponents disagree with the divisors"
        return None


class ForestLarge:
    name = "forest-large"
    trace_queries = 12

    def prepare(self, seed: int, workdir: Path) -> list[Query]:
        return _pool_queries(
            self.name, seed, inputs.FOREST_STRATA, inputs.FOREST_REPLICATES,
            inputs.forest_graph,
            lambda path, st: ["forest", path, "--prime", str(st[1])],
            workdir)

    def check(self, query: Query, text: str, mods) -> str | None:
        doc = json.loads(text)
        if doc["torsion_exponents"] != query.ref["exponents"]:
            return "torsion exponents differ from the stored SNF reference"
        if inputs.digest(doc["nodes"]) != query.ref["nodes"]:
            return "forest nodes differ from the stored reference"
        return None


# `value` is the last key of the sorted report, so it is read from the
# tail: a multi-MB expression need not be parsed to check it.
_VALUE_AT_END = re.compile(r'"value": ("[^"]*")\s*}\s*$')


class TropicalEval:
    name = "tropical-eval"
    trace_queries = 10

    def prepare(self, seed: int, workdir: Path) -> list[Query]:
        queries = []
        for i in range(inputs.TROPICAL_QUERIES):
            doc, valuation = inputs.tropical_input(seed, i)
            graph = _write(workdir / f"g{i:03d}.json", inputs.canonical(doc))
            vals = _write(workdir / f"v{i:03d}.json", inputs.canonical(valuation))
            queries.append(Query(["tropical", str(graph), "--eval", str(vals)],
                                 (doc, valuation)))
        return queries

    def check(self, query: Query, text: str, mods) -> str | None:
        match = _VALUE_AT_END.search(text)
        if match is None:
            return "no value at the end of the report"
        doc, valuation = query.ref
        weighted = dict(doc, vertices=[
            {"id": v["id"], "weight": str(3 ** valuation[v["id"]])}
            for v in doc["vertices"]])
        g = mods["graphs"].graph_from_json(weighted)
        want = mods["cohomology"].torsion_order_p(
            mods["graphs"].full_subgraph(g), 3)
        if json.loads(match.group(1)) != str(want):
            return f"value {match.group(1)} but the SNF 3-torsion exponent is {want}"
        return None


class VerifySmall:
    name = "verify-small"
    trace_queries = 20

    def prepare(self, seed: int, workdir: Path) -> list[Query]:
        return [Query(["verify", "--instances", str(inputs.VERIFY_INSTANCES),
                       "--seed", str(inputs.verify_seed(seed, i))])
                for i in range(inputs.VERIFY_QUERIES)]

    def check(self, query: Query, text: str, mods) -> str | None:
        lines = text.splitlines()
        results = [l for l in lines if l.startswith(("pass ", "FAIL "))]
        if not results or any(l.startswith("FAIL") for l in results):
            return "a property failed"
        if not lines[-1].startswith(f"{len(results)}/{len(results)} properties passed"):
            return "summary line missing"
        return None


WORKLOADS = {w.name: w for w in (OracleLarge(), ForestLarge(), TropicalEval(),
                                 VerifySmall())}
