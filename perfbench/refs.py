"""Stored answers for the pooled workloads, computed with the SNF oracle.

    python3 perfbench/refs.py write              # every entry of both pools; minutes
    python3 perfbench/refs.py check [--count N]  # first N entries of each pool

One line per pool entry, in pool order, canonical JSON:

  oracle-large  key, sha256 of the graph document, sha256 of the
                elementary divisors of H1 (decimal strings, as printed);
  forest-large  key, graph sha256, the p-torsion exponents from the SNF
                divisors, the forest's node count and sha256 of its node
                labels.  A node list is stored only after the forest has
                been certified against the oracle: its torsion structure
                equals the SNF exponents, and its counted nodes number
                their sum (the order law at odd p).

`check` regenerates the first N entries of each file with the current
generator and program and compares them with the stored lines byte for
byte.  Run it when the generator or the oracle changes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import inputs
from workloads import REFS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gcoh.cohomology import d0_matrix  # noqa: E402
from gcoh.forest import build_forest, torsion_structure  # noqa: E402
from gcoh.graphs import full_subgraph, graph_from_json  # noqa: E402
from gcoh.intlinalg import cokernel_structure  # noqa: E402


def _h1(doc):
    g = graph_from_json(doc)
    return g, cokernel_structure(d0_matrix(full_subgraph(g)))


def oracle_entry(stratum, j: int) -> dict:
    doc = inputs.oracle_graph(stratum, j)
    _, h1 = _h1(doc)
    return {"key": inputs.pool_key("oracle-large", stratum, j),
            "graph": inputs.digest(doc),
            "divisors": inputs.digest([str(d) for d in h1.divisors])}


def forest_entry(stratum, j: int) -> dict:
    p = stratum[1]
    doc = inputs.forest_graph(stratum, j)
    g, h1 = _h1(doc)
    exponents = list(h1.p_part_exponents(p))
    forest = build_forest(g, p)
    key = inputs.pool_key("forest-large", stratum, j)
    if torsion_structure(forest) != exponents \
            or len(forest.counted_nodes) != sum(exponents):
        raise SystemExit(f"{key}: forest disagrees with the SNF oracle")
    return {"key": key,
            "graph": inputs.digest(doc),
            "exponents": exponents,
            "node_count": len(forest.nodes),
            "nodes": inputs.digest([n.label() for n in forest.nodes])}


POOLS = {
    "oracle-large": (inputs.ORACLE_STRATA, inputs.ORACLE_REPLICATES, oracle_entry),
    "forest-large": (inputs.FOREST_STRATA, inputs.FOREST_REPLICATES, forest_entry),
}


def entries(workload: str, count: int | None = None):
    strata, replicates, make = POOLS[workload]
    keys = [(s, j) for s in strata for j in range(replicates)]
    for stratum, j in keys[:count]:
        yield inputs.canonical(make(stratum, j))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("write", "check"))
    parser.add_argument("--count", type=int, default=2,
                        help="entries per file to regenerate in check")
    args = parser.parse_args(argv)
    for name in sorted(POOLS):
        path = REFS / f"{name}.jsonl"
        if args.action == "write":
            REFS.mkdir(exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                for line in entries(name):
                    fh.write(line + "\n")
                    fh.flush()
            print(f"wrote {path.name}")
            continue
        stored = path.read_text(encoding="utf-8").splitlines()[:args.count]
        fresh = list(entries(name, args.count))
        if fresh != stored:
            print(f"{path.name}: regenerated entries differ from the stored ones",
                  file=sys.stderr)
            return 1
        print(f"{path.name}: first {len(fresh)} entries reproduce byte for byte")
    return 0


if __name__ == "__main__":
    sys.exit(main())
