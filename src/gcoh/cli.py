"""Command-line front end.

Subcommands: cohomology, forest, torsion, tropical, core, spanning-tree,
verify.  All reports are JSON on stdout with big integers as decimal
strings and sorted keys, so identical inputs (and seeds) give byte-
identical output.

Exit codes: 0 success, 2 malformed input, 3 resource cap exceeded,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .graphs import WeightedGraph, full_subgraph, load_graph, load_json, require_prime
from .cohomology import cohomology_groups
from .forest import build_forest, forest_to_dot, torsion_structure
from .intlinalg import AbelianGroup
from .tropical import (
    EnumerationCapExceeded,
    eval_expr,
    render,
    z_complete,
    z_gamma,
)
from .verify import VerificationConfig, run_all
from .weights import oriented_core, spanning_tree_exponent, \
    weighted_spanning_tree

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_VERIFY = 4


class InputError(Exception):
    pass


def _group_doc(g: AbelianGroup) -> dict:
    return {"rank": g.rank, "divisors": [str(d) for d in g.divisors]}


def _load(path: str) -> WeightedGraph:
    try:
        return load_graph(path)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read graph file {path}: {exc}") from exc


_EMIT_BATCH = 1 << 16  # characters per write


def _emit(doc: dict) -> None:
    """Write doc as `json.dumps(doc, sort_keys=True, indent=2)` and a
    newline, encoded in chunks and written in batches of about 64 KiB,
    so a large report is never held whole."""
    batch, size = [], 0
    for chunk in json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc):
        batch.append(chunk)
        size += len(chunk)
        if size >= _EMIT_BATCH:
            sys.stdout.write("".join(batch))
            batch, size = [], 0
    batch.append("\n")
    sys.stdout.write("".join(batch))


def cmd_cohomology(args) -> int:
    g = _load(args.graph)
    h0, h1 = cohomology_groups(full_subgraph(g))
    _emit({"h0": _group_doc(h0), "h1": _group_doc(h1)})
    return EXIT_OK


def cmd_forest(args) -> int:
    g = _load(args.graph)
    forest = build_forest(g, args.prime)
    nodes = forest.nodes
    peaks = set(forest.peak_map.values())
    doc = {
        "prime": args.prime,
        "nodes": [n.label() for n in nodes],
        "node_count": len(nodes),
        "counted_minimal": [n.label() for n in forest.peak_map],
        "peaks": [n.label() for n in nodes if n in peaks],
        "torsion_exponents": torsion_structure(forest),
        "infinite_tails": [
            "{" + ",".join(c.vertices) + "}"
            for c in forest.bipartite_components],
    }
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(forest_to_dot(forest))
                fh.write("\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.dot}: {exc}") from exc
    _emit(doc)
    return EXIT_OK


def cmd_torsion(args) -> int:
    g = _load(args.graph)
    _, h1 = cohomology_groups(full_subgraph(g))
    forest = build_forest(g, args.prime)
    exponents = list(h1.p_part_exponents(args.prime))
    structure = torsion_structure(forest)
    _emit({
        "prime": args.prime,
        "divisors": [str(d) for d in h1.divisors],
        "p_torsion_exponents": exponents,
        "p_torsion_order": str(args.prime ** sum(exponents)),
        "forest_exponents": structure,
        "forest_matches_divisors": structure == exponents,
    })
    return EXIT_OK


def _load_valuations(path: str, g: WeightedGraph) -> dict[str, int]:
    """Vertex id -> valuation; every vertex needs one, and valuations are
    non-negative JSON integers (weights are positive integers)."""
    try:
        vals = load_json(path)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read valuation file {path}: {exc}") from exc
    if not isinstance(vals, dict):
        raise InputError(f"valuation file {path} must hold a JSON object")
    unknown = sorted(v for v in vals if v not in g.weight)
    if unknown:
        raise InputError(f"valuation file names non-vertices: {unknown}")
    bad = sorted(v for v, a in vals.items() if type(a) is not int or a < 0)
    if bad:
        raise InputError("valuations must be non-negative integers: "
                         + ", ".join(f"{v}={json.dumps(vals[v])}" for v in bad))
    missing = [v for v in g.vertices if v not in vals]
    if missing:
        raise InputError(f"valuation file misses vertices: {missing}")
    return vals


def cmd_tropical(args) -> int:
    g = _load(args.graph)
    if args.complete_formula:
        n = len(g.vertices)
        expected = n * (n - 1) // 2
        if len(g.edges) != expected or n < 3:
            raise InputError("--complete-formula needs a complete graph "
                             "on at least 3 vertices")
        expr = z_complete(n, g.vertices)
    else:
        expr = z_gamma(g)
    doc = {"expression": render(expr)}
    if args.eval:
        vals = _load_valuations(args.eval, g)
        doc["valuations"] = vals
        doc["value"] = repr(eval_expr(expr, vals))
    _emit(doc)
    return EXIT_OK


def cmd_core(args) -> int:
    g = _load(args.graph)
    dec = oriented_core(build_forest(g, args.prime))
    _emit({
        "prime": args.prime,
        "core_vertices": list(dec.core.vertices),
        "core_edges": [[u, v] for u, v in dec.core.edges],
        "special_edges": sorted([u, v] for u, v in dec.special_edges),
        "components": [
            {
                "vertices": list(part.graph.vertices),
                "edges": [[u, v] for u, v in part.graph.edges],
                "sup_level": part.sup_level,
                "min_valuation": part.min_val,
                "bipartite": part.bipartite,
                "from_forest": part.from_forest,
            }
            for part in dec.per_component
        ],
    })
    return EXIT_OK


def cmd_spanning_tree(args) -> int:
    g = _load(args.graph)
    tree = weighted_spanning_tree(full_subgraph(g), args.prime)
    _emit({
        "prime": args.prime,
        "tree_edges": [[u, v] for u, v in tree.edges],
        "torsion_exponent": spanning_tree_exponent(tree, args.prime),
    })
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = VerificationConfig(
        instance_count=args.instances,
        max_vertices=args.max_vertices,
        max_valuation=args.max_valuation,
        primes=tuple(args.primes),
        seed=args.seed,
        parallelism=args.parallelism,
    )
    results = run_all(cfg)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} properties passed "
          f"(seed {cfg.seed})")
    return EXIT_VERIFY if failed else EXIT_OK


def _integer(text: str) -> int:
    """ASCII decimal digits with at most one leading minus; `int` alone
    would also read `1_3`, ` 3`, `+3` and other scripts' digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _primes_list(text: str) -> list[int]:
    """Comma-separated primes; a refusal keeps its reason in the usage
    error."""
    out = [_integer(part) for part in text.split(",")]
    try:
        for p in out:
            require_prime(p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return out


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not
    change it."""
    parser = argparse.ArgumentParser(
        prog="gcoh",
        description="exact cohomology of vertex-weighted graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cohomology", help="H0 and H1 with elementary divisors")
    p.add_argument("graph")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("forest", help="fundamental forest at a prime")
    p.add_argument("graph")
    p.add_argument("--prime", type=_integer, required=True)
    p.add_argument("--dot", help="write a Graphviz rendering here")
    p.set_defaults(func=cmd_forest)

    p = sub.add_parser("torsion", help="p-torsion, divisors vs forest")
    p.add_argument("graph")
    p.add_argument("--prime", type=_integer, required=True)
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("tropical", help="min-plus torsion-exponent function")
    p.add_argument("graph")
    p.add_argument("--eval", help="JSON file of vertex valuations")
    p.add_argument("--complete-formula", action="store_true",
                   help="use the closed form for complete graphs")
    p.set_defaults(func=cmd_tropical)

    p = sub.add_parser("core", help="oriented core decomposition")
    p.add_argument("graph")
    p.add_argument("--prime", type=_integer, required=True)
    p.set_defaults(func=cmd_core)

    p = sub.add_parser("spanning-tree", help="weighted spanning tree (odd p)")
    p.add_argument("graph")
    p.add_argument("--prime", type=_integer, required=True)
    p.set_defaults(func=cmd_spanning_tree)

    defaults = VerificationConfig()
    p = sub.add_parser("verify", help="randomized oracle cross-checks")
    p.add_argument("--seed", type=_integer, default=defaults.seed)
    p.add_argument("--instances", type=_integer, default=defaults.instance_count)
    p.add_argument("--max-vertices", type=_integer, default=defaults.max_vertices)
    p.add_argument("--max-valuation", type=_integer, default=defaults.max_valuation)
    p.add_argument("--primes", type=_primes_list, default=list(defaults.primes))
    p.add_argument("--parallelism", type=_integer, default=defaults.parallelism)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    # Integers of any length are read and printed: Python 3.10.7 and later
    # refuse decimal strings past 4300 digits unless the limit is lifted.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "prime", None) is not None:
            require_prime(args.prime)
        return args.func(args)
    except EnumerationCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
