"""Outside-in tracing of the program's layers.

The tracer replaces functions with wrappers in every `gcoh` module that
binds them, because modules bind names at import: `gcoh.cli` calls its
own `build_forest`, not `gcoh.forest.build_forest`.  Patching the
defining module's attribute as well catches call-time imports, which is
how every caller reaches `smith_normal_form`.  The verify harness calls
its properties through the `PROPERTIES` dict, so that dict is patched too.

A span is [name, start, end, parent index, child seconds, query index].
Spans are kept in memory and written out when the run ends.  A directly
recursive call runs inside its caller's span instead of opening one per
level; `render` recurses once per expression node, so for the length of
its outer call its own module sees the unwrapped function again.  Hot
helpers are counted, not timed.

Hooks only keep references to arguments and results; the statistics
derived from them (bit lengths, factor values) are computed between
queries with the tracer inactive, so they add to no span.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter
from time import perf_counter

SPAN_TARGETS = (
    ("intlinalg", "smith_normal_form", "intlinalg.snf"),
    ("intlinalg", "matmul", "intlinalg.matmul"),
    ("intlinalg", "kernel_mod", "intlinalg.kernel_mod"),
    ("intlinalg", "solve_mod", "intlinalg.solve_mod"),
    ("cohomology", "cohomology_groups", "cohomology.cohomology_groups"),
    ("cohomology", "d0_matrix", "cohomology.d0_matrix"),
    ("cohomology", "critical_cohomology_dim",
     "cohomology.critical_cohomology_dim"),
    ("graphs", "components", "graphs.components"),
    ("graphs", "reduction", "graphs.reduction"),
    ("graphs", "load_graph", "graphs.load_graph"),
    ("orientation", "is_orientable", "orientation.is_orientable"),
    ("forest", "build_forest", "forest.build_forest"),
    ("fcomplex", "fundamental_complex", "fcomplex.fundamental_complex"),
    ("fcomplex", "chi", "fcomplex.chi"),
    ("fcomplex", "restrict", "fcomplex.restrict"),
    ("weights", "oriented_core", "weights.oriented_core"),
    ("weights", "weighted_spanning_tree", "weights.weighted_spanning_tree"),
    ("tropical", "z_gamma", "tropical.z_gamma"),
    ("tropical", "eval_expr", "tropical.eval_expr"),
    ("tropical", "render", "tropical.render"),
    ("cli", "main", "cli.main"),
)

SPAN_NAMES = {name for _, _, name in SPAN_TARGETS}

COUNT_TARGETS = (
    ("graphs", "bipartition", "graphs.bipartition.calls"),
    ("graphs", "p_valuation", "graphs.p_valuation.calls"),
)

# Spans recursing through their module global once per node.
UNWRAP_INSIDE = {"tropical.render"}

# Spans whose results the tracer inspects after each query.
HOOKED = {"intlinalg.snf", "forest.build_forest", "tropical.z_gamma",
          "tropical.eval_expr", "tropical.render"}

VERIFY_PROPERTIES = (
    "chi_chain_map", "complete_graph", "core_relation", "disjoint_union",
    "euler_relation", "forest_oracle", "generation", "hbe_count",
    "order_law", "orientation_methods", "p_splitting", "rank_formula",
    "rank_reweighting", "restrict_functoriality", "snf_invariants",
    "spanning_tree", "tree_formula", "tropical_interpretation",
    "unit_rescaling",
)

# (metric, unit, better, deterministic); the order is the report order.
LAYER_METRICS = (
    ("intlinalg.snf.calls", "count", "lower", True),
    ("intlinalg.snf.s", "s", "lower", False),
    ("intlinalg.snf.check_s", "s", "lower", False),
    ("intlinalg.snf.elim_s", "s", "lower", False),
    ("intlinalg.snf.input_cells", "count", "lower", True),
    ("intlinalg.snf.transform_cells", "count", "lower", True),
    ("intlinalg.snf.max_bits", "bits", "lower", True),
    ("intlinalg.matmul.calls", "count", "lower", True),
    ("intlinalg.matmul.s", "s", "lower", False),
    ("intlinalg.kernel_mod.calls", "count", "lower", True),
    ("intlinalg.kernel_mod.s", "s", "lower", False),
    ("intlinalg.solve_mod.calls", "count", "lower", True),
    ("intlinalg.solve_mod.s", "s", "lower", False),
    ("cohomology.cohomology_groups.calls", "count", "lower", True),
    ("cohomology.cohomology_groups.s", "s", "lower", False),
    ("cohomology.d0_matrix.s", "s", "lower", False),
    ("cohomology.snf_per_query", "count/query", "lower", True),
    ("cohomology.critical_cohomology_dim.calls", "count", "lower", True),
    ("graphs.components.calls", "count", "lower", True),
    ("graphs.components.s", "s", "lower", False),
    ("graphs.reduction.calls", "count", "lower", True),
    ("graphs.reduction.s", "s", "lower", False),
    ("graphs.bipartition.calls", "count", "lower", True),
    ("graphs.p_valuation.calls", "count", "lower", True),
    ("graphs.subgraph.constructions", "count", "lower", True),
    ("graphs.subgraphs_per_node", "count/node", "lower", True),
    ("graphs.load_graph.s", "s", "lower", False),
    ("orientation.is_orientable.calls", "count", "lower", True),
    ("orientation.is_orientable.s", "s", "lower", False),
    ("forest.build_forest.calls", "count", "lower", True),
    ("forest.build_forest.s", "s", "lower", False),
    ("forest.self_s", "s", "lower", False),
    ("forest.nodes", "count", "lower", True),
    ("fcomplex.fundamental_complex.s", "s", "lower", False),
    ("fcomplex.chi.s", "s", "lower", False),
    ("fcomplex.restrict.s", "s", "lower", False),
    ("weights.oriented_core.s", "s", "lower", False),
    ("weights.weighted_spanning_tree.s", "s", "lower", False),
    ("tropical.z_gamma.s", "s", "lower", False),
    ("tropical.factors", "count", "lower", True),
    ("tropical.useful_factor_frac", "frac", "higher", True),
    ("tropical.eval_expr.s", "s", "lower", False),
    ("tropical.render.s", "s", "lower", False),
    ("tropical.render_bytes", "bytes", "lower", True),
    *((f"verify.{name}.s", "s", "lower", False) for name in VERIFY_PROPERTIES),
    ("cli.self_s", "s", "lower", False),
    ("trace.slowdown", "ratio", "lower", False),
)

DETERMINISTIC = tuple(m for m, _, _, det in LAYER_METRICS if det)

# (workload, count) pairs that follow the interpreter's string-hash order:
# orientation._decide_component stops its all() over a frozenset of edges
# at the first high-valuation edge, so on non-reduced components the
# number of valuations it computes varies between processes.
HASH_ORDER_DEPENDENT = {("verify-small", "graphs.p_valuation.calls")}


def _factors(expr, clamp_type) -> list:
    """The clamped factors of a z_gamma expression: every ClampAtZero
    reachable without passing through another one."""
    out, stack, seen = [], [expr], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, clamp_type):
            out.append(node)
        else:
            stack.extend(getattr(node, "children", ()))
            for attr in ("numerator", "denominator"):
                child = getattr(node, attr, None)
                if child is not None:
                    stack.append(child)
    return out


class Tracer:
    """Spans and counts for one traced run; install() patches the given
    `gcoh` modules, uninstall() restores every binding it replaced."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.active = False
        self.query = -1
        self.pending: list[tuple[str, tuple, object]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.max_bits = 0

    # --- wrappers -------------------------------------------------------

    def _span(self, name: str, fn, home=None):
        """Timing wrapper; `home` is the namespace whose binding of the
        function is swapped back to `fn` while a span is open."""
        spans, stack = self.spans, self.stack
        hooked = name in HOOKED
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            if parent >= 0 and spans[parent][0] is name:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, parent, 0.0, tracer.query]
            stack.append(len(spans))
            spans.append(rec)
            if home is not None:
                setattr(home, fn.__name__, fn)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = rec[2] = perf_counter()
                if home is not None:
                    setattr(home, fn.__name__, wrapper)
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - rec[1]
            if hooked:
                tracer.pending.append((name, args, out))
            return out

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- patching -------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod in self.modules.values():
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        for modname, attr, name in SPAN_TARGETS:
            home = self.modules[modname]
            original = getattr(home, attr)
            wrapper = self._span(name, original,
                                 home if name in UNWRAP_INSIDE else None)
            self._replace_everywhere(original, wrapper)
        for modname, attr, name in COUNT_TARGETS:
            original = getattr(self.modules[modname], attr)
            self._replace_everywhere(original, self._count(name, original))
        subgraph = self.modules["graphs"].Subgraph
        post_init = subgraph.__post_init__
        self._patches.append((subgraph, "__post_init__", post_init))
        subgraph.__post_init__ = self._count(
            "graphs.subgraph.constructions", post_init)
        props = self.modules["verify"].PROPERTIES
        for key, fn in list(props.items()):
            self._patches.append((props, key, fn))
            props[key] = self._span(f"verify.{key}", fn)

    def uninstall(self) -> None:
        for target, key, value in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._patches.clear()

    # --- per-query bookkeeping -------------------------------------------

    def digest_pending(self) -> None:
        """Fold the kept results of the last query into counters; runs
        with the tracer uninstalled."""
        c = self.counts
        clamp = self.modules["tropical"].ClampAtZero
        eval_expr = self.modules["tropical"].eval_expr
        for name, args, out in self.pending:
            if name == "intlinalg.snf":
                a = args[0]
                c["intlinalg.snf.input_cells"] += a.rows * a.cols
                c["intlinalg.snf.transform_cells"] += out.u.rows ** 2 + out.v.rows ** 2
                self.max_bits = max(self.max_bits, max(
                    (abs(x).bit_length() for m in (out.u, out.s, out.v)
                     for row in m.entries for x in row), default=0))
            elif name == "forest.build_forest":
                c["forest.nodes"] += len(out.nodes)
            elif name == "tropical.z_gamma":
                c["tropical.factors"] += len(_factors(out, clamp))
            elif name == "tropical.eval_expr":
                for f in _factors(args[0], clamp):
                    v = eval_expr(f, args[1])
                    c["evaluated_factors"] += 1
                    c["useful_factors"] += v.finite and v.value > 0
            elif name == "tropical.render":
                c["tropical.render_bytes"] += len(out.encode("utf-8"))
        self.pending.clear()

    # --- results ----------------------------------------------------------

    def metrics(self, queries: int, slowdown: float) -> dict:
        spans = self.spans
        total = Counter()
        calls = Counter()
        self_time = Counter()
        snf_check = 0.0
        matmul_out = Counter()
        for name, start, end, parent, child, _ in spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            self_time[name] += dur - child
            if name == "intlinalg.matmul":
                if parent >= 0 and spans[parent][0] == "intlinalg.snf":
                    snf_check += dur
                else:
                    matmul_out["calls"] += 1
                    matmul_out["s"] += dur
        c = self.counts
        nodes = c["forest.nodes"]
        evaluated = c["evaluated_factors"]
        values = {
            "intlinalg.snf.check_s": snf_check,
            "intlinalg.snf.elim_s": self_time["intlinalg.snf"],
            "intlinalg.snf.max_bits": self.max_bits,
            "intlinalg.matmul.calls": matmul_out["calls"],
            "intlinalg.matmul.s": matmul_out["s"],
            "cohomology.snf_per_query": calls["intlinalg.snf"] / queries,
            "graphs.subgraphs_per_node":
                c["graphs.subgraph.constructions"] / nodes if nodes else 0.0,
            "forest.self_s": self_time["forest.build_forest"],
            "tropical.useful_factor_frac":
                c["useful_factors"] / evaluated if evaluated else 0.0,
            "cli.self_s": self_time["cli.main"],
            "trace.slowdown": slowdown,
        }
        for metric, _, _, _ in LAYER_METRICS:
            span, _, field = metric.rpartition(".")
            if metric in values:
                continue
            if field == "calls" and span in SPAN_NAMES:
                values[metric] = calls[span]
            elif field == "s":
                values[metric] = total[span]
            else:
                values[metric] = c[metric]
        return {metric: {"value": values[metric], "unit": unit}
                for metric, unit, _, _ in LAYER_METRICS}

    def write_spans(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent",
                                            "query"], "names": names}) + "\n")
            for name, start, end, parent, _, query in self.spans:
                fh.write(f"[{index[name]},{start:.9f},{end:.9f},{parent},{query}]\n")
