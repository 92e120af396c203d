import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gcoh
from gcoh.cli import main
from gcoh.graphs import PRIME_BOUND
from gcoh.verify import VerificationConfig, run_property

K3 = {
    "vertices": [{"id": "R", "weight": "27"}, {"id": "G", "weight": "1"},
                 {"id": "B", "weight": "3"}],
    "edges": [["R", "G"], ["R", "B"], ["G", "B"]],
}


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(K3))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cohomology_report(k3_file, capsys):
    code, out, _ = run_cli(capsys, "cohomology", k3_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["h1"] == {"rank": 0, "divisors": ["162"]}
    assert doc["h0"] == {"rank": 0, "divisors": []}


def test_cohomology_edge_and_empty_graph(tmp_path, capsys):
    edge = tmp_path / "edge.json"
    edge.write_text(json.dumps({
        "vertices": [{"id": "u", "weight": "4"}, {"id": "v", "weight": "6"}],
        "edges": [["u", "v"]]}))
    code, out, _ = run_cli(capsys, "cohomology", str(edge))
    doc = json.loads(out)
    assert code == 0
    assert doc["h0"]["rank"] == 1 and doc["h1"]["divisors"] == ["2"]

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"vertices": [], "edges": []}))
    code, out, _ = run_cli(capsys, "cohomology", str(empty))
    doc = json.loads(out)
    assert code == 0
    assert doc["h0"] == {"rank": 0, "divisors": []}
    assert doc["h1"] == {"rank": 0, "divisors": []}


def test_forest_bipartite_tail_annotation(tmp_path, capsys):
    edge = tmp_path / "edge.json"
    edge.write_text(json.dumps({
        "vertices": [{"id": "u", "weight": "4"}, {"id": "v", "weight": "6"}],
        "edges": [["u", "v"]]}))
    code, out, _ = run_cli(capsys, "forest", str(edge), "--prime", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc["infinite_tails"] == ["{u,v}"]


def test_malformed_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "cohomology", str(bad))
    assert code == 2
    assert "error" in err

    loopy = tmp_path / "loop.json"
    loopy.write_text(json.dumps({
        "vertices": [{"id": "a", "weight": "2"}], "edges": [["a", "a"]]}))
    code, _, err = run_cli(capsys, "cohomology", str(loopy))
    assert code == 2


DEEP_JSON = "[" * 200_000 + "]" * 200_000  # past any recursion limit


def test_deeply_nested_graph_file_exit_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    code, out, err = run_cli(capsys, "cohomology", str(path))
    assert (code, out) == (2, "")
    assert "not valid JSON" in err


def test_duplicate_vertex_id_exit_2(tmp_path, capsys):
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({
        "vertices": [{"id": "a", "weight": "2"}, {"id": "b", "weight": "3"},
                     {"id": "a", "weight": "5"}],
        "edges": [["a", "b"]]}))
    code, _, err = run_cli(capsys, "cohomology", str(dup))
    assert code == 2
    assert "duplicate vertex id 'a'" in err


def test_non_string_vertex_id_exit_2(tmp_path, capsys):
    # 1 and "1" must not merge into one vertex
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({
        "vertices": [{"id": 1, "weight": "2"}, {"id": "1", "weight": "3"}],
        "edges": []}))
    code, _, err = run_cli(capsys, "cohomology", str(mixed))
    assert code == 2
    assert "vertex id 1 is not a string" in err

    edge = tmp_path / "edge.json"
    edge.write_text(json.dumps({
        "vertices": [{"id": "1", "weight": "2"}, {"id": "2", "weight": "3"}],
        "edges": [[1, "2"]]}))
    code, _, err = run_cli(capsys, "cohomology", str(edge))
    assert code == 2
    assert "is not a string" in err


@pytest.mark.parametrize("edge", ["RG", {"R": 1, "G": 2}, ["R"],
                                  ["R", "G", "B"], "R"])
def test_edge_that_is_not_a_pair_of_ids_exit_2(tmp_path, capsys, edge):
    # a string or an object would unpack into two endpoints if not refused
    path = tmp_path / "g.json"
    path.write_text(json.dumps(dict(K3, edges=[edge])))
    code, out, err = run_cli(capsys, "cohomology", str(path))
    assert code == 2
    assert out == ""
    assert "error" in err


def _decimal(text):
    """int(text) for any length, in chunks below Python's default limit
    of 4300 digits for a string conversion."""
    n = 0
    for i in range(0, len(text), 4000):
        n = n * 10 ** len(text[i:i + 4000]) + int(text[i:i + 4000])
    return n


def test_torsion_report_past_the_int_digit_limit(tmp_path, capsys):
    # every weight has 4001 digits; the order 5**8000 has 5592
    path = tmp_path / "path.json"
    path.write_text(json.dumps({
        "vertices": [{"id": v, "weight": str(10 ** 4000)} for v in "abc"],
        "edges": [["a", "b"], ["b", "c"]]}))
    code, out, _ = run_cli(capsys, "torsion", str(path), "--prime", "5")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["p_torsion_order"]) == 5592
    assert _decimal(doc["p_torsion_order"]) == 5 ** 8000
    assert doc["forest_matches_divisors"] is True


def test_weight_past_the_int_digit_limit_is_read(tmp_path, capsys):
    # a JSON integer literal of 5001 digits, on both ends of one edge
    big = "1" + "0" * 5000
    path = tmp_path / "big.json"
    path.write_text('{"vertices": [{"id": "u", "weight": %s}, '
                    '{"id": "v", "weight": "%s"}], "edges": [["u", "v"]]}'
                    % (big, big))
    code, out, _ = run_cli(capsys, "cohomology", str(path))
    assert code == 0
    assert json.loads(out)["h1"] == {"rank": 0, "divisors": [big]}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int digit limit")
def test_main_restores_the_int_digit_limit(k3_file, tmp_path, capsys):
    before = sys.get_int_max_str_digits()
    assert run_cli(capsys, "cohomology", k3_file)[0] == 0
    assert sys.get_int_max_str_digits() == before
    assert run_cli(capsys, "cohomology", str(tmp_path / "missing.json"))[0] == 2
    assert sys.get_int_max_str_digits() == before


def test_forest_report_and_dot(k3_file, tmp_path, capsys):
    dot = tmp_path / "forest.dot"
    code, out, _ = run_cli(capsys, "forest", k3_file,
                           "--prime", "3", "--dot", str(dot))
    assert code == 0
    doc = json.loads(out)
    assert doc["node_count"] == 4
    assert doc["torsion_exponents"] == [4]
    assert dot.read_text().startswith("digraph forest")


def test_forest_dot_to_an_unwritable_path_exit_2(k3_file, tmp_path, capsys):
    # the dot file is written before the report, so a refusal prints none
    dot = tmp_path / "missing" / "forest.dot"
    code, out, err = run_cli(capsys, "forest", k3_file,
                             "--prime", "3", "--dot", str(dot))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {dot}: ")


@pytest.mark.parametrize("weight", [2.5, 3.0, True, None, [2], "1_000", " 7 ",
                                    "+7", "\u0663"])
def test_non_integer_weight_exit_2(tmp_path, capsys, weight):
    # a JSON float or boolean must not be truncated to an integer weight,
    # and a weight string is ASCII decimal digits only, though int()
    # would take each of the strings here
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "vertices": [{"id": "a", "weight": "2"}, {"id": "b", "weight": weight}],
        "edges": [["a", "b"]]}))
    code, out, err = run_cli(capsys, "cohomology", str(path))
    assert code == 2
    assert out == ""
    assert "weight of vertex 'b'" in err


def test_forest_rejects_composite_prime(k3_file, capsys):
    code, _, err = run_cli(capsys, "forest", k3_file, "--prime", "4")
    assert code == 2


def test_prime_above_the_primality_bound_exit_2(k3_file, capsys):
    from gcoh.graphs import PRIME_BOUND

    # 2^89 - 1 is a Mersenne prime, past the bound where primality is exact
    code, out, err = run_cli(capsys, "torsion", k3_file, "--prime",
                             str(2 ** 89 - 1))
    assert code == 2 and out == ""
    assert str(PRIME_BOUND) in err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--primes", f"3,{2 ** 89 - 1}"])
    assert exc.value.code == 2


@pytest.mark.parametrize("text", ["1_3", "٣", "３", " 3", "+3"])
def test_integer_options_read_ascii_digits_only(k3_file, capsys, text):
    # int() reads each of these as 13 or 3
    for argv in (["torsion", k3_file, "--prime", text],
                 ["verify", "--seed", text],
                 ["verify", "--instances", text],
                 ["verify", "--max-vertices", text],
                 ["verify", "--max-valuation", text],
                 ["verify", "--parallelism", text],
                 ["verify", "--primes", f"3,{text}"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == "", argv
        assert f"not an integer: {text!r}" in out.err, argv


def test_torsion_report(k3_file, capsys):
    code, out, _ = run_cli(capsys, "torsion", k3_file, "--prime", "3")
    doc = json.loads(out)
    assert code == 0
    assert doc["p_torsion_order"] == "81"
    assert doc["forest_matches_divisors"] is True


def test_torsion_at_the_benchmark_sparse_scale(tmp_path, capsys):
    # the shape of the largest sparse benchmark graphs: a random tree on 110
    # vertices plus n/4 extra edges, weights 3**a * {1, 2, 4}; its 136 x 110
    # d0 takes the Hermite-compressed path
    rng = random.Random(110)
    n = 110
    names = [f"v{i:03d}" for i in range(n)]
    edges = {(names[rng.randrange(i)], names[i]) for i in range(1, n)}
    while len(edges) < n - 1 + n // 4:
        i, j = sorted(rng.sample(range(n), 2))
        edges.add((names[i], names[j]))
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({
        "vertices": [{"id": v, "weight": str(3 ** rng.randint(0, 3) * rng.choice([1, 2, 4]))}
                     for v in names],
        "edges": sorted(map(list, edges))}))
    code, out, _ = run_cli(capsys, "torsion", str(path), "--prime", "3")
    doc = json.loads(out)
    assert code == 0
    assert doc["forest_matches_divisors"] is True
    assert int(doc["p_torsion_order"]) > 1


def test_tropical_eval(k3_file, tmp_path, capsys):
    vals = tmp_path / "vals.json"
    vals.write_text(json.dumps({"R": 3, "G": 0, "B": 1}))
    code, out, _ = run_cli(capsys, "tropical", k3_file, "--eval", str(vals))
    doc = json.loads(out)
    assert code == 0
    assert doc["value"] == "4"

    # round trip of the rendered expression
    from gcoh.tropical import parse, eval_expr, tval
    expr = parse(doc["expression"])
    assert eval_expr(expr, {"R": 3, "G": 0, "B": 1}) == tval(4)


def test_tropical_missing_valuation(k3_file, tmp_path, capsys):
    vals = tmp_path / "vals.json"
    vals.write_text(json.dumps({"R": 3, "G": 0}))
    code, _, err = run_cli(capsys, "tropical", k3_file, "--eval", str(vals))
    assert code == 2


@pytest.mark.parametrize("vals", [
    {"R": 3.7, "G": 0, "B": 1},     # not an integer
    {"R": 3.0, "G": 0, "B": 1},     # a float, even when whole
    {"R": True, "G": 0, "B": 1},    # a boolean
    {"R": "3", "G": 0, "B": 1},     # a string
    {"R": -2, "G": 0, "B": 1},      # negative
    {"R": 3, "G": 0, "B": 1, "zz": 5},  # not a vertex
    [3, 0, 1],                      # not an object
], ids=["fraction", "float", "bool", "string", "negative", "non-vertex",
        "list"])
def test_tropical_rejects_bad_valuations(k3_file, tmp_path, capsys, vals):
    path = tmp_path / "vals.json"
    path.write_text(json.dumps(vals))
    code, out, err = run_cli(capsys, "tropical", k3_file, "--eval", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_deeply_nested_valuation_file_exit_2(k3_file, tmp_path, capsys):
    path = tmp_path / "vals.json"
    path.write_text(DEEP_JSON)
    code, out, err = run_cli(capsys, "tropical", k3_file, "--eval", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read valuation file")


def test_tropical_rejects_negative_valuation_on_an_edge(tmp_path, capsys):
    graph = tmp_path / "edge.json"
    graph.write_text(json.dumps({
        "vertices": [{"id": "u", "weight": "1"}, {"id": "v", "weight": "1"}],
        "edges": [["u", "v"]]}))
    vals = tmp_path / "vals.json"
    vals.write_text(json.dumps({"u": -2, "v": 2}))
    code, out, err = run_cli(capsys, "tropical", str(graph), "--eval", str(vals))
    assert (code, out) == (2, "")
    assert "u=-2" in err


@pytest.mark.parametrize("ids", [["1", "2"], ["inf", "x"], ["a b", "c"]])
def test_tropical_refuses_vertex_ids_the_grammar_cannot_name(tmp_path, capsys,
                                                              ids):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "vertices": [{"id": v, "weight": "1"} for v in ids],
        "edges": [ids]}))
    code, out, err = run_cli(capsys, "tropical", str(path))
    assert (code, out) == (2, "")
    assert "cannot be written" in err


def test_tropical_complete_formula(tmp_path, capsys):
    names = ["a", "b", "c", "d"]
    doc = {
        "vertices": [{"id": v, "weight": "1"} for v in names],
        "edges": [[u, v] for i, u in enumerate(names)
                  for v in names[i + 1:]],
    }
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "tropical", str(path), "--complete-formula")
    assert code == 0
    text = json.loads(out)["expression"]
    assert "⊙" in text  # sigma_1 (.) sigma_3 shape


def test_tropical_cap_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GCOH_MAX_SUBGRAPHS", raising=False)
    names = [f"v{i}" for i in range(11)]
    doc = {"vertices": [{"id": v, "weight": "1"} for v in names], "edges": []}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "tropical", str(path))
    assert code == 3
    monkeypatch.setenv("GCOH_MAX_SUBGRAPHS", "12")
    code, out, _ = run_cli(capsys, "tropical", str(path))
    assert code == 0


@pytest.mark.parametrize("cap", ["abc", "-1", "\u0663", "\uff13", " 5 ", "5\n", " "])
def test_tropical_malformed_cap_exit_2(k3_file, capsys, monkeypatch, cap):
    monkeypatch.setenv("GCOH_MAX_SUBGRAPHS", cap)
    code, out, err = run_cli(capsys, "tropical", k3_file)
    assert code == 2 and out == ""
    assert "GCOH_MAX_SUBGRAPHS" in err and repr(cap) in err


def test_core_and_spanning_tree(k3_file, capsys):
    code, out, _ = run_cli(capsys, "core", k3_file, "--prime", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["core_edges"] == [["B", "G"], ["G", "R"]]

    code, _, err = run_cli(capsys, "spanning-tree", k3_file, "--prime", "3")
    assert code == 2  # K3 is not orientable at 3


def test_spanning_tree_on_bipartite(tmp_path, capsys):
    doc = {
        "vertices": [{"id": v, "weight": "3"} for v in "abcd"],
        "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
    }
    path = tmp_path / "square.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "spanning-tree", str(path), "--prime", "3")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["torsion_exponent"] == 3
    assert len(parsed["tree_edges"]) == 3


@pytest.mark.parametrize("doc", [
    {"vertices": [], "edges": []},
    {"vertices": [{"id": "a", "weight": "3"}, {"id": "b", "weight": "1"}],
     "edges": []},
], ids=["empty", "disconnected"])
def test_spanning_tree_refuses_all_but_one_component(tmp_path, capsys, doc):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    for p in ("3", "5"):
        code, out, err = run_cli(capsys, "spanning-tree", str(path), "--prime", p)
        assert code == 2 and out == ""
        assert err == ("error: weighted_spanning_tree requires a connected "
                       "subgraph\n")


def test_reports_deterministic(k3_file, capsys):
    _, out1, _ = run_cli(capsys, "torsion", k3_file, "--prime", "3")
    _, out2, _ = run_cli(capsys, "torsion", k3_file, "--prime", "3")
    assert out1 == out2


def test_verify_small_run(capsys):
    code, out, _ = run_cli(capsys, "verify", "--instances", "40",
                           "--seed", "7", "--max-vertices", "5")
    assert code == 0
    assert "properties passed" in out
    assert "FAIL" not in out


def test_verify_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--instances", "30", "--seed", "11")
    _, out2, _ = run_cli(capsys, "verify", "--instances", "30", "--seed", "11")
    assert out1 == out2


def test_verify_parallel_run_matches_serial(capsys):
    args = ("verify", "--seed", "3", "--instances", "60")
    serial = run_cli(capsys, *args)
    parallel = run_cli(capsys, *args, "--parallelism", "2")
    assert serial[0] == 0
    assert parallel == serial


def test_verify_pool_never_exceeds_the_property_count(capsys, monkeypatch):
    # fork starts every worker up front, so the pool is capped; a recording
    # stand-in runs the tasks inline and no process is started
    import concurrent.futures
    import multiprocessing
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    args = ("verify", "--seed", "3", "--instances", "20")
    serial = run_cli(capsys, *args)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    assert run_cli(capsys, *args, "--parallelism", "1000000") == serial
    assert sizes == [19]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("option, bad, good", [
    ("--instances", "0", "1"),
    ("--max-vertices", "2", "3"),
    ("--max-valuation", "-1", "0"),
    ("--parallelism", "0", "1"),
])
def test_verify_rejects_out_of_range_options(capsys, option, bad, good):
    code, out, err = run_cli(capsys, "verify", "--seed", "1", "--instances", "20",
                             option, bad)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {option} must be at least {good}")
    code, out, _ = run_cli(capsys, "verify", "--seed", "1", "--instances", "20",
                           option, good)
    assert code == 0 and "FAIL" not in out


@pytest.mark.parametrize("primes, reason", [
    ("3,4", "4 is not prime"),
    (f"3,{2 ** 89 - 1}", f"primality is exact only below {PRIME_BOUND}"),
])
def test_primes_option_keeps_the_reason_for_a_refusal(capsys, primes, reason):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--primes", primes])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error: argument --primes: " in err
    assert err.rstrip().endswith(reason)


def test_a_property_that_accepts_no_instance_fails():
    from gcoh.verify import SKIP, _run

    def rejects_every_draw(cfg, rng, count):
        while True:
            yield SKIP

    def draws_nothing(cfg, rng, count):
        yield from ()

    cfg = VerificationConfig(instance_count=20, seed=1)
    for check in (rejects_every_draw, draws_nothing):
        result = _run("empty", "empty", check, cfg, 5)
        assert not result.passed and result.instances == 0
        assert result.counterexample == {"accepted": 0}
        assert result.line().startswith("FAIL  empty (0 instances)")


def test_core_relation_checks_instances_at_max_valuation_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "5", "--instances",
                           "200", "--max-valuation", "0")
    assert code == 0 and "FAIL" not in out
    line = next(l for l in out.splitlines() if " core_relation " in l)
    assert line.startswith("pass") and "(0 instances)" not in line


def test_verify_detects_injected_mutation(monkeypatch):
    # harness self-test: a wrong tree formula must be caught with a
    # serialized counterexample
    import gcoh.verify
    from gcoh.weights import tree_torsion

    cfg = VerificationConfig(instance_count=80, seed=3)

    def broken(sub):
        return tree_torsion(sub) + 1

    with monkeypatch.context() as mp:
        mp.setattr(gcoh.verify, "tree_torsion", broken)
        result = run_property("tree_formula", cfg)
    assert not result.passed
    assert result.counterexample is not None
    assert "graph" in result.counterexample

    healthy = run_property("tree_formula", cfg)
    assert healthy.passed


def _doubled_first_row(dec):
    """dec with row 0 of U and row 0 of S doubled: it still multiplies
    back, but U is no longer unimodular."""
    from gcoh.intlinalg import SmithDecomposition, matrix

    def doubled(m):
        return matrix([[2 * x for x in m.entries[0]], *m.entries[1:]], m.cols)

    return SmithDecomposition(doubled(dec.u), doubled(dec.s), dec.v, dec.hermite)


def test_snf_invariants_fails_a_non_unimodular_compressed_transform(monkeypatch):
    import gcoh.verify
    from gcoh.intlinalg import (COMPRESS_MIN_GAP, check_smith, determinant,
                                matrix, smith_normal_form)

    rng = random.Random(4)
    a = matrix([[rng.randint(-20, 20) for _ in range(3)]
                for _ in range(3 + COMPRESS_MIN_GAP)])
    bad = _doubled_first_row(smith_normal_form(a))
    assert bad.hermite is not None
    check_smith(a, bad)  # the multiply-back alone accepts it
    assert abs(determinant(bad.u)) == 2

    def mutated(m):
        dec = smith_normal_form(m)
        return dec if dec.hermite is None else _doubled_first_row(dec)

    cfg = VerificationConfig(instance_count=200, seed=1)
    with monkeypatch.context() as mp:
        mp.setattr(gcoh.verify, "smith_normal_form", mutated)
        result = run_property("snf_invariants", cfg)
    assert not result.passed
    tall = result.counterexample["matrix"]
    assert len(tall) - len(tall[0]) >= COMPRESS_MIN_GAP

    assert run_property("snf_invariants", cfg).passed


def test_snf_invariants_reports_a_failed_multiply_back(monkeypatch):
    import gcoh.verify
    from gcoh.intlinalg import SmithDecomposition, smith_normal_form

    def wrong_s(m):
        dec = smith_normal_form(m)
        return SmithDecomposition(dec.u, dec.u, dec.v, dec.hermite)

    monkeypatch.setattr(gcoh.verify, "smith_normal_form", wrong_s)
    result = run_property("snf_invariants", VerificationConfig(seed=1))
    assert not result.passed and "matrix" in result.counterexample


def test_complete_graph_failure_reports_the_instances_run(monkeypatch):
    import gcoh.verify
    from gcoh.tropical import Const, times, tval

    real = gcoh.verify.z_complete

    def wrong_at_four(n, names=None):
        z = real(n, names)
        return times([z, Const(tval(1))]) if n == 4 else z

    monkeypatch.setattr(gcoh.verify, "z_complete", wrong_at_four)
    # budget 190 // 19 = 10 instances, per_n = 3 for each of n = 3, 4, 5
    result = run_property("complete_graph",
                          VerificationConfig(instance_count=190, seed=1))
    assert not result.passed
    assert result.instances == 3 + 1
    assert len(result.counterexample["graph"]["vertices"]) == 4


def test_properties_are_the_names_the_tracer_reports():
    import importlib.util

    import gcoh.verify

    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert sorted(gcoh.verify.PROPERTIES) == list(tracing.VERIFY_PROPERTIES)
    assert len(tracing.VERIFY_PROPERTIES) == 19


def test_run_property_calls_the_patched_entry(monkeypatch):
    import gcoh.verify

    calls = []

    def stub(cfg, count):
        calls.append((cfg, count))
        return gcoh.verify.PropertyResult("tree_formula", count, True)

    monkeypatch.setitem(gcoh.verify.PROPERTIES, "tree_formula", stub)
    cfg = VerificationConfig(instance_count=190, seed=1)
    assert run_property("tree_formula", cfg).line() == \
        "pass  tree_formula (10 instances)"
    assert calls == [(cfg, 10)]


# p = 2: a graph whose forest has a node oriented over Z/2^(r - m) with
# m > 0; p = 3: two levels of merges, a bipartite tail and an isolated
# heavy vertex.
HASH_SEED_GRAPHS = (
    (2, {"v0": 4, "v1": 2, "v2": 8, "v3": 2, "v4": 8, "v5": 8},
     [["v0", "v1"], ["v0", "v3"], ["v0", "v4"], ["v0", "v5"], ["v1", "v2"],
      ["v1", "v3"], ["v2", "v3"], ["v2", "v4"], ["v3", "v4"], ["v3", "v5"]]),
    (3, {"a": 1, "b": 3, "c": 9, "d": 2, "e": 27, "f": 1, "g": 3, "h": 81},
     [["a", "b"], ["b", "c"], ["a", "c"], ["c", "d"], ["d", "e"], ["f", "g"],
      ["b", "e"]]),
)


def test_reports_identical_across_hash_seeds(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(gcoh.__file__).resolve().parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for p, weights, edges in HASH_SEED_GRAPHS:
        path = tmp_path / f"g{p}.json"
        path.write_text(json.dumps({
            "vertices": [{"id": v, "weight": str(k)} for v, k in weights.items()],
            "edges": edges}))
        vals = tmp_path / f"v{p}.json"
        vals.write_text(json.dumps({v: i % 3 for i, v in enumerate(weights)}))
        outputs = []
        for seed in ("1", "2"):
            dot = tmp_path / f"forest{p}-{seed}.dot"
            run = []
            for argv in (["forest", str(path), "--prime", str(p), "--dot", str(dot)],
                         ["core", str(path), "--prime", str(p)],
                         ["tropical", str(path), "--eval", str(vals)],
                         ["torsion", str(path), "--prime", str(p)]):
                proc = subprocess.run(
                    [sys.executable, "-m", "gcoh.cli", *argv],
                    env={**env, "PYTHONHASHSEED": seed},
                    capture_output=True, timeout=120, check=True)
                run.append(proc.stdout)
            run.append(dot.read_bytes())
            outputs.append(run)
        assert outputs[0] == outputs[1], p


def test_tropical_properties_draw_valuations_to_max_valuation_plus_one(
        monkeypatch):
    import gcoh.verify

    real = gcoh.verify.eval_expr
    seen = []

    def spy(expr, vals):
        seen.extend(vals.values())
        return real(expr, vals)

    monkeypatch.setattr(gcoh.verify, "eval_expr", spy)
    cfg = VerificationConfig(instance_count=400, max_valuation=8, seed=3,
                             primes=(3,))
    for name in ("tropical_interpretation", "complete_graph"):
        seen.clear()
        assert run_property(name, cfg).passed
        assert (min(seen), max(seen)) == (0, 9)


def test_restrict_functoriality_runs_at_every_prime(monkeypatch):
    import gcoh.verify

    real = gcoh.verify.restrict
    primes = set()

    def spy(source, d):
        primes.add(source.forest.prime)
        return real(source, d)

    monkeypatch.setattr(gcoh.verify, "restrict", spy)
    cfg = VerificationConfig(instance_count=400, seed=5)
    assert run_property("restrict_functoriality", cfg).passed
    assert primes == {2, 3, 5}


def test_unsupported_restriction_is_a_failure(monkeypatch):
    import gcoh.verify
    from gcoh.fcomplex import UnsupportedRestriction

    def unsupported(source, d):
        raise UnsupportedRestriction("component is not a generator")

    monkeypatch.setattr(gcoh.verify, "restrict", unsupported)
    result = run_property("restrict_functoriality",
                          VerificationConfig(instance_count=80, seed=3))
    assert not result.passed
    assert "graph" in result.counterexample and "prime" in result.counterexample
