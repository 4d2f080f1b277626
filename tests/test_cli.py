import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nmrfmap.cli
import nmrfmap.mwss
import nmrfmap.structure
from nmrfmap.cli import main
from nmrfmap.errors import (
    InconsistentCompletionError,
    ObjectiveMismatchError,
)
from nmrfmap.generators import block_chain_model, model_from_signed_edges, random_signed_model
from nmrfmap.model import (
    ASSOCIATIVE,
    REPULSIVE,
    energy,
    model_from_json_file,
    model_to_json,
)
from nmrfmap.mwss import MapSolution, solve_map
from nmrfmap.nmrf import build_nmrf, nmrf_to_json
from nmrfmap.structure import classify_graph, classify_model, report_to_json


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def chain_model(tmp_path):
    doc = {
        "variables": [{"name": n, "card": 2} for n in "ABC"],
        "potentials": [
            {"scope": ["A", "B"], "table": [2.0, 0.0, 0.0, 2.0]},
            {"scope": ["B", "C"], "table": [0.0, 1.0, 1.0, 0.0]},
            {"scope": ["A"], "table": [0.0, 0.5]},
        ],
    }
    return write_json(tmp_path / "model.json", doc)


@pytest.fixture
def frustrated_model(tmp_path):
    rng = np.random.default_rng(2)
    edges = [(0, 1, REPULSIVE), (1, 2, ASSOCIATIVE), (2, 3, ASSOCIATIVE),
             (0, 3, ASSOCIATIVE)]
    model = model_from_signed_edges(4, edges, rng)
    return write_json(tmp_path / "frustrated.json", model_to_json(model))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate(chain_model, capsys):
    code, out, _ = run(capsys, "validate", chain_model)
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] and doc["binary_pairwise"]
    assert doc["variables"] == 3


def test_validate_rejects_garbage(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", {"variables": [], "junk": 1})
    code, _, err = run(capsys, "validate", bad)
    assert code == 2
    assert "error" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/path.json")
    assert code == 2


def test_classify_tractable(chain_model, capsys):
    code, out, _ = run(capsys, "classify", chain_model)
    assert code == 0
    doc = json.loads(out)
    assert doc["tractable"]
    assert all(b["class"] == "BR" for b in doc["blocks"])


def test_classify_intractable(frustrated_model, capsys):
    code, out, _ = run(capsys, "classify", frustrated_model)
    assert code == 1
    doc = json.loads(out)
    assert not doc["tractable"]
    witness = next(b["witness"] for b in doc["blocks"]
                   if b["class"] == "INTRACTABLE")
    assert len(witness) >= 4


def test_compile_then_perfect_round_trip(chain_model, tmp_path, capsys):
    nmrf_path = tmp_path / "out.json"
    dot_path = tmp_path / "out.dot"
    code, out, _ = run(capsys, "compile", chain_model,
                       "--out", str(nmrf_path), "--dot", str(dot_path))
    assert code == 0
    doc = json.loads(nmrf_path.read_text())
    assert {"nodes", "edges", "constants"} <= set(doc)
    assert dot_path.read_text().startswith("graph nmrf {")

    code, out, _ = run(capsys, "perfect", str(nmrf_path))
    assert code == 0
    assert json.loads(out)["perfect"]


def test_perfect_rejects_with_witness(frustrated_model, tmp_path, capsys):
    # force the odd hole to survive: zero singletons, explicit biased ones
    with open(frustrated_model) as fh:
        doc = json.load(fh)
    nmrf_path = tmp_path / "f.json"
    code, _, _ = run(capsys, "compile", frustrated_model, "--out", str(nmrf_path))
    assert code == 0
    code, out, _ = run(capsys, "perfect", str(nmrf_path))
    loaded = json.loads(out)
    if code == 1:
        assert not loaded["perfect"]
        assert loaded["witness_kind"] == "odd_hole"
    else:
        assert loaded["perfect"]


def test_perfect_multi_enode_graph_gets_the_full_search(tmp_path, capsys):
    # an unrewritten model keeps several enodes per edge; the witness ids
    # are the exported graph's own node ids
    model = random_signed_model(np.random.default_rng(5), n=4, p=0.6)
    path = write_json(tmp_path / "g.json", nmrf_to_json(build_nmrf(model)))
    code, out, err = run(capsys, "perfect", path)
    assert (code, err) == (1, "")
    assert out == json.dumps(
        {"perfect": False, "witness": [2, 13, 11, 16, 21], "witness_kind": "odd_hole"},
        indent=2, sort_keys=True) + "\n"


def test_solve_bnb_over_the_node_cap_exits_3(frustrated_model, capsys):
    assert run(capsys, "solve", frustrated_model, "--method", "bnb", "--max-nodes", "2") == (
        3, "", "error: pruned NMRF has 16 nodes, exceeds cap 2\n")


@pytest.mark.parametrize("verb", ["classify", "solve"])
def test_non_binary_model_is_an_input_error(verb, tmp_path, capsys):
    path = write_json(tmp_path / "m3.json", {
        "variables": [{"name": "A", "card": 3}, {"name": "B", "card": 2}],
        "potentials": [{"scope": ["A", "B"], "table": [1, 0, 0, 2, 0.5, 0]}],
    })
    assert run(capsys, verb, path) == (2, "", "error: model must be binary pairwise\n")


def test_solve_with_oracle_check(chain_model, capsys):
    code, out, _ = run(capsys, "solve", chain_model, "--oracle-check")
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle"]["agree"]
    assert doc["assignment"] == {"A": 1, "B": 1, "C": 0}


@pytest.fixture
def near_tie_model(tmp_path):
    """12 variables with unary gaps in [2e-8, 1e-7] and one anchoring edge."""
    rng = np.random.default_rng(12)
    names = [f"X{i + 1}" for i in range(12)]
    potentials = [
        {"scope": [name], "table": [0.0, float(rng.uniform(2e-8, 1e-7))]}
        for name in names
    ]
    potentials.append({"scope": ["X3", "X7"], "table": [1.5, 0.0, 0.0, 0.5]})
    doc = {"variables": [{"name": n, "card": 2} for n in names],
           "potentials": potentials}
    return write_json(tmp_path / "near_tie.json", doc)


def test_oracle_check_uses_table_scaled_tolerance(near_tie_model, capsys,
                                                  monkeypatch):
    code, out, _ = run(capsys, "solve", near_tie_model, "--oracle-check")
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle"]["agree"]
    assert doc["objective"] == doc["oracle"]["objective"]

    # Flipping one free variable costs a gap of at least 2e-8, well inside
    # a 1e-6 relative tolerance but outside the table-scaled one.
    def drifted(model, *args):
        assignment = dict(doc["assignment"], X1=0)
        return MapSolution(assignment, energy(model, assignment), "blocks")

    monkeypatch.setattr(nmrfmap.cli, "solve_map", drifted)
    code, out, err = run(capsys, "solve", near_tie_model, "--oracle-check")
    assert code == 1
    assert not json.loads(out)["oracle"]["agree"]
    assert "oracle disagreement" in err


def test_oracle_check_allows_twice_the_folding_slack(tmp_path, capsys):
    """Three pairs with near-zero edges [0, 5e-10, 5e-10, 0]: folding them
    moves every labeling by at most slack = 3 * 2.5e-10, so the solve may
    miss the optimum 1.5e-9 by 2 * slack, past objective_tolerance (1e-9)."""
    names = "ABCDEF"
    doc = {
        "variables": [{"name": n, "card": 2} for n in names],
        "potentials": [
            {"scope": [names[i], names[i + 1]], "table": [0.0, 5e-10, 5e-10, 0.0]}
            for i in (0, 2, 4)
        ],
    }
    path = write_json(tmp_path / "pairs.json", doc)
    code, out, err = run(capsys, "solve", path, "--oracle-check")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["objective"] == 0.0
    assert doc["oracle"] == {"objective": pytest.approx(1.5e-9), "agree": True}


@pytest.mark.parametrize(
    "fault",
    [ObjectiveMismatchError, InconsistentCompletionError],
)
def test_solver_faults_exit_internal(fault, chain_model, capsys, monkeypatch):
    def broken(*args):
        raise fault("solver fault")

    monkeypatch.setattr(nmrfmap.cli, "solve_map", broken)
    code, out, err = run(capsys, "solve", chain_model)
    assert code == 4
    assert out == ""
    assert "internal error" in err and fault.__name__ in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fault", [RuntimeError, RecursionError, OverflowError])
def test_unexpected_exceptions_exit_internal(fault, chain_model, capsys, monkeypatch):
    def broken(*args):
        raise fault("unexpected")

    monkeypatch.setattr(nmrfmap.cli, "solve_map", broken)
    code, out, err = run(capsys, "solve", chain_model)
    assert code == 4
    assert out == ""
    assert err == f"internal error: {fault.__name__}: unexpected\n"


def test_solve_long_cycle_exits_zero(tmp_path, capsys):
    """A 700-variable balanced cycle: one tractable block whose augmenting
    paths are longer than the default recursion limit."""
    n = 700
    names = [f"X{i}" for i in range(n)]
    potentials = [{"scope": ["X0"], "table": [0.0, 50.0]}]
    potentials += [{"scope": [x], "table": [0.0, -0.01]} for x in names[1:]]
    potentials += [
        {"scope": [names[i], names[(i + 1) % n]], "table": [3.0, 0.0, 0.0, 3.0]}
        for i in range(n)
    ]
    doc = {"variables": [{"name": x, "card": 2} for x in names], "potentials": potentials}
    code, out, err = run(capsys, "solve", write_json(tmp_path / "cycle.json", doc))
    assert (code, err) == (0, "")
    # Cutting the two edges at X0 (-6) beats paying 0.01 on the 699 others.
    assert json.loads(out)["assignment"] == {x: int(x == "X0") for x in names}


def test_oracle_check_too_large_keeps_the_solution(tmp_path, capsys):
    model = block_chain_model(11)  # 23 variables, past brute force's 2^20
    path = write_json(tmp_path / "chain.json", model_to_json(model))
    code, out, err = run(capsys, "solve", path, "--oracle-check")
    assert code == 3
    doc = json.loads(out)
    sol = solve_map(model_from_json_file(path))
    assert doc["assignment"] == sol.assignment
    assert doc["objective"] == sol.objective
    assert doc["oracle"] == {"checked": False,
                             "reason": "configuration space exceeds 2^20"}
    assert err == "error: oracle check skipped: configuration space exceeds 2^20\n"


def test_validate_huge_int_entry_is_input_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(
        '{"variables": [{"name": "A", "card": 2}], '
        '"potentials": [{"scope": ["A"], "table": [1' + "0" * 400 + ', 0]}]}'
    )
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert "non-finite entry at index 0" in err
    assert "Traceback" not in err


def test_solve_intractable_reports_witness(frustrated_model, capsys):
    code, out, err = run(capsys, "solve", frustrated_model)
    assert code == 1
    doc = json.loads(out)
    assert doc["solved"] is False and doc["reason"] == "intractable"
    assert "witness" in err


def test_solve_refusal_reuses_the_solve_report(frustrated_model, capsys, monkeypatch):
    calls = []

    def counted(graph):
        calls.append(graph)
        return classify_graph(graph)

    monkeypatch.setattr(nmrfmap.mwss, "classify_graph", counted)
    monkeypatch.setattr(nmrfmap.structure, "classify_graph", counted)
    code, out, _ = run(capsys, "solve", frustrated_model)
    assert code == 1
    assert len(calls) == 1
    model = model_from_json_file(frustrated_model)
    assert json.loads(out)["report"] == report_to_json(classify_model(model))


def test_solve_bnb_method(frustrated_model, capsys):
    code, out, _ = run(capsys, "solve", frustrated_model, "--method", "bnb",
                       "--max-nodes", "64", "--oracle-check")
    assert code == 0
    assert json.loads(out)["oracle"]["agree"]


_TWO_NODES = {
    "nodes": [
        {"id": 0, "group": ["A"], "assignment": {"A": 0}, "weight": 0.0},
        {"id": 1, "group": ["A"], "assignment": {"A": 1}, "weight": 1.0},
    ],
    "edges": [[0, 1]],
    "constants": 0.0,
}


def _model_doc(scope, table):
    """Two binary variables A and B and one potential."""
    return {
        "variables": [{"name": "A", "card": 2}, {"name": "B", "card": 2}],
        "potentials": [{"scope": scope, "table": table}],
    }


@pytest.mark.parametrize(
    "verb, doc",
    [
        ("submodular", {"scope": ["a", "b"], "table": 5}),
        ("submodular", {"scope": ["a", "b"], "table": [0, None, 0, 0]}),
        ("submodular", {"scope": "ab", "table": [0, 0, 0, 0]}),
        ("submodular", {"scope": ["a", "a"], "table": [0, 0, 0, 1]}),
        ("submodular", []),
        ("perfect", {**_TWO_NODES, "edges": [[0, 5]]}),
        ("perfect", []),
        ("perfect", {**_TWO_NODES, "nodes": _TWO_NODES["nodes"][::-1]}),
        ("validate", _model_doc(5, [0, 0])),
        ("validate", _model_doc(None, [0, 0])),
        ("validate", _model_doc([["A"]], [0, 0])),
        ("validate", _model_doc("AB", [0, 0, 0, 0])),
    ],
    ids=[
        "table-not-a-list", "table-null", "scope-string", "scope-repeats",
        "potential-not-a-mapping", "edge-to-missing-node", "graph-not-a-mapping",
        "id-not-position", "model-scope-number", "model-scope-null",
        "model-scope-unhashable-name", "model-scope-string",
    ],
)
def test_malformed_documents_are_input_errors(verb, doc, tmp_path, capsys):
    code, out, err = run(capsys, verb, write_json(tmp_path / "doc.json", doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("verb", ["validate", "classify", "solve"])
@pytest.mark.parametrize(
    "key, value",
    [("variables", None), ("variables", 3), ("variables", True),
     ("potentials", None), ("potentials", 2.5), ("potentials", True)],
)
def test_variables_and_potentials_must_be_lists(verb, key, value, tmp_path, capsys):
    """A model whose `variables` or `potentials` is no list is an input
    error, not a TypeError from iterating it."""
    doc = _model_doc(["A"], [0, 1])
    doc[key] = value
    code, out, err = run(capsys, verb, write_json(tmp_path / "doc.json", doc))
    assert (code, out) == (2, "")
    assert err == f"error: {key} must be a list: {value!r}\n"


@pytest.mark.parametrize("verb", ["solve", "perfect"])
def test_max_nodes_is_an_integer_at_least_zero(verb, chain_model, tmp_path, capsys):
    """A negative or fractional cap is an input error (exit 2), not a model
    too large for it (exit 3); a cap of 0 is valid and too small."""
    argv = {
        "solve": ["solve", chain_model, "--method", "bnb"],
        "perfect": ["perfect", write_json(tmp_path / "g.json", _TWO_NODES)],
    }[verb]
    for value in ("-1", "1.5", "x"):
        code, out, err = run(capsys, *argv, f"--max-nodes={value}")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"nmrfmap {verb}: error: argument --max-nodes: must be an integer >= 0, not '{value}'"
        )
    code, out, err = run(capsys, *argv, "--max-nodes=0")
    assert (code, out) == (3, "") and "exceeds cap 0" in err
    code, out, _ = run(capsys, *argv, "--max-nodes=40")
    assert code == 0 and json.loads(out)


@pytest.mark.parametrize(
    "verb", ["validate", "classify", "compile", "solve", "perfect", "submodular", "bench"]
)
def test_eps_must_be_finite_and_nonnegative(verb, chain_model, tmp_path, capsys):
    """NaN compares false with every weight, so `solve --method bnb --eps
    nan` could print a wrong optimum and `compile --eps nan` pruned every
    node. Each verb refuses it, as it refuses an infinite or negative eps or
    a non-number, with exit 2 before reading its input."""
    argv = {
        "validate": ["validate", chain_model],
        "classify": ["classify", chain_model],
        "compile": ["compile", chain_model],
        "solve": ["solve", chain_model, "--method", "bnb"],
        "perfect": ["perfect", write_json(tmp_path / "g.json", _TWO_NODES)],
        "submodular": ["submodular", write_json(
            tmp_path / "psi.json", {"scope": ["A", "B", "C"], "table": [0] * 7 + [2]})],
        "bench": ["bench", "random-tractable", "--count", "1"],
    }[verb]
    for eps in ("nan", "inf", "-inf", "-1e-9", "x"):
        code, out, err = run(capsys, *argv, f"--eps={eps}")
        assert code == 2 and out == ""
        assert f"argument --eps: must be a finite number >= 0, not '{eps}'" in err
    for eps in ("0", "1e-9"):
        code, out, _ = run(capsys, *argv, f"--eps={eps}")
        assert code == 0 and out
    if verb == "solve":  # A = B = 1, C = 0
        assert json.loads(out)["objective"] == 3.5


def test_submodular_k3(tmp_path, capsys):
    table = [0.0] * 8
    table[7] = 2.0  # nonnegative all-ones indicator
    path = write_json(tmp_path / "psi.json",
                      {"scope": ["A", "B", "C"], "table": table})
    code, out, _ = run(capsys, "submodular", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["supermodular"] and doc["feasible"]
    assert "representation" in doc


def test_submodular_rejects_non_supermodular(tmp_path, capsys):
    table = [0.0] * 8
    table[0b011] = 1.0
    path = write_json(tmp_path / "psi.json",
                      {"scope": ["A", "B", "C"], "table": table})
    code, out, _ = run(capsys, "submodular", path)
    assert code == 1
    doc = json.loads(out)
    assert not doc["supermodular"]
    assert "witness" in doc


@pytest.mark.parametrize("scope, table", [([], [0.0]), (["A"], [0, 1])], ids=["order-0", "order-1"])
def test_submodular_below_order_2_is_an_input_error(scope, table, tmp_path, capsys):
    path = write_json(tmp_path / "psi.json", {"scope": scope, "table": table})
    code, out, err = run(capsys, "submodular", path)
    assert code == 2
    assert out == ""
    assert err == f"error: order {len(scope)} outside [2, 10]\n"


def test_submodular_k4_infeasible(tmp_path, capsys):
    table = [0.0] * 16
    table[0] = 2.0
    for idx in (0b1000, 0b0100, 0b0010, 0b0001):
        table[idx] = 1.0
    path = write_json(tmp_path / "psi.json",
                      {"scope": ["A", "B", "C", "D"], "table": table})
    code, out, _ = run(capsys, "submodular", path)
    assert code == 1
    doc = json.loads(out)
    assert doc["supermodular"] and not doc["feasible"]
    assert doc["alpha"] == -2.0


_FOOTPRINT = """
import json, sys
import nmrfmap, nmrfmap.cli

def loaded():
    return sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})

seen = {"import": loaded()}
model, psi, out = sys.argv[1:]
for verb in (["validate"], ["classify"], ["compile"], ["solve"],
             ["solve", "--method", "bnb"]):
    code = nmrfmap.cli.main(verb + [model, "--out", out])
    seen[" ".join(verb)] = [code, loaded()]
code = nmrfmap.cli.main(["submodular", psi, "--out", out])
seen["submodular"] = [code, "scipy.optimize" in sys.modules]
print(json.dumps(seen))
"""


def test_only_bench_and_the_lp_import_numpy_or_scipy(chain_model, tmp_path):
    table = [0.0] * 16
    table[15] = 2.0  # nonnegative all-ones indicator: feasible by the LP
    psi = write_json(tmp_path / "psi4.json",
                     {"scope": ["A", "B", "C", "D"], "table": table})
    out = tmp_path / "out.json"
    src = os.path.dirname(os.path.dirname(nmrfmap.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, chain_model, psi, str(out)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    seen = json.loads(proc.stdout)
    assert seen.pop("submodular") == [0, True]
    assert json.loads(out.read_text())["feasible"] is True
    assert seen.pop("import") == []
    assert seen == {verb: [0, []] for verb in seen}
    assert len(seen) == 5


_LEAN = """
import json, sys
before = set(sys.modules)
import nmrfmap
seen = {"import": sorted(set(sys.modules) - before)}
doc, intractable, out = json.load(open(sys.argv[1])), json.load(open(sys.argv[2])), sys.argv[3]
before = set(sys.modules)
nmrfmap.solve_map(nmrfmap.validate_model(doc))
try:
    nmrfmap.solve_map(nmrfmap.validate_model(intractable))
except nmrfmap.IntractableTopologyError as exc:
    nmrfmap.report_to_json(exc.report)
nmrfmap.report_to_json(nmrfmap.classify_model(nmrfmap.validate_model(doc)))
seen["requests"] = sorted(set(sys.modules) - before)
import nmrfmap.cli
for verb, path in (("validate", sys.argv[1]), ("classify", sys.argv[1]),
                   ("solve", sys.argv[1]), ("solve", sys.argv[2])):
    nmrfmap.cli.main([verb, path, "--out", out])
seen["verbs"] = sorted(set(sys.modules) & {
    "dataclasses", "nmrfmap.nmrf", "nmrfmap.perfection", "nmrfmap.submodular", "nmrfmap.oracle"})
seen["unresolved"] = [name for name in dir(nmrfmap) if not hasattr(nmrfmap, name)]
print(json.dumps(seen))
"""


def test_import_loads_only_the_request_path(chain_model, frustrated_model, tmp_path):
    src = os.path.dirname(os.path.dirname(nmrfmap.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _LEAN, chain_model, frustrated_model, str(tmp_path / "out.json")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    seen = json.loads(proc.stdout)
    package = {"nmrfmap", "nmrfmap.errors", "nmrfmap.model", "nmrfmap.structure", "nmrfmap.mwss"}
    assert {m for m in seen["import"] if m.startswith("nmrfmap")} == package
    assert "dataclasses" not in seen["import"]
    assert seen["requests"] == []  # serving a request imports nothing
    assert seen["verbs"] == []
    assert seen["unresolved"] == []


def _chain_document(n_edges):
    names = [f"x{i}" for i in range(n_edges + 1)]
    return {
        "variables": [{"name": name, "card": 2} for name in names],
        "potentials": [
            {"scope": [u, v], "table": [1.0, 0.0, 0.0, 1.0] if i % 2 else [0.0, 1.0, 1.0, 0.0]}
            for i, (u, v) in enumerate(zip(names, names[1:]))
        ],
    }


def test_closed_stdout_exits_5_quietly(tmp_path):
    # A report of about 900 KB: far more than a pipe buffers, so the writer
    # is still writing when the reader goes away.
    path = write_json(tmp_path / "chain.json", _chain_document(3000))
    src = os.path.dirname(os.path.dirname(nmrfmap.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "nmrfmap", "classify", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 5
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == ""


@pytest.mark.parametrize("verb", [["compile"], ["solve", "--method", "bnb"]])
def test_unindexable_cardinality_is_too_large(verb, tmp_path, capsys):
    path = write_json(tmp_path / "huge.json", {
        "variables": [{"name": "A", "card": 2}, {"name": "Huge", "card": 10**30}],
        "potentials": [{"scope": ["A"], "table": [0.0, 1.0]}],
    })
    code, out, err = run(capsys, verb[0], path, *verb[1:])
    assert code == 3
    assert out == ""
    assert "clique group ['Huge']" in err and "internal error" not in err


@pytest.mark.parametrize("verb", [["compile"], ["solve", "--method", "bnb"]])
def test_huge_clique_group_is_too_large_before_allocating(verb, tmp_path):
    """A group of 2**40 nodes can be indexed but not built: the node cap
    refuses it before any node is, even with 2 GB of address space."""
    resource = pytest.importorskip("resource")
    path = write_json(tmp_path / "huge.json", {
        "variables": [{"name": "Huge", "card": 2**40}], "potentials": [],
    })
    src = os.path.dirname(os.path.dirname(nmrfmap.cli.__file__))
    limit = 2 * 1024**3

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "nmrfmap", verb[0], path, *verb[1:]],
        capture_output=True, text=True, timeout=120, preexec_fn=cap_memory,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "clique group ['Huge']" in proc.stderr and "internal error" not in proc.stderr


@pytest.mark.parametrize("table", [
    [0, 1e308, 1e308, 0], [1e308, 0, 0, 1e308], [0, 0, 0, 1e308], [1e308, 1e308, 0, 0],
])
def test_tables_past_the_accepted_scale_are_refused(table, tmp_path, capsys):
    """Finite entries whose sums overflow floats: `solve` refuses the model
    with exit 3 instead of failing inside the decode; `classify` and
    branch and bound still answer."""
    path = write_json(tmp_path / "big.json", {
        "variables": [{"name": n, "card": 2} for n in "ABC"],
        "potentials": [
            {"scope": ["A", "B"], "table": table},
            {"scope": ["B", "C"], "table": [0, 1, 1, 0]},
        ],
    })
    code, out, err = run(capsys, "solve", path)
    assert code == 3 and out == ""
    assert "scale" in err and "internal error" not in err
    for verb in (["classify"], ["solve", "--method", "bnb"]):
        code, out, err = run(capsys, verb[0], path, *verb[1:])
        assert code == 0 and err == ""
        json.loads(out)


def test_python_m_runs_the_cli(chain_model):
    src = os.path.dirname(os.path.dirname(nmrfmap.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "nmrfmap", "validate", chain_model],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["valid"] is True


def test_bench_deterministic(capsys):
    code, out1, _ = run(capsys, "bench", "random-supermodular-k3",
                        "--seed", "5", "--count", "3")
    assert code == 0
    code, out2, _ = run(capsys, "bench", "random-supermodular-k3",
                        "--seed", "5", "--count", "3")
    assert code == 0
    strip = lambda text: [
        ",".join(c for i, c in enumerate(row.split(",")) if i != 3)
        for row in text.strip().splitlines()
    ]
    # identical apart from the timing column
    assert strip(out1) == strip(out2)
    assert all(row.endswith("ok") for row in strip(out1)[1:])


def test_bench_block_chain(capsys):
    code, out, err = run(capsys, "bench", "block-chain", "--count", "2")
    assert (code, err) == (0, "")
    rows = [row.split(",") for row in out.splitlines()]
    assert [row[:3] + row[4:] for row in rows] == [
        ["family", "instance", "size", "status"],
        ["block-chain", "0", "6", "tractable"],
        ["block-chain", "1", "6", "tractable"],
    ]
    assert out.endswith("tractable\n")


def test_bench_oracle_agreement(capsys):
    code, out, _ = run(capsys, "bench", "random-tractable", "--seed", "1",
                       "--count", "5", "--oracle-check")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 5
    assert all(row.endswith("agree") for row in rows)


def test_bench_passes_eps_on(capsys):
    """--eps reaches the classification: with eps 1.5 the edges of weaker
    associativity fold away, and the verdicts match classify_model's on the
    same seeded models."""
    code, out, _ = run(capsys, "bench", "random-signed", "--seed", "2", "--count", "6",
                       "--size", "10", "--eps", "1.5")
    assert code == 0
    status = [row.split(",")[4] for row in out.strip().splitlines()[1:]]
    rng = np.random.default_rng(2)
    models = [random_signed_model(rng, n=10) for _ in range(6)]
    expected = ["tractable" if classify_model(m, 1.5).tractable else "intractable" for m in models]
    assert status == expected
    assert [i for i, s in enumerate(status) if s == "tractable"] == [1, 3]
    assert not any(classify_model(m).tractable for m in models)


@pytest.mark.parametrize("args, message", [
    (["random-signed", "--size=-3"], "argument --size: must be an integer >= 0, not '-3'"),
    (["random-signed", "--seed=-1"], "argument --seed: must be an integer >= 0, not '-1'"),
    (["random-signed", "--count=-2"], "argument --count: must be an integer >= 0, not '-2'"),
    (["random-signed", "--size", "1.5"], "argument --size: must be an integer >= 0, not '1.5'"),
], ids=["size", "seed", "count", "fraction"])
def test_bench_counts_are_integers_at_least_zero(args, message, capsys):
    code, out, err = run(capsys, "bench", *args)
    assert (code, out) == (2, "")
    assert err.startswith("usage: nmrfmap bench")
    assert err.splitlines()[-1] == f"nmrfmap bench: error: {message}"


@pytest.mark.parametrize("size", ["0", "1"])
def test_bench_random_tractable_needs_two_variables(size, capsys):
    assert run(capsys, "bench", "random-tractable", "--size", size) == (
        2, "", f"error: max_vars must be >= 2 (one edge), not {size}\n")


def test_bench_unknown_family(capsys):
    code, _, err = run(capsys, "bench", "no-such-family")
    assert code == 2


def test_usage_error(capsys):
    assert main(["frobnicate"]) == 2
