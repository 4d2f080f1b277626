import collections
import hashlib
import itertools
import json
import math
import random
import re

import numpy as np
import pytest

import nmrfmap.nmrf
from helpers import enode_rewrite, forms_by_names, nodes_conflict, verify_hole
from nmrfmap.errors import (
    NotBinaryPairwiseError,
    SignMismatchError,
    TooLargeError,
    ZeroAssociativityError,
)
from nmrfmap.model import DEFAULT_EPS, Model, Potential, energy, model_to_json, validate_model
from nmrfmap.mwss import solve_map_bnb
from nmrfmap.nmrf import (
    NmrfNode,
    build_nmrf,
    compile_pairwise,
    nmrf_from_json,
    nmrf_to_dot,
    nmrf_to_json,
    prune,
    single_enode,
)
from nmrfmap.perfection import PlainGraph, is_perfect_small


def edge_model(table=(2.0, 0.0, 0.0, 3.0)):
    return validate_model(
        {
            "variables": [{"name": "A", "card": 2}, {"name": "B", "card": 2}],
            "potentials": [{"scope": ["A", "B"], "table": list(table)}],
        }
    )


def test_two_var_edge_model_has_eight_nodes():
    nmrf = build_nmrf(edge_model())
    assert len(nmrf.nodes) == 8
    assert set(nmrf.groups) == {("A",), ("B",), ("A", "B")}
    # the edge clique group is a K4
    ids = nmrf.groups[("A", "B")]
    assert len(ids) == 4
    for i, j in itertools.combinations(ids, 2):
        assert j in nmrf.adj[i]


def test_conflict_entries_are_counted_before_any_conflict_is_built(monkeypatch):
    """One variable of 5 labels: 5 nodes, each conflicting with the other 4,
    20 conflict-set entries in all, counted from the nodes that set each
    value before any conflict set is built."""
    model = validate_model({"variables": [{"name": "X", "card": 5}], "potentials": []})
    monkeypatch.setattr(nmrfmap.nmrf, "MAX_CONFLICTS", 20)
    assert sum(map(len, build_nmrf(model).adj)) == 20
    monkeypatch.setattr(nmrfmap.nmrf, "MAX_CONFLICTS", 19)
    with pytest.raises(TooLargeError, match="20 entries, past the cap 19"):
        build_nmrf(model)


def test_multilabel_singleton_is_a_clique():
    model = validate_model(
        {
            "variables": [{"name": "X", "card": 3}],
            "potentials": [{"scope": ["X"], "table": [1.0, 5.0, 2.0]}],
        }
    )
    nmrf = build_nmrf(model)
    assert len(nmrf.nodes) == 3
    for i, j in itertools.combinations(range(3), 2):
        assert j in nmrf.adj[i]
    assert nmrf.constant == 1.0
    assert sorted(n.weight for n in nmrf.nodes) == [0.0, 1.0, 4.0]


def test_singleton_groups_materialized_without_explicit_potentials():
    nmrf = build_nmrf(edge_model())
    assert ("A",) in nmrf.groups and ("B",) in nmrf.groups
    for key in (("A",), ("B",)):
        assert all(nmrf.nodes[i].weight == 0.0 for i in nmrf.groups[key])


def test_group_minimum_is_zero_and_constant_reconstructs():
    model = validate_model(
        {
            "variables": [{"name": "A", "card": 2}, {"name": "B", "card": 2}],
            "potentials": [
                {"scope": ["A"], "table": [4.0, 7.0]},
                {"scope": ["A", "B"], "table": [2.0, 1.0, 1.0, 3.0]},
            ],
        }
    )
    nmrf = build_nmrf(model)
    for ids in nmrf.groups.values():
        assert min(nmrf.nodes[i].weight for i in ids) == 0.0
    # picking the nodes consistent with any configuration recovers its energy
    for a, b in itertools.product((0, 1), repeat=2):
        cfg = {"A": a, "B": b}
        picked = [
            n for n in nmrf.nodes
            if all(cfg[v] == val for v, val in zip(n.scope, n.assignment))
        ]
        assert len(picked) == len(nmrf.groups)
        total = sum(n.weight for n in picked) + nmrf.constant
        assert total == pytest.approx(energy(model, cfg))


def test_stable_iff_consistent():
    """A node set is stable exactly when it is jointly consistent with <= 1
    node per clique group."""
    model = validate_model(
        {
            "variables": [{"name": n, "card": 2} for n in "ABC"],
            "potentials": [
                {"scope": ["A", "B"], "table": [1.0, 0.0, 0.0, 1.0]},
                {"scope": ["B", "C"], "table": [0.0, 1.0, 1.0, 0.0]},
            ],
        }
    )
    nmrf = build_nmrf(model)
    n = len(nmrf.nodes)
    for mask in range(1 << n):
        chosen = [i for i in range(n) if mask >> i & 1]
        stable = all(
            j not in nmrf.adj[i] for i, j in itertools.combinations(chosen, 2)
        )
        setting = {}
        consistent = True
        for i in chosen:
            for v, val in zip(nmrf.nodes[i].scope, nmrf.nodes[i].assignment):
                if setting.setdefault(v, val) != val:
                    consistent = False
        per_group = all(
            sum(1 for i in chosen if i in ids) <= 1 for ids in nmrf.groups.values()
        )
        assert stable == (consistent and per_group), chosen


def test_nodes_conflict_rules():
    a = NmrfNode(("X", "Y"), (0, 1), 0.0)
    assert nodes_conflict(a, NmrfNode(("Y", "Z"), (0, 0), 0.0))
    assert not nodes_conflict(a, NmrfNode(("Y", "Z"), (1, 0), 0.0))
    assert nodes_conflict(a, NmrfNode(("X", "Y"), (0, 0), 0.0))  # same group
    assert not nodes_conflict(a, a)
    assert not nodes_conflict(a, NmrfNode(("W",), (1,), 0.0))


@pytest.mark.parametrize("form", [(0, 0), (1, 1)])
def test_reparameterize_associative_edge(form):
    i, j = form
    rng = np.random.default_rng(11)
    for _ in range(20):
        t = rng.normal(size=4)
        t[0] += 3.0
        t[3] += 3.0  # force positive associativity
        weight, fi, row0, row1 = single_enode(tuple(t), i, j, DEFAULT_EPS)
        a = t[0] + t[3] - t[1] - t[2]
        assert weight == pytest.approx(abs(a))
        # the rewrite preserves the table entrywise
        for x, y in itertools.product((0, 1), repeat=2):
            rebuilt = (fi if x == i else 0.0) + (row0, row1)[y]
            if (x, y) == form:
                rebuilt += weight
            assert rebuilt == pytest.approx(t[2 * x + y])


def _reference_reparameterize(t, i, j, eps=1e-9):
    """The rewrite as first written: take the associativity, solve
    psi(x, y) = f(x) + g(y) with f(1 - i) = 0 through lists."""
    assoc = t[0] + t[3] - t[1] - t[2]
    if abs(assoc) <= eps:
        raise ZeroAssociativityError("edge has zero associativity")
    if (i == j) != (assoc > 0):
        raise SignMismatchError("form incompatible with associativity")
    f = [0.0, 0.0]
    g = [0.0, 0.0]
    g[j] = t[2 * (1 - i) + j]
    g[1 - j] = t[2 * (1 - i) + 1 - j]
    f[i] = t[2 * i + 1 - j] - g[1 - j]
    return abs(assoc), (f[0], f[1]), (g[0], g[1])


def test_reparameterize_edge_matches_reference_formula_exactly():
    rng = np.random.default_rng(2024)
    checked = 0
    for k in range(400):
        if k % 2:
            t = tuple(float(x) for x in rng.integers(-3, 4, size=4))
        else:
            t = tuple(float(x) for x in rng.normal(scale=10.0, size=4))
        for i, j in itertools.product((0, 1), repeat=2):
            try:
                weight, f, g = _reference_reparameterize(t, i, j)
            except (SignMismatchError, ZeroAssociativityError) as err:
                with pytest.raises(type(err)):
                    single_enode(t, i, j, DEFAULT_EPS)
                continue
            got = single_enode(t, i, j, DEFAULT_EPS)
            assert got == (weight, f[i], *g), (t, i, j)
            assert f[1 - i] == 0.0
            assert all(type(x) is float for x in got)
            checked += 1
    assert checked > 750


def test_reparameterize_rejects_wrong_sign_and_zero():
    with pytest.raises(SignMismatchError):
        single_enode((3.0, 0.0, 0.0, 3.0), 0, 1, DEFAULT_EPS)
    with pytest.raises(SignMismatchError):
        single_enode((0.0, 3.0, 3.0, 0.0), 1, 1, DEFAULT_EPS)
    with pytest.raises(ZeroAssociativityError):
        single_enode((1.0, 2.0, 0.0, 1.0), 0, 0, DEFAULT_EPS)


def test_compile_pairwise_preserves_energy_and_writes_single_enodes():
    """Each edge keeps one node, its planned enode, and the written nodes
    that agree with a labeling, plus the constant, add up to its energy."""
    rng = np.random.default_rng(5)
    raw = {
        "variables": [{"name": n, "card": 2} for n in "ABC"],
        "potentials": [
            {"scope": ["A", "B"], "table": [3.0, 0.5, 0.5, 2.0]},
            {"scope": ["B", "C"], "table": [0.0, 2.0, 3.0, 0.5]},
            {"scope": ["A"], "table": list(rng.normal(size=2))},
        ],
    }
    model = validate_model(raw)
    nmrf, report = compile_pairwise(model)
    plan = forms_by_names(report)
    assert sorted(plan) == [("A", "B"), ("B", "C")]
    for cfg_bits in itertools.product((0, 1), repeat=3):
        cfg = dict(zip("ABC", cfg_bits))
        picked = [n for n in nmrf.nodes if all(cfg[v] == x for v, x in zip(n.scope, n.assignment))]
        total = sum(n.weight for n in picked) + nmrf.constant
        assert total == pytest.approx(energy(model, cfg))
    assert all(node.weight > DEFAULT_EPS for node in nmrf.nodes)
    for scope, form in plan.items():
        assert [node.assignment for node in nmrf.nodes if node.scope == scope] == [form]


@pytest.mark.parametrize(
    "raw",
    [
        # Once dropped from the enode rewrite: the energy at all ones went
        # from 6.0 to 1.0.
        {
            "variables": [{"name": n, "card": 2} for n in "ABC"],
            "potentials": [
                {"scope": ["A", "B"], "table": [1.0, 0.0, 0.0, 1.0]},
                {"scope": ["A", "B", "C"], "table": [0.0] * 7 + [5.0]},
            ],
        },
        # Once came back from the enode rewrite as a model whose energy
        # raised IndexError.
        {
            "variables": [{"name": "A", "card": 3}, {"name": "B", "card": 2}],
            "potentials": [{"scope": ["A", "B"], "table": [1.0, 0.0, 0.0, 1.0, 0.5, 0.5]}],
        },
    ],
    ids=["order-3-potential", "3-label-pair"],
)
def test_compile_pairwise_refuses_a_model_not_binary_pairwise(raw):
    with pytest.raises(NotBinaryPairwiseError):
        compile_pairwise(validate_model(raw))


def test_pair_given_in_both_orders_compiles_to_one_group():
    variables = (("X1", 2), ("X2", 2))
    parts = (
        Potential(("X1", "X2"), (1.0, 0.5, 0.0, 0.25)),
        Potential(("X2", "X1"), (1.0, -1.0, -0.5, 0.75)),
    )
    # the summed table, over the pair in declaration order, whichever order came first
    expected = build_nmrf(Model(variables, (Potential(("X1", "X2"), (2.0, 0.0, -1.0, 1.0)),)))
    for given in (parts, parts[::-1]):
        nmrf = build_nmrf(Model(variables, given))
        assert list(nmrf.groups) == list(expected.groups) == [("X1",), ("X1", "X2"), ("X2",)]
        assert nmrf_to_json(nmrf) == nmrf_to_json(expected)


@pytest.mark.parametrize("first", [("A", "B"), ("B", "A")])
def test_node_cap_counts_merged_groups(monkeypatch, first):
    """A pair given as (A, B) and as (B, A) is one group of 4 nodes: with
    the two unary groups the graph has 8 nodes, and the cap counts those."""
    pair = (Potential(first, (1.0, 0.0, 0.0, 1.0)), Potential(first[::-1], (0.0, 0.5, 0.5, 0.0)))
    model = Model((("A", 2), ("B", 2)), pair)
    monkeypatch.setattr(nmrfmap.nmrf, "MAX_NODES", 8)
    nmrf = build_nmrf(model)
    assert len(nmrf.nodes) == 8
    assert list(nmrf.groups) == [("A",), ("A", "B"), ("B",)]
    monkeypatch.setattr(nmrfmap.nmrf, "MAX_NODES", 7)
    message = "clique group ['A', 'B'] brings the graph to 8 nodes, past the cap 7"
    with pytest.raises(TooLargeError, match=re.escape(message)):
        build_nmrf(model)


def _direct_models(count, seed):
    """Models built without validation: 2- and 3-label variables, float
    tables in half steps, scopes of order 1-3 given out of declaration
    order, and some given again, shuffled, with another table."""
    rng = random.Random(seed)
    for _ in range(count):
        variables = tuple((f"V{i}", rng.choice((2, 2, 3))) for i in range(rng.randint(2, 4)))
        cards = dict(variables)
        potentials = []
        for _ in range(rng.randint(1, 5)):
            scope = rng.sample(list(cards), min(rng.choice((1, 2, 2, 3)), len(cards)))
            for _ in range(rng.choice((1, 1, 2))):
                size = math.prod([cards[n] for n in scope])
                table = tuple(rng.randint(-4, 4) / 2 for _ in range(size))  # half steps, for ties
                potentials.append(Potential(tuple(scope), table))
                rng.shuffle(scope)
        yield Model(variables, tuple(potentials))


def test_direct_model_compiles_as_its_validated_twin():
    """`build_nmrf` merges a directly built model by the validator's rule:
    its graph is, to the byte, that of `validate_model(model_to_json(m))`,
    and branch and bound reads the same assignment off both."""
    seen = collections.Counter()
    for model in _direct_models(300, seed=1009):
        twin = validate_model(model_to_json(model))
        assert nmrf_to_json(build_nmrf(model)) == nmrf_to_json(build_nmrf(twin))
        solved = [solve_map_bnb(m, max_nodes=200).assignment for m in (model, twin)]
        assert solved[0] == solved[1]
        scopes = [p.scope for p in model.potentials]
        seen["repeated"] += len(scopes) != len({frozenset(s) for s in scopes})
        for scope in scopes:
            pos = [model.index[n] for n in scope]
            labels = "binary" if all(model.cards[n] == 2 for n in scope) else "3-label"
            seen[f"order {len(scope)} {labels}", pos != sorted(pos)] += 1
    assert seen["repeated"] > 100, seen
    for kind in ("order 2 binary", "order 2 3-label", "order 3 binary", "order 3 3-label"):
        assert seen[kind, True] > 20, seen


def test_prune_drops_only_zero_weight_nodes():
    nmrf = build_nmrf(edge_model((2.0, 0.0, 0.0, 3.0)))
    pruned = prune(nmrf)
    assert pruned.weights == tuple(nmrf.nodes[i].weight for i in pruned.kept)
    assert all(w > 0 for w in pruned.weights)
    dropped = set(range(len(nmrf.nodes))) - set(pruned.kept)
    assert dropped and all(nmrf.nodes[i].weight == 0.0 for i in dropped)
    assert pruned.slack == 0.0
    # the induced subgraph, as position pairs i < j into `kept`
    assert set(pruned.edges) == {
        (i, j)
        for i, j in itertools.combinations(range(len(pruned.kept)), 2)
        if pruned.kept[j] in nmrf.adj[pruned.kept[i]]
    }
    assert len(pruned.edges) == len(set(pruned.edges))


def test_json_round_trip_and_dot():
    nmrf = build_nmrf(edge_model())
    doc = nmrf_to_json(nmrf)
    # serializable and loadable
    back = nmrf_from_json(json.loads(json.dumps(doc)))
    assert back.nodes == nmrf.nodes
    assert back.adj == nmrf.adj
    assert back.constant == nmrf.constant
    dot = nmrf_to_dot(nmrf)
    assert dot.startswith("graph nmrf {")
    assert dot.count("--") == sum(len(s) for s in nmrf.adj) // 2


def test_dot_labels_escape_quotes_and_backslashes():
    """Names holding `"` or `\\`: each label is one well-formed DOT quoted
    string, and unescaped it reads the node's group, setting and weight."""
    names = ['A"x', "B\\y", 'C\\"', "D\\"]
    model = validate_model({
        "variables": [{"name": n, "card": 2} for n in names],
        "potentials": [
            {"scope": names[:2], "table": [2.0, 0.0, 0.0, 3.0]},
            {"scope": names[1:3], "table": [0.0, 1.0, 1.5, 0.0]},
            {"scope": names[2:], "table": [0.5, 0.0, 0.0, 1.0]},
            {"scope": names[3:], "table": [0.0, 0.25]},
        ],
    })
    label = re.compile(r'  n(\d+) \[label="((?:[^"\\]|\\.)*)"\];')
    for nmrf in (build_nmrf(model), compile_pairwise(model)[0]):
        lines = [line for line in nmrf_to_dot(nmrf).splitlines() if "label=" in line]
        assert len(lines) == len(nmrf.nodes)
        for line in lines:
            match = label.fullmatch(line)
            assert match, line
            node = nmrf.nodes[int(match[1])]
            setting = ",".join(f"{n}={v}" for n, v in zip(node.scope, node.assignment))
            text = f"{':'.join(node.scope)}:{setting}:{node.weight:g}"
            assert re.sub(r"\\(.)", r"\1", match[2]) == text


# ---------------------------------------------------------------------------
# golden compile: the indexed conflict scan against the all-pairs rule


def _golden_nmrf_models():
    from generators import random_signed_model, random_tractable_model
    from nmrfmap.model import Model, Potential

    for seed in range(8):
        rng = np.random.default_rng(seed)
        yield random_tractable_model(rng, max_vars=7)
        yield random_signed_model(rng, n=5, p=0.6)
    rng = np.random.default_rng(99)
    for _ in range(4):
        # an order-3 scope, a reversed scope and 3-label variables
        yield validate_model(
            {
                "variables": [
                    {"name": "A", "card": 3},
                    {"name": "B", "card": 2},
                    {"name": "C", "card": 2},
                    {"name": "D", "card": 3},
                ],
                "potentials": [
                    {"scope": ["A", "B", "C"], "table": [float(x) for x in rng.uniform(-1, 1, 12)]},
                    {"scope": ["D", "A"], "table": [float(x) for x in rng.uniform(-1, 1, 9)]},
                    {"scope": ["C"], "table": [0.0, 1.0]},
                ],
            }
        )
    # a scope given twice, as only a Model built without validation has it
    yield Model(
        (("X1", 2), ("X2", 2)),
        (
            Potential(("X1", "X2"), (3.0, 0.0, 0.0, 1.0)),
            Potential(("X1", "X2"), (0.0, 0.0, 0.0, 5.0)),
        ),
    )


# sha256 over the sorted-key JSON of every compile below, re-recorded once a
# scope given twice compiled to one group over its summed tables. The first
# 20 models, each scope once, still hash as with the all-pairs conflict scan:
# 05410cae70bb09476ee74dd450a4f5535f33b8f0b83b0a9544fc5f4d5375d5fd
GOLDEN_NMRF_DIGEST = "0836458d0041b3d0b5f78797aad4b65638650f1d5675ba41e0f3abe82f24ff11"


def test_nmrf_json_matches_golden_digest():
    """Every model, and each binary pairwise one under the reference enode
    rewrite, compiled whole by `build_nmrf`."""
    from nmrfmap.model import is_binary_pairwise

    h = hashlib.sha256()
    for model in _golden_nmrf_models():
        h.update(json.dumps(nmrf_to_json(build_nmrf(model)), sort_keys=True).encode())
        if is_binary_pairwise(model):
            rewritten, folded = enode_rewrite(model)
            assert folded == 0.0
            h.update(json.dumps(nmrf_to_json(build_nmrf(rewritten)), sort_keys=True).encode())
    assert h.hexdigest() == GOLDEN_NMRF_DIGEST


def test_conflicts_match_pairwise_rule():
    for model in _golden_nmrf_models():
        nmrf = build_nmrf(model)
        nodes = nmrf.nodes
        for i, a in enumerate(nodes):
            expected = {j for j, b in enumerate(nodes) if nodes_conflict(a, b)}
            assert nmrf.adj[i] == expected


# ---------------------------------------------------------------------------
# compile_pairwise against the reference: the enode rewrite, build_nmrf, prune


def _folded_model(rng, split):
    """A random graph of separable tables f(x) + g(y) plus a on the (1, 1)
    entry, a zero, within DEFAULT_EPS or N(0, 1), so the view folds some
    edges, and unaries on some variables. With `split`, each table comes in
    two parts over its scope in either order and each unary in two, as only
    a Model built without validate_model has them."""
    from nmrfmap.model import Model, Potential

    n = int(rng.integers(3, 7))
    names = [f"X{i}" for i in range(n)]
    potentials = []
    for name in names:
        if rng.random() < 0.6:
            potentials.append(Potential((name,), tuple(map(float, rng.normal(size=2)))))
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < 0.4:
            continue
        a = (0.0, float(rng.uniform(-1e-9, 1e-9)), float(rng.normal()))[int(rng.integers(3))]
        f, g = rng.normal(size=2), rng.normal(size=2)
        table = [float(f[x] + g[y]) for x in (0, 1) for y in (0, 1)]
        table[3] += a
        potentials.append(Potential((names[u], names[v]), tuple(table)))
    if split:
        parts = []
        for scope, table in potentials:
            part = tuple(map(float, rng.normal(size=len(table))))
            rest = tuple(x - y for x, y in zip(table, part))
            for t in (part, rest):
                if len(scope) == 2 and rng.random() < 0.5:  # the pair in reverse order
                    scope, t = scope[::-1], (t[0], t[2], t[1], t[3])
                parts.append(Potential(scope, t))
        potentials = [parts[i] for i in rng.permutation(len(parts))]
        return Model(tuple((name, 2) for name in names), tuple(potentials))
    return validate_model({
        "variables": [{"name": name, "card": 2} for name in names],
        "potentials": [{"scope": list(s), "table": list(t)} for s, t in potentials],
    })


def _binary_pairwise_corpus():
    """230 seeded binary pairwise models: random tractable ones, random
    signed ones (many intractable), models with edges the view folds,
    unvalidated models with scopes repeated in both orders, and block chains."""
    from generators import block_chain_model, random_signed_model, random_tractable_model

    rng = np.random.default_rng(2026)
    for _ in range(60):
        yield random_tractable_model(rng, max_vars=int(rng.integers(3, 9)))
    for _ in range(60):
        yield random_signed_model(rng, n=int(rng.integers(3, 7)), p=0.6)
    for k in range(100):
        yield _folded_model(rng, split=k % 2 == 1)
    for k in range(1, 11):
        yield block_chain_model(k, seed=k)


def _perfection(pruned):
    plain = PlainGraph.from_edges(len(pruned.kept), pruned.edges)
    try:
        return is_perfect_small(plain)
    except TooLargeError as exc:
        return str(exc)


def test_compile_pairwise_is_the_prune_of_the_reference_rewrite():
    """On every corpus model, the graph `compile` writes has the nodes
    (group, assignment, weight) of `prune(build_nmrf(m))` for the reference
    rewrite m, the same edges under the map of one node to the other by
    group and assignment, and its constant plus the reference's folded one,
    to the bit. `perfect` gives both the same verdict, and a witness on the
    written file is an odd hole or antihole of its own edges. A folded edge
    leaves no group, so every tractable model, one with a folded edge too,
    must compile to a perfect graph."""
    counts = dict.fromkeys(("models", "intractable", "folded", "imperfect", "too large"), 0)
    for model in _binary_pairwise_corpus():
        nmrf, report = compile_pairwise(model)
        rewritten, folded_constant = enode_rewrite(model)
        ref = prune(build_nmrf(rewritten))
        pairs = {frozenset(p.scope) for p in model.potentials if len(p.scope) == 2}
        folded = len(report.graph.edges) < len(pairs)
        assert len(ref.base.groups) == len(model.variables) + len(report.graph.edges)
        ref_nodes = [ref.base.nodes[i] for i in ref.kept]
        assert sorted(nmrf.nodes) == sorted(ref_nodes)
        new_id = {(node.scope, node.assignment): i for i, node in enumerate(nmrf.nodes)}
        assert len(new_id) == len(nmrf.nodes)
        ids = [new_id[node.scope, node.assignment] for node in ref_nodes]
        assert {frozenset((ids[i], ids[j])) for i, j in ref.edges} == {
            frozenset((i, j)) for i, others in enumerate(nmrf.adj) for j in others
        }
        assert repr(nmrf.constant) == repr(ref.base.constant + folded_constant)

        doc = json.loads(json.dumps(nmrf_to_json(nmrf)))
        written = prune(nmrf_from_json(doc))
        assert written.kept == tuple(range(len(nmrf.nodes)))
        verdict, expected = _perfection(written), _perfection(ref)
        if isinstance(expected, str):
            assert verdict == expected
            counts["too large"] += 1
        else:
            assert verdict.perfect == expected.perfect
            assert verdict.perfect or not report.tractable
            if not verdict.perfect:
                full = PlainGraph.from_edges(len(doc["nodes"]), doc["edges"])
                if verdict.witness_kind == "odd_antihole":
                    full = full.complement()
                verify_hole(full, [written.kept[i] for i in verdict.witness])
                counts["imperfect"] += 1
        counts["models"] += 1
        counts["intractable"] += not report.tractable
        counts["folded"] += folded
    assert counts["models"] >= 200
    assert min(counts.values()) > 0, counts
