import hashlib
import itertools
import json

import numpy as np
import pytest

from helpers import nodes_conflict
from nmrfmap.errors import NotBinaryPairwiseError, SignMismatchError, ZeroAssociativityError
from nmrfmap.model import DEFAULT_EPS, energy, validate_model
from nmrfmap.nmrf import (
    NmrfNode,
    apply_enode_plan,
    build_nmrf,
    nmrf_from_json,
    nmrf_to_dot,
    nmrf_to_json,
    prune,
    single_enode,
)


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


def test_apply_enode_plan_preserves_energy_and_prunes_to_single_enode():
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
    plan = {("A", "B"): (0, 0), ("B", "C"): (1, 0)}
    rewritten = apply_enode_plan(model, plan)
    for cfg_bits in itertools.product((0, 1), repeat=3):
        cfg = dict(zip("ABC", cfg_bits))
        assert energy(rewritten, cfg) == pytest.approx(energy(model, cfg))
    pruned = prune(build_nmrf(rewritten))
    kept = set(pruned.kept)
    for scope, ids in pruned.base.groups.items():
        if len(scope) == 2:
            survivors = [i for i in ids if i in kept]
            assert len(survivors) == 1
            node = pruned.base.nodes[survivors[0]]
            assert node.assignment == plan[node.scope]


@pytest.mark.parametrize(
    "raw, plan",
    [
        # Once dropped from the rewrite: the energy at all ones went from 6.0 to 1.0.
        (
            {
                "variables": [{"name": n, "card": 2} for n in "ABC"],
                "potentials": [
                    {"scope": ["A", "B"], "table": [1.0, 0.0, 0.0, 1.0]},
                    {"scope": ["A", "B", "C"], "table": [0.0] * 7 + [5.0]},
                ],
            },
            {("A", "B"): (0, 0)},
        ),
        # Once came back as a model whose energy raised IndexError.
        (
            {
                "variables": [{"name": "A", "card": 3}, {"name": "B", "card": 2}],
                "potentials": [{"scope": ["A", "B"], "table": [1.0, 0.0, 0.0, 1.0, 0.5, 0.5]}],
            },
            {},
        ),
    ],
    ids=["order-3-potential", "3-label-pair"],
)
def test_apply_enode_plan_refuses_a_model_not_binary_pairwise(raw, plan):
    with pytest.raises(NotBinaryPairwiseError):
        apply_enode_plan(validate_model(raw), plan)


def test_pair_given_in_both_orders_compiles_to_one_group():
    from nmrfmap.model import Model, Potential

    variables = (("X1", 2), ("X2", 2))
    parts = (
        Potential(("X1", "X2"), (1.0, 0.5, 0.0, 0.25)),
        Potential(("X2", "X1"), (1.0, -1.0, -0.5, 0.75)),
    )
    # the summed table, over the order the pair was first given in
    for given, summed in ((parts, (2.0, 0.0, -1.0, 1.0)), (parts[::-1], (2.0, -1.0, 0.0, 1.0))):
        nmrf = build_nmrf(Model(variables, given))
        expected = build_nmrf(Model(variables, (Potential(given[0].scope, summed),)))
        assert list(nmrf.groups) == list(expected.groups)
        assert nmrf_to_json(nmrf) == nmrf_to_json(expected)


def test_prune_drops_only_zero_weight_nodes():
    nmrf = build_nmrf(edge_model((2.0, 0.0, 0.0, 3.0)))
    pruned = prune(nmrf)
    kept_weights = [nmrf.nodes[i].weight for i in pruned.kept]
    assert all(w > 0 for w in kept_weights)
    assert set(pruned.kept) | set(pruned.zero) == set(range(len(nmrf.nodes)))


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


# ---------------------------------------------------------------------------
# golden compile: the indexed conflict scan against the all-pairs rule


def _golden_nmrf_models():
    from nmrfmap.generators import random_signed_model, random_tractable_model
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
    from nmrfmap.model import is_binary_pairwise
    from nmrfmap.structure import classify_model, plan_by_names

    h = hashlib.sha256()
    for model in _golden_nmrf_models():
        h.update(json.dumps(nmrf_to_json(build_nmrf(model)), sort_keys=True).encode())
        if is_binary_pairwise(model):
            plan = plan_by_names(classify_model(model))
            rewritten = apply_enode_plan(model, plan)
            h.update(json.dumps(nmrf_to_json(build_nmrf(rewritten)), sort_keys=True).encode())
    assert h.hexdigest() == GOLDEN_NMRF_DIGEST


def test_conflicts_match_pairwise_rule():
    for model in _golden_nmrf_models():
        nmrf = build_nmrf(model)
        nodes = nmrf.nodes
        for i, a in enumerate(nodes):
            expected = {j for j, b in enumerate(nodes) if nodes_conflict(a, b)}
            assert nmrf.adj[i] == expected
