import collections
import gc
import hashlib
import itertools
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import flip_variables, random_br_model, random_weighted_graph, scaled
from nmrfmap.errors import (
    IntractableTopologyError,
    ObjectiveMismatchError,
    TooLargeError,
)
from nmrfmap.generators import (
    _random_block,
    block_chain_model,
    model_from_signed_edges,
    random_signed_model,
    random_tractable_model,
)
import nmrfmap.mwss
import nmrfmap.nmrf
import nmrfmap.structure
from nmrfmap.model import (
    ASSOCIATIVE,
    DEFAULT_EPS,
    REPULSIVE,
    TIE,
    Model,
    Potential,
    associativity,
    energy,
    pairwise_view,
    validate_model,
)
from nmrfmap.mwss import (
    TOLERANCE,
    _snode_cut,
    _value_pass,
    mwss_branch_bound,
    objective_tolerance,
    solve_map,
    solve_map_bnb,
)
from nmrfmap.nmrf import apply_enode_plan
from nmrfmap.oracle import brute_force_map, brute_force_mwss
from nmrfmap.structure import classify_model, plan_by_names


def test_branch_bound_matches_brute_force():
    rng = np.random.default_rng(67)
    for _ in range(60):
        n = int(rng.integers(2, 19))
        weights, edges = random_weighted_graph(rng, n)
        sol = mwss_branch_bound(weights, edges)
        ref = brute_force_mwss(weights, edges)
        assert sol.weight == pytest.approx(ref.weight)
        chosen = set(sol.nodes)
        assert not any(u in chosen and v in chosen for u, v in edges)


def test_branch_bound_cap():
    with pytest.raises(TooLargeError):
        mwss_branch_bound([1.0] * 50, [], max_nodes=40)


def test_bnb_gives_unset_variables_label_0():
    """bnb reads the chosen nodes' labels and gives 0 to every variable they
    leave unset, a variable in no potential included."""
    model = validate_model(
        {
            "variables": [{"name": "A", "card": 2}, {"name": "B", "card": 2}],
            "potentials": [
                {"scope": ["A", "B"], "table": [0.0, 0.0, 0.0, 2.0]},
            ],
        }
    )
    sol = solve_map_bnb(model)
    assert sol.assignment == {"A": 1, "B": 1}
    assert sol.objective == pytest.approx(2.0)
    assert sol.method == "bnb"
    model = Model(model.variables + (("C", 3),), model.potentials)
    sol = solve_map_bnb(model)
    assert sol.assignment == {"A": 1, "B": 1, "C": 0}
    assert list(sol.assignment) == ["A", "B", "C"]
    assert sol.objective == pytest.approx(2.0)


def test_bnb_checks_its_energy_against_the_stable_set_weight(monkeypatch):
    """bnb's energy must match the weight that branch and bound reports,
    plus the constants, within objective_tolerance plus the prune slack."""
    rng = np.random.default_rng(131)
    for _ in range(20):
        model = random_tractable_model(rng, max_vars=5)
        assert solve_map_bnb(model, max_nodes=80).objective == pytest.approx(
            brute_force_map(model).objective
        )
        scale = sum(max(abs(x) for x in p.table) for p in model.potentials)

        def heavier(weights, edges, max_nodes):
            sol = mwss_branch_bound(weights, edges, max_nodes)
            return type(sol)(sol.nodes, sol.weight + 1e-8 * scale)

        with monkeypatch.context() as patch:
            patch.setattr(nmrfmap.mwss, "mwss_branch_bound", heavier)
            with pytest.raises(ObjectiveMismatchError):
                solve_map_bnb(model, max_nodes=80)


def test_solve_map_reads_the_tables_again_only_for_a_large_gap(monkeypatch):
    """solve_map accepts a decoded energy within TOLERANCE of the optimum
    without objective_tolerance's pass over the tables, and checks a larger
    gap against the full tolerance."""
    rng = np.random.default_rng(137)
    models = [random_tractable_model(rng) for _ in range(30)]
    solutions = [solve_map(model) for model in models]

    def refuse(model):
        raise AssertionError("objective_tolerance read the tables")

    with monkeypatch.context() as patch:
        patch.setattr(nmrfmap.mwss, "objective_tolerance", refuse)
        assert [solve_map(model) for model in models] == solutions

    # Tables scaled up, so that the full tolerance exceeds TOLERANCE.
    model = Model(
        models[0].variables,
        tuple(Potential(p.scope, tuple(1e3 * x for x in p.table)) for p in models[0].potentials),
    )
    sol = solve_map(model)
    tol, slack = objective_tolerance(model), pairwise_view(model).slack
    assert 0.5 * tol > TOLERANCE + slack
    value_pass = nmrfmap.mwss._value_pass

    def shifted(by):
        def run(pw, eps):
            best, kept = value_pass(pw, eps)
            return best + by, kept
        return run

    monkeypatch.setattr(nmrfmap.mwss, "_value_pass", shifted(0.5 * tol))
    assert solve_map(model) == sol
    monkeypatch.setattr(nmrfmap.mwss, "_value_pass", shifted(2 * tol + slack))
    with pytest.raises(ObjectiveMismatchError):
        solve_map(model)


def test_solve_map_matches_oracle_on_tractable_models():
    rng = np.random.default_rng(71)
    for _ in range(60):
        model = random_tractable_model(rng)
        sol = solve_map(model)
        ref = brute_force_map(model)
        assert sol.objective == pytest.approx(ref.objective)
        assert sol.assignment == ref.assignment  # lex-smallest tie-break
        assert energy(model, sol.assignment) == pytest.approx(sol.objective)


def test_solve_map_integer_tables_exact():
    rng = np.random.default_rng(73)
    for _ in range(30):
        model = random_tractable_model(rng, integer=True)
        sol = solve_map(model)
        ref = brute_force_map(model)
        assert sol.objective == ref.objective
        assert sol.assignment == ref.assignment


def test_methods_agree():
    rng = np.random.default_rng(79)
    for _ in range(20):
        model = random_tractable_model(rng, max_vars=5)
        a = solve_map(model)
        b = solve_map_bnb(model, max_nodes=80)
        assert a.objective == pytest.approx(b.objective)


def test_bipartite_method_on_balanced_models():
    rng = np.random.default_rng(83)
    hidden = [0, 1, 0, 1, 1]
    edges = [
        (u, v, REPULSIVE if hidden[u] != hidden[v] else ASSOCIATIVE)
        for u, v in itertools.combinations(range(5), 2)
    ]
    for _ in range(10):
        model = model_from_signed_edges(5, edges, rng)
        sol = solve_map(model)
        ref = brute_force_map(model)
        assert sol.objective == pytest.approx(ref.objective)
        assert sol.assignment == ref.assignment


def test_solve_map_refuses_intractable_topology():
    rng = np.random.default_rng(89)
    edges = [(0, 1, REPULSIVE), (1, 2, ASSOCIATIVE), (2, 3, ASSOCIATIVE),
             (0, 3, ASSOCIATIVE)]
    model = model_from_signed_edges(4, edges, rng)
    with pytest.raises(IntractableTopologyError) as err:
        solve_map(model)
    assert len(err.value.witness) >= 4
    # the generic solver still handles it and agrees with the oracle
    sol = solve_map_bnb(model, max_nodes=64)
    ref = brute_force_map(model)
    assert sol.objective == pytest.approx(ref.objective)


def test_solve_map_bnb_multilabel():
    model = validate_model(
        {
            "variables": [{"name": "X", "card": 3}, {"name": "Y", "card": 3}],
            "potentials": [
                {"scope": ["X", "Y"],
                 "table": [0.0, 1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 5.0]},
                {"scope": ["Y"], "table": [0.0, 0.5, 0.0]},
            ],
        }
    )
    sol = solve_map_bnb(model)
    ref = brute_force_map(model)
    assert sol.objective == pytest.approx(ref.objective)
    assert sol.assignment == {"X": 2, "Y": 2}


def test_zero_associativity_edges_fold_away():
    model = validate_model(
        {
            "variables": [{"name": "A", "card": 2}, {"name": "B", "card": 2}],
            "potentials": [
                {"scope": ["A", "B"], "table": [1.0, 2.0, 3.0, 4.0]},  # a = 0
                {"scope": ["A"], "table": [0.5, 0.0]},
            ],
        }
    )
    sol = solve_map(model)
    ref = brute_force_map(model)
    assert sol.objective == pytest.approx(ref.objective)
    assert sol.assignment == ref.assignment


def test_block_chain_solved_exactly():
    model = block_chain_model(6)
    sol = solve_map(model)
    ref = brute_force_map(model)
    assert sol.objective == pytest.approx(ref.objective)
    assert sol.assignment == ref.assignment


def _balanced_cycle(n):
    """n variables in one associative cycle of [3, 0, 0, 3] edges, with a
    strong unary on X0 and a slight pull towards 0 on every other variable."""
    names = [f"X{i}" for i in range(n)]
    potentials = [{"scope": ["X0"], "table": [0.0, 50.0]}]
    potentials += [{"scope": [x], "table": [0.0, -0.01]} for x in names[1:]]
    potentials += [
        {"scope": [names[i], names[(i + 1) % n]], "table": [3.0, 0.0, 0.0, 3.0]}
        for i in range(n)
    ]
    return validate_model(
        {"variables": [{"name": x, "card": 2} for x in names], "potentials": potentials}
    )


def test_long_cycle_solved_under_default_recursion_limit():
    """A block whose augmenting paths are far longer than the recursion
    limit, checked by conditioning on X0 and max-sum DP along the path."""
    n = 700
    model = _balanced_cycle(n)
    table = {p.scope: p.table for p in model.potentials}
    names = model.names
    best = None
    for a in (0, 1):
        closing = table[(names[0], names[-1])]
        value = [table[(names[1],)][x] + table[(names[0], names[1])][2 * a + x] for x in (0, 1)]
        choices = []
        for k in range(2, n):
            edge, unary = table[(names[k - 1], names[k])], table[(names[k],)]
            pick = [max((0, 1), key=lambda x: value[x] + edge[2 * x + y]) for y in (0, 1)]
            value = [value[pick[y]] + edge[2 * pick[y] + y] + unary[y] for y in (0, 1)]
            choices.append(pick)
        last = max((0, 1), key=lambda y: value[y] + closing[2 * a + y])
        total = value[last] + closing[2 * a + last] + table[(names[0],)][a]
        if best is None or total > best[0]:
            labels = [last]
            for pick in reversed(choices):
                labels.append(pick[labels[-1]])
            best = (total, [a, *reversed(labels)])
    sol = solve_map(model)
    assert sol.objective == pytest.approx(best[0])
    assert sol.assignment == dict(zip(names, best[1]))


def _hub_oracle(model, n_spokes):
    """Max over the four hub labelings of the hub terms plus each spoke's
    independent best label. The hubs are X1 and X2, the spokes X3 onwards."""
    table = {p.scope: p.table for p in model.potentials}
    s, t = "X1", "X2"
    best = None
    for a, b in itertools.product((0, 1), repeat=2):
        value = table[(s,)][a] + table[(t,)][b] + table[(s, t)][2 * a + b]
        labels = {s: a, t: b}
        for i in range(n_spokes):
            v = f"X{i + 3}"
            spoke = [
                table[(v,)][x] + table[(s, v)][2 * a + x] + table[(t, v)][2 * b + x]
                for x in (0, 1)
            ]
            labels[v] = int(spoke[1] > spoke[0])
            value += max(spoke)
        if best is None or value > best[0]:
            best = (value, labels)
    return best


@pytest.mark.parametrize("n_spokes", [20, 40])
@pytest.mark.parametrize("kind", ["T", "U"])
def test_wide_hub_blocks_solved_exactly(kind, n_spokes):
    rng = np.random.default_rng(97 + n_spokes)
    if kind == "T":  # T_{m,n}: m repulsive and n associative spoke pairs
        edges = [(0, 1, REPULSIVE)]
        for i in range(n_spokes):
            sign = REPULSIVE if i % 2 else ASSOCIATIVE
            edges += [(0, i + 2, sign), (1, i + 2, sign)]
    else:  # U_n: associative base, mixed spokes
        edges = [(0, 1, ASSOCIATIVE)]
        for i in range(n_spokes):
            legs = (ASSOCIATIVE, REPULSIVE) if i % 2 else (REPULSIVE, ASSOCIATIVE)
            edges += [(0, i + 2, legs[0]), (1, i + 2, legs[1])]
    model = model_from_signed_edges(n_spokes + 2, edges, rng)
    (cls,) = classify_model(model).classes
    assert cls.kind == kind
    value, labels = _hub_oracle(model, n_spokes)
    sol = solve_map(model)
    assert sol.objective == pytest.approx(value)
    assert energy(model, sol.assignment) == sol.objective
    assert energy(model, labels) == pytest.approx(value)


def test_tractable_blocks_need_no_branch_bound_or_full_compile(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tractable blocks must use the bipartite core")

    monkeypatch.setattr(nmrfmap.mwss, "mwss_branch_bound", refuse)
    monkeypatch.setattr(nmrfmap.nmrf, "build_nmrf", refuse)
    rng = np.random.default_rng(101)
    hub_blocks = 0
    for _ in range(40):
        model = random_tractable_model(rng)
        hub_blocks += sum(
            c.kind in ("T", "U") for c in classify_model(model).classes
        )
        sol = solve_map(model)
        ref = brute_force_map(model)
        assert sol.objective == pytest.approx(ref.objective)
        assert sol.assignment == ref.assignment
    assert hub_blocks >= 10


def test_solve_map_builds_no_enode_plan(monkeypatch):
    """The enode plan is for the compiler: `enode_forms` gives one form per
    edge of `graph.edges`, `plan_by_names` keys those forms by names, and
    solve_map solves BR, T and U blocks without building them."""
    def refuse(*args, **kwargs):
        raise AssertionError("solve_map must not build the enode plan")

    rng = np.random.default_rng(107)
    models = [random_tractable_model(rng, max_vars=int(rng.integers(3, 13))) for _ in range(40)]
    kinds = set()
    for model in models + [random_signed_model(rng, n=8) for _ in range(10)]:
        report = classify_model(model)
        kinds.update(c.kind for c in report.classes)
        forms = nmrfmap.structure.enode_forms(report)
        assert len(forms) == len(report.graph.edges)
        names = report.graph.names
        assert plan_by_names(report) == {
            (names[u], names[v]): form for (u, v, _), form in zip(report.graph.edges, forms)
        }
    assert kinds == {"BR", "T", "U", "INTRACTABLE"}
    solutions = [solve_map(model) for model in models]
    monkeypatch.setattr(nmrfmap.structure, "enode_forms", refuse)
    assert [solve_map(model) for model in models] == solutions


def test_balanced_blocks_reuse_the_classification_colouring(monkeypatch):
    """A BR block takes its sides from classify_graph: the solve does not
    colour it again."""
    colourings = 0

    def counted(*args):
        nonlocal colourings
        colourings += 1
        return two_color(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("the solve must reuse the classification's work")

    two_color = nmrfmap.structure._signed_two_color
    monkeypatch.setattr(nmrfmap.structure, "_signed_two_color", counted)
    # The solve imports no colouring of its own; should it ever, refuse it.
    monkeypatch.setattr(nmrfmap.mwss, "_signed_two_color", refuse, raising=False)
    rng = np.random.default_rng(103)
    pinned_blocks = 0
    for _ in range(40):
        model = random_br_model(rng, n=int(rng.integers(4, 13)), p=float(rng.uniform(0.2, 0.6)))
        before = colourings
        tree = classify_model(model).tree
        by_classify = colourings - before
        pinned_blocks += sum(c is not None for c in tree.attach)
        before = colourings
        sol = solve_map(model)
        assert colourings - before == by_classify  # its one classification
        ref = brute_force_map(model)
        assert sol.objective == pytest.approx(ref.objective)
        assert sol.assignment == ref.assignment
    assert colourings  # classification still colours the larger blocks
    assert pinned_blocks >= 20


def test_value_pass_on_deep_block_chain():
    n_blocks = 10**4
    model = block_chain_model(n_blocks)
    table = {p.scope: p.table for p in model.potentials}
    names = model.names
    # variable elimination along the chain s - (v) - t of triangle blocks
    best = list(table[(names[0],)])
    for b in range(n_blocks):
        s, v, t = names[2 * b : 2 * b + 3]
        best = [
            max(
                best[x]
                + table[(v,)][y]
                + table[(s, v)][2 * x + y]
                + table[(s, t)][2 * x + z]
                + table[(v, t)][2 * y + z]
                for x in (0, 1)
                for y in (0, 1)
            )
            + table[(t,)][z]
            for z in (0, 1)
        ]
    value = _value_pass(pairwise_view(model, DEFAULT_EPS), DEFAULT_EPS)[0]
    assert value == pytest.approx(max(best))


def _near_tie_model(n, seed):
    """Unary (0, g) with g in [2e-8, 1e-7] on every variable plus one
    anchoring edge between two of them."""
    rng = np.random.default_rng(seed)
    names = [f"X{i + 1}" for i in range(n)]
    potentials = [
        {"scope": [name], "table": [0.0, float(rng.uniform(2e-8, 1e-7))]}
        for name in names
    ]
    u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
    table = [float(x) for x in rng.uniform(-2.0, 2.0, size=4)]
    potentials.append({"scope": [names[u], names[v]], "table": table})
    model = validate_model(
        {"variables": [{"name": x, "card": 2} for x in names],
         "potentials": potentials}
    )
    return model, names[u], names[v]


@pytest.mark.parametrize("n", [12, 40])
def test_near_ties_decoded_without_drift(n):
    model, a, b = _near_tie_model(n, seed=n)
    table = {p.scope: p.table for p in model.potentials}
    # every variable off the edge takes its larger unary, label 1
    labels = {name: 1 for name in model.names}
    value = sum(table[(name,)][1] for name in model.names if name not in (a, b))
    pair = max(
        (table[(a,)][x] + table[(b,)][y] + table[(a, b)][2 * x + y], -x, -y)
        for x in (0, 1)
        for y in (0, 1)
    )
    labels[a], labels[b] = -pair[1], -pair[2]
    value += pair[0]
    sol = solve_map(model)
    assert abs(sol.objective - value) <= 1e-12
    assert sol.assignment == labels


def test_deep_block_chain_solved_to_lex_smallest_optimum():
    n_blocks = 10**4
    model = block_chain_model(n_blocks)
    table = {p.scope: p.table for p in model.potentials}
    names = model.names

    def block_value(b, x, y, z):
        s, v, t = names[2 * b : 2 * b + 3]
        return (
            table[(v,)][y]
            + table[(t,)][z]
            + table[(s, v)][2 * x + y]
            + table[(s, t)][2 * x + z]
            + table[(v, t)][2 * y + z]
        )

    # backward max-sum: after[b][x] = best of blocks b.. given X_{2b+1} = x
    after = [[0.0, 0.0] for _ in range(n_blocks + 1)]
    for b in range(n_blocks - 1, -1, -1):
        after[b] = [
            max(
                block_value(b, x, y, z) + after[b + 1][z]
                for y in (0, 1)
                for z in (0, 1)
            )
            for x in (0, 1)
        ]
    first = table[(names[0],)]
    optimum = max(first[x] + after[0][x] for x in (0, 1))
    # forward in declaration order: 0 whenever 0 still reaches the optimum
    x = 0 if first[0] + after[0][0] == optimum else 1
    labels = [x]
    for b in range(n_blocks):
        target = after[b][x]

        def best(y):
            return max(block_value(b, x, y, z) + after[b + 1][z] for z in (0, 1))

        y = 0 if best(0) == target else 1
        z = 0 if block_value(b, x, y, 0) + after[b + 1][0] == target else 1
        labels += [y, z]
        x = z
    sol = solve_map(model)
    assert sol.objective == optimum
    assert sol.assignment == dict(zip(names, labels))


def test_tied_cut_vertex_follows_lower_variable_in_other_block():
    # A = C and B != C are each worth 1: the optima are (A, B, C) = (0, 1, 0)
    # and (1, 0, 1). B alone would take 0, but A comes first and takes 0,
    # which fixes C = 0 through the first block and then B = 1.
    model = validate_model(
        {
            "variables": [{"name": n, "card": 2} for n in "ABC"],
            "potentials": [
                {"scope": ["A", "C"], "table": [1.0, 0.0, 0.0, 1.0]},
                {"scope": ["B", "C"], "table": [0.0, 1.0, 1.0, 0.0]},
            ],
        }
    )
    sol = solve_map(model)
    assert sol.assignment == brute_force_map(model).assignment
    assert sol.assignment == {"A": 0, "B": 1, "C": 0}


def _with_small_integer_tables(model, rng):
    """The same signed topology with every table redrawn from {-1, 0, 1}."""
    potentials = []
    for p in model.potentials:
        size = len(p.table)
        while True:
            t = [float(x) for x in rng.integers(-1, 2, size=size)]
            if size == 2:
                break
            a = associativity(t)
            if a != 0 and (a > 0) == (associativity(p.table) > 0):
                break
        potentials.append(Potential(p.scope, tuple(t)))
    return Model(model.variables, tuple(potentials))


def test_exact_ties_across_blocks_and_hubs_match_brute_force():
    rng = np.random.default_rng(107)
    hub_blocks = 0
    for _ in range(300):
        model = _with_small_integer_tables(
            random_tractable_model(rng, max_vars=int(rng.integers(4, 12))), rng
        )
        hub_blocks += sum(
            c.kind in ("T", "U") for c in classify_model(model).classes
        )
        sol = solve_map(model)
        ref = brute_force_map(model)
        assert sol.objective == ref.objective
        assert sol.assignment == ref.assignment
    assert hub_blocks >= 100


# ---------------------------------------------------------------------------
# regions: each BR block solved in the min cut of its parent block's region


def _counting_cuts(monkeypatch):
    """Count `_snode_cut` calls: returns the list each call appends to, of
    the snodes of each."""
    calls = []

    def counted(*args):
        calls.append(len(args[1]))
        return snode_cut(*args)

    snode_cut = nmrfmap.mwss._snode_cut
    monkeypatch.setattr(nmrfmap.mwss, "_snode_cut", counted)
    return calls


def _per_block_cuts(report):
    """Min cuts that solving every block on its own takes: one per labeling
    of its attachment and, in a T/U block attached at neither hub, hub s."""
    cuts = 0
    for block, cls, c in zip(report.tree.blocks, report.classes, report.tree.attach):
        if block.edges:
            pinned = c is not None
            if cls.kind != "BR" and c not in cls.hubs:
                pinned += 1
            cuts += 2 ** pinned
    return cuts


def test_balanced_tree_takes_one_min_cut(monkeypatch):
    """A tree is balanced, so it is one region: one min cut where solving
    its 1999 bridges one by one took 3,997. The cut is closed from both
    terminals when it is solved, and a cut that the closures decide keeps
    no flow network."""
    n = 2000
    rng = np.random.default_rng(2000)
    edges = [
        (int(rng.integers(0, v)), v, ASSOCIATIVE if rng.random() < 0.5 else REPULSIVE)
        for v in range(1, n)
    ]
    model = model_from_signed_edges(n, edges, rng)
    assert _per_block_cuts(classify_model(model)) == 3997
    calls = _counting_cuts(monkeypatch)
    best, kept = _value_pass(pairwise_view(model), DEFAULT_EPS)
    assert len(calls) == 1 and calls[0] > n // 4
    for _, cuts in kept:
        for cut in cuts:
            if cut.flow is not None:
                closed = list(cut.state)
                cut.flow.close(closed, cut.flow.n - 1, -1)
                assert 0 in closed  # a flow node that neither closure decides

    # max-sum over the tree, children (higher ids) first
    table = {p.scope: p.table for p in model.potentials}
    names = model.names
    value = [list(table[(x,)]) for x in names]
    for u, v, _ in reversed(edges):
        t = table[(names[u], names[v])]
        for x in (0, 1):
            value[u][x] += max(t[2 * x + y] + value[v][y] for y in (0, 1))
    assert best == pytest.approx(max(value[0]))
    sol = solve_map(model)
    assert sol.objective == pytest.approx(max(value[0]))
    assert len(calls) == 2


def test_kept_cuts_are_flat_state_lists():
    """Each kept cut is one state list over its region's positions plus the
    two terminals, with a network only while some position is open; on a
    chain of 1000 triangles what the value pass keeps stays under 1 MiB."""
    pw = pairwise_view(block_chain_model(1000))
    gc.collect()
    tracemalloc.start()
    try:
        best, kept = _value_pass(pw, DEFAULT_EPS)
        gc.collect()  # empties the free lists, which hold no live object
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 2**20
    networks = 0
    for vertices, cuts in kept:
        for cut in cuts:
            assert not any(isinstance(getattr(cut, slot), dict) for slot in cut.__slots__)
            assert len(cut.state) == len(vertices) + 2
            assert (cut.flow is None) == (0 not in cut.state[: len(vertices)])
            # A position decided without an arc is an idle node: the shared empty tuple.
            assert cut.flow is None or all(
                arcs == () for arcs, mark in zip(cut.flow.head, cut.state[: len(vertices)]) if mark and not arcs
            )
            networks += cut.flow is not None
    assert 0 < networks < sum(len(cuts) for _, cuts in kept)


def _block_chain(rng, n_blocks, integer=False):
    """n_blocks random K2, BR, T and U blocks, each sharing its last vertex
    with the next one's first."""
    edges, base = [], 0
    for _ in range(n_blocks):
        block, used = _random_block(rng, base, 5)
        edges += [(min(u, v), max(u, v), sign) for u, v, sign in block]
        base += used - 1
    return model_from_signed_edges(base + 1, edges, rng, integer=integer)


def test_block_chains_take_fewer_min_cuts_than_blocks(monkeypatch):
    """A T/U block and the BR blocks below it share one min cut per pinned
    labeling, so a chain takes at most four per T/U block plus four, and
    fewer than solving each block on its own."""
    rng = np.random.default_rng(211)
    calls = _counting_cuts(monkeypatch)
    for _ in range(20):
        model = _block_chain(rng, 30)
        report = classify_model(model)
        hub_blocks = sum(c.kind in ("T", "U") for c in report.classes)
        del calls[:]
        solve_map(model)
        assert len(calls) < _per_block_cuts(report)
        assert len(calls) <= 4 * (hub_blocks + 1)


def _hung_blocks_model(rng, max_vars, integer):
    """Random K2, BR, T and U blocks, each after the first hung by a random
    one of its vertices at a random vertex of those before it."""
    edges, used = _random_block(rng, 0, max_vars)
    n = used
    while True:
        block, used = _random_block(rng, n, 5)
        if n + used - 1 > max_vars:
            return model_from_signed_edges(n, edges, rng, integer=integer)
        at, hung = int(rng.integers(0, n)), n + int(rng.integers(0, used))

        def vertex(x):
            return at if x == hung else x - (x > hung)

        edges += [(min(vertex(u), vertex(v)), max(vertex(u), vertex(v)), sign) for u, v, sign in block]
        n += used - 1


def _hung_shapes(report):
    """Where the BR blocks of a block tree hang: at a free spoke, the free
    hub or the pinned hub s of a T/U block, at the vertex where a T/U block
    is attached (in the region above it), or beside a BR sibling at one
    cut vertex."""
    tree, classes = report.tree, report.classes
    owner = {}
    for bi, (block, c) in enumerate(zip(tree.blocks, tree.attach)):
        for v in block.vertices:
            if v != c:
                owner[v] = bi
    shapes = collections.Counter()
    br_at = collections.Counter()
    hub_at = set()
    for block, cls, c in zip(tree.blocks, classes, tree.attach):
        if c is None or not block.edges:
            continue
        if cls.kind != "BR":
            hub_at.add(c)
            continue
        br_at[c] += 1
        parent = classes[owner[c]]
        if parent.kind == "BR":
            continue
        s, t = parent.hubs
        if c not in (s, t):
            shapes["free spoke"] += 1
        elif c == s and tree.attach[owner[c]] not in (s, t):
            shapes["pinned hub"] += 1
        else:
            shapes["free hub"] += 1
    shapes["at attachment"] = sum(br_at[c] for c in hub_at)
    shapes["siblings"] = sum(k for k in br_at.values() if k > 1)
    return shapes


def test_hung_blocks_match_brute_force():
    """Regions of every shape, on integer tables where ties are common:
    solve_map's optimum and its choice among tied optima, the
    lexicographically smallest, are those of enumeration."""
    rng = np.random.default_rng(223)
    shapes = collections.Counter()
    for trial in range(100):
        model = _hung_blocks_model(rng, int(rng.integers(6, 14)), integer=trial % 2 == 0)
        if trial % 4 == 1:
            model = _with_small_integer_tables(model, rng)
        shapes += _hung_shapes(classify_model(model))
        sol = solve_map(model)
        ref = brute_force_map(model)
        assert sol.objective == ref.objective
        assert sol.assignment == ref.assignment
    assert min(shapes[k] for k in (
        "free spoke", "free hub", "pinned hub", "at attachment", "siblings"
    )) >= 10, shapes


def test_rounding_level_gap_is_a_tie():
    # In exact decimal arithmetic X3 = 0 and X3 = 1 tie; after
    # reparameterization X3's unary gap is float rounding, not a preference.
    model = validate_model(
        {
            "variables": [{"name": f"X{i}", "card": 2} for i in range(1, 5)],
            "potentials": [
                {"scope": ["X1"], "table": [-0.3, -0.3]},
                {"scope": ["X2"], "table": [0.1, -0.3]},
                {"scope": ["X3"], "table": [-0.3, -0.3]},
                {"scope": ["X4"], "table": [0.7, 0.7]},
                {"scope": ["X2", "X3"], "table": [-0.1, 0.0, -0.3, 0.2]},
                {"scope": ["X1", "X3"], "table": [0.2, 0.2, 0.2, 0.1]},
                {"scope": ["X2", "X4"], "table": [0.7, 0.0, 0.1, 0.1]},
                {"scope": ["X1", "X4"], "table": [-0.1, 0.1, 0.2, -0.3]},
            ],
        }
    )
    sol = solve_map(model)
    assert sol.assignment == {"X1": 1, "X2": 0, "X3": 0, "X4": 0}
    assert sol.objective == pytest.approx(1.2)


def test_repeated_pairwise_scope_counts_every_table():
    model = Model(
        (("X1", 2), ("X2", 2)),
        (
            Potential(("X1", "X2"), (3.0, 0.0, 0.0, 1.0)),
            Potential(("X1", "X2"), (0.0, 0.0, 0.0, 5.0)),
        ),
    )
    sol = solve_map(model)
    ref = brute_force_map(model)
    assert sol.objective == ref.objective == 6.0
    assert sol.assignment == ref.assignment == {"X1": 1, "X2": 1}
    assert solve_map_bnb(model).objective == 6.0
    # a repeated singleton scope counts every table too
    model = Model(
        (("A", 2), ("B", 2)),
        (
            Potential(("A",), (0.0, 1.0)),
            Potential(("A",), (0.0, -0.5)),
            Potential(("A", "B"), (1.0, 0.0, 0.0, 1.0)),
        ),
    )
    assert solve_map(model).objective == solve_map_bnb(model).objective == 1.5


def _oriented(scope, t, rng):
    if rng.random() < 0.5:
        return Potential((scope[1], scope[0]), (t[0], t[2], t[1], t[3]))
    return Potential(scope, tuple(t))


def _split_scopes(model, rng):
    """The same energy, with every pairwise table split into two or three
    integer parts, each over the scope in either order, in shuffled order."""
    potentials = []
    for p in model.potentials:
        if len(p.scope) == 1:
            potentials.append(p)
            continue
        rest = list(p.table)
        for _ in range(int(rng.integers(1, 3))):
            part = [float(x) for x in rng.integers(-3, 4, size=4)]
            rest = [r - x for r, x in zip(rest, part)]
            potentials.append(_oriented(p.scope, part, rng))
        potentials.append(_oriented(p.scope, rest, rng))
    order = rng.permutation(len(potentials))
    return Model(model.variables, tuple(potentials[i] for i in order))


def test_scopes_repeated_in_both_orders_solve_exactly():
    rng = np.random.default_rng(113)
    for _ in range(150):
        whole = random_tractable_model(rng, max_vars=int(rng.integers(3, 10)), integer=True)
        model = _split_scopes(whole, rng)
        split, once = classify_model(model), classify_model(whole)
        assert split.tractable == once.tractable
        assert [(b.vertices, c.kind) for b, c in zip(split.tree.blocks, split.classes)] == [
            (b.vertices, c.kind) for b, c in zip(once.tree.blocks, once.classes)
        ]
        sol = solve_map(model)
        ref = brute_force_map(model)
        assert sol.objective == ref.objective == solve_map(whole).objective
        assert sol.assignment == ref.assignment
        if len(model.variables) <= 6:
            # one clique group per pair, so the pruned NMRF fits the cap
            assert solve_map_bnb(model).objective == ref.objective
        # one rewritten edge per pair, over the sum of its parts
        rewritten = apply_enode_plan(model, plan_by_names(split))
        pairs = [frozenset(p.scope) for p in rewritten.potentials if len(p.scope) == 2]
        assert len(pairs) == len(set(pairs))
        names = [name for name, _ in model.variables]
        for bits in itertools.product((0, 1), repeat=len(names)):
            labeling = dict(zip(names, bits))
            assert energy(rewritten, labeling) == energy(model, labeling)


# sha256 of every sorted assignment and objective repr over the corpus below,
# recorded while each pinned labeling still copied and re-coloured its block.
GOLDEN_SOLUTIONS = "0d4ce9353c467c17c4c3c1366ec5e26cc39126f4d9a43e289579b255f28c5838"


def _golden_solution_corpus():
    rng = np.random.default_rng(127)
    for _ in range(60):
        yield random_tractable_model(rng, max_vars=int(rng.integers(3, 13)))
    for _ in range(60):
        yield random_tractable_model(rng, max_vars=int(rng.integers(3, 13)), integer=True)
    for _ in range(60):
        yield _with_small_integer_tables(
            random_tractable_model(rng, max_vars=int(rng.integers(3, 13))), rng
        )
    yield block_chain_model(300)


def test_solutions_match_golden_digest():
    digest = hashlib.sha256()
    for model in _golden_solution_corpus():
        sol = solve_map(model)
        digest.update(repr((sorted(sol.assignment.items()), repr(sol.objective))).encode())
    assert digest.hexdigest() == GOLDEN_SOLUTIONS


# The same digest over larger and denser models: BR models of 12-30
# variables at edge density 0.3, and block chains of up to 40 variables, each
# with float tables and with tables from {-1, 0, 1} (many exact ties).
GOLDEN_DENSE_SOLUTIONS = "3a5eb5258ca15d6c73680e2cb26bb56554f35dc69c27bdd6250aa5486d98eb9b"


def _dense_solution_corpus():
    rng = np.random.default_rng(151)
    for _ in range(60):
        yield random_br_model(rng, n=int(rng.integers(12, 31)), p=0.3)
    for _ in range(60):
        yield _with_small_integer_tables(
            random_br_model(rng, n=int(rng.integers(12, 31)), p=0.3), rng
        )
    for _ in range(60):
        yield random_tractable_model(rng, max_vars=int(rng.integers(13, 41)))
    for _ in range(60):
        yield random_tractable_model(rng, max_vars=int(rng.integers(13, 41)), integer=True)
    for _ in range(60):
        yield _with_small_integer_tables(
            random_tractable_model(rng, max_vars=int(rng.integers(13, 41))), rng
        )


def test_dense_solutions_match_golden_digest():
    digest = hashlib.sha256()
    for model in _dense_solution_corpus():
        sol = solve_map(model)
        digest.update(repr((sorted(sol.assignment.items()), repr(sol.objective))).encode())
    assert digest.hexdigest() == GOLDEN_DENSE_SOLUTIONS


def test_power_of_two_scaling_changes_no_solution():
    """Every threshold of the solve is a multiple of the scale of the tables
    it decides about, so tables times 2**k, exact in floating point, give
    the same assignment and exactly 2**k times the objective. An absolute
    flow threshold of 1e-12 gave a suboptimal assignment to about half of
    these models at k = -40."""
    rng = np.random.default_rng(0)
    models = [random_tractable_model(rng, max_vars=9) for _ in range(200)]
    models += [*_golden_solution_corpus(), *_dense_solution_corpus()]
    for model in models:
        sol = solve_map(model, eps=0)
        for k in (-60, -40, -30, 0, 30, 60):
            moved = solve_map(scaled(model, k), eps=0)
            assert moved.assignment == sol.assignment, k
            assert moved.objective * 2.0**-k == sol.objective, k


# ---------------------------------------------------------------------------
# the contracted block network against the explicit enode/snode graph


def _residual_closures(graph, src, sink):
    """Source and sink closures of the residual graph of a maximum flow
    that networkx's Edmonds-Karp computes on `graph`: what the source
    reaches and what reaches the sink over arcs of residual capacity
    > 1e-9. Every maximum flow leaves the same closures (Picard and
    Queyranne, 1980)."""
    residual = nx.algorithms.flow.edmonds_karp(graph, src, sink)
    arcs = nx.DiGraph(
        (u, v)
        for u, v, data in residual.edges(data=True)
        if data["capacity"] - data["flow"] > 1e-9
    )
    arcs.add_nodes_from(graph)
    return nx.descendants(arcs, src) | {src}, nx.ancestors(arcs, sink) | {sink}


def _check_snode_cut(weights, snode, enodes, tie):
    """One pinned labeling's min cut, from the network with a flow node per
    snode and rounding tie `tie`, against networkx's max flow on the
    explicit graph: enodes on the source side of the snodes, an infinite
    arc from each enode to the snode of each of its ends that has one."""
    k, m = len(weights), len(enodes)
    value, flow, state = _snode_cut(weights, snode, enodes, tie)
    assert flow.tie == tie
    every = [*weights, *(w for _, _, w in enodes)]
    edges = [
        (k + j, snode[x])
        for j, (u, v, _) in enumerate(enodes)
        for x in (u, v)
        if x in snode
    ]
    graph = nx.DiGraph()
    graph.add_nodes_from(["s", "t", *range(k + m)])
    for i, w in enumerate(every):
        # A capacity <= the network's tie is saturated, as in the library.
        graph.add_edge(*(("s", i) if i >= k else (i, "t")), capacity=w if w > flow.tie else 0.0)
    graph.add_edges_from(edges)  # no capacity attribute: infinite
    cut_value, _ = nx.minimum_cut(graph, "s", "t")
    assert value == pytest.approx(sum(every) - cut_value, abs=1e-9)

    # Every snode is forced to the same side (1 source, -1 sink) or left
    # free (0) by both residual graphs.
    closed = [0] * (k + 2)
    flow.close(closed, k, 1)
    assert closed == state
    flow.close(closed, k + 1, -1)
    source, sink = _residual_closures(graph, "s", "t")
    assert closed[:k] == [(x in source) - (x in sink) for x in range(k)]

    # The network: enode (u, v) of weight w adds w to source -> u and an arc
    # u -> v of capacity w, over the ends that have snodes; each node's
    # terminal capacities cancel by their minimum.
    gain = [0.0] * k
    pairs = []
    for u, v, w in enodes:
        ends = [snode[x] for x in (u, v) if x in snode]
        if w > flow.tie and ends:
            gain[ends[0]] += w
            if len(ends) == 2:
                pairs.append((*ends, w))
    terminal = [g - w for g, w in zip(gain, weights)]
    seen = [0.0] * k
    seen_pairs = []
    net = [0.0] * (k + 2)
    to, cap = flow.to, flow.cap
    for e in range(0, len(to), 2):
        tail, head = to[e + 1], to[e]
        moved = cap[e + 1]  # a reverse arc's residual is the flow on its arc
        assert moved >= -1e-9 and cap[e] >= -1e-9
        limit = cap[e] + moved
        if tail == k:
            seen[head] += limit
        elif head == k + 1:
            seen[tail] -= limit
        else:
            seen_pairs.append((tail, head, limit))
        net[tail] -= moved
        net[head] += moved
    assert seen == pytest.approx(
        [d if abs(d) > flow.tie else 0.0 for d in terminal], abs=1e-9
    )
    assert len(seen_pairs) == len(pairs)
    for (x, y, limit), (x0, y0, w) in zip(sorted(seen_pairs), sorted(pairs)):
        assert (x, y) == (x0, y0) and limit == pytest.approx(w, abs=1e-9)
    assert net[:k] == pytest.approx([0.0] * k, abs=1e-9)
    assert state[k + 1] == 0  # no residual path from the source to the sink
    preflow = sum(min(g, w) for g, w in zip(gain, weights))
    assert preflow - net[k] == pytest.approx(cut_value, abs=1e-9)


def test_block_network_matches_explicit_graph_on_random_labelings():
    """Zero weights, weights at rounding level, exact ties, vertices without
    an snode, enodes with one or no snode end, in both orientations."""
    rng = np.random.default_rng(113)
    for trial in range(200):
        integer = trial % 2 == 0
        n = int(rng.integers(2, 12))

        def draw():
            if rng.random() < 0.1:
                return 1e-13  # at most the tie: saturated, never chosen
            if integer:
                return float(rng.integers(0, 4))
            return 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 3.0))

        snode, weights = {}, []
        for v in range(n):
            if rng.random() < 0.75:
                snode[v] = len(weights)
                weights.append(draw())
        p = float(rng.uniform(0.2, 0.8))
        enodes = [
            (u, v, draw()) if rng.random() < 0.5 else (v, u, draw())
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < p
        ]
        # The tie of a region of scale 1, as the draws are about that size.
        _check_snode_cut(weights, snode, enodes, TIE)


def test_block_network_matches_explicit_graph_in_solved_blocks(monkeypatch):
    """Every labeling that solve_map hands the block network, in BR blocks
    with and without a pinned parent, T/U blocks and exact ties."""
    calls = []

    def recording(weights, snode, enodes, tie):
        calls.append((list(weights), dict(snode), list(enodes), tie))
        return snode_cut(weights, snode, enodes, tie)

    snode_cut = nmrfmap.mwss._snode_cut
    monkeypatch.setattr(nmrfmap.mwss, "_snode_cut", recording)
    rng = np.random.default_rng(127)
    pinned = unpinned = 0
    for trial in range(90):
        if trial % 3 == 2:
            model = random_tractable_model(rng, max_vars=int(rng.integers(4, 13)))
        else:
            n, p = int(rng.integers(4, 13)), float(rng.uniform(0.2, 0.6))
            model = random_br_model(rng, n=n, p=p)
        if trial % 2:
            model = _with_small_integer_tables(model, rng)
        tree = classify_model(model).tree
        for block, c in zip(tree.blocks, tree.attach):
            if block.edges:
                pinned += c is not None
                unpinned += c is None
        sol = solve_map(model)
        assert sol.objective == pytest.approx(brute_force_map(model).objective)
    assert pinned >= 50 and unpinned >= 50
    assert any(len(snode) < len({x for u, v, _ in enodes for x in (u, v)})
               for _, snode, enodes, _ in calls)  # some vertex needs no snode
    for weights, snode, enodes, tie in calls:
        _check_snode_cut(weights, snode, enodes, tie)


def _assert_grid_matches_graph_cut(k, unary, edges):
    """A k x k grid of edge tables [c, 0, 0, c] and unaries [0, w], one BR
    block of k*k vertices, against the textbook graph cut for the cost
    -objective: vertex i on the source side takes label 0; s -> i costs
    label 1 and i -> t label 0, both shifted by their minimum; each edge
    costs c [x_i != x_j] - c, an arc of capacity c each way."""
    names = [f"X{i}_{j}" for i in range(k) for j in range(k)]
    model = validate_model(
        {
            "variables": [{"name": x, "card": 2} for x in names],
            "potentials": [
                {"scope": [x], "table": [0.0, float(w)]} for x, w in zip(names, unary)
            ]
            + [
                {"scope": [names[u], names[v]], "table": [c, 0.0, 0.0, c]}
                for u, v, c in edges
            ],
        }
    )
    assert [c.kind for c in classify_model(model).classes] == ["BR"]
    graph = nx.DiGraph()
    constant = 0.0
    for v, w in enumerate(unary):
        cost0, cost1 = 0.0, -float(w)
        low = min(cost0, cost1)
        graph.add_edge("s", v, capacity=cost1 - low)
        graph.add_edge(v, "t", capacity=cost0 - low)
        constant += low
    for u, v, c in edges:
        graph.add_edge(u, v, capacity=c)
        graph.add_edge(v, u, capacity=c)
        constant -= c
    cut_value, (source_side, _) = nx.minimum_cut(graph, "s", "t")
    assignment = {x: int(v not in source_side) for v, x in enumerate(names)}
    best = -(cut_value + constant)
    assert energy(model, assignment) == pytest.approx(best, abs=1e-6)
    sol = solve_map(model)
    assert sol.objective == pytest.approx(best, abs=1e-6)
    assert sol.assignment == assignment


def _grid_edges(k, coupling):
    """The edges (v, right or lower neighbour, coupling()) of a k x k grid."""
    edges = []
    for i in range(k):
        for j in range(k):
            v = i * k + j
            if j + 1 < k:
                edges.append((v, v + 1, coupling()))
            if i + 1 < k:
                edges.append((v, v + k, coupling()))
    return edges


def test_large_grid_block_matches_networkx_graph_cut():
    """A 40x40 ferromagnetic grid with continuous unaries and weak couplings
    U(0.2, 1)."""
    k = 40
    rng = np.random.default_rng(131)
    unary = rng.normal(0.0, 1.0, size=k * k)
    edges = _grid_edges(k, lambda: float(rng.uniform(0.2, 1.0)))
    _assert_grid_matches_graph_cut(k, unary, edges)


def test_strongly_coupled_grid_matches_networkx_graph_cut():
    """A 60x60 grid of coupling 1 with unaries U(-1, 1): its flow takes
    many phases and augmentations, so float rounding builds up along them."""
    k = 60
    rng = np.random.default_rng(131)
    unary = rng.uniform(-1.0, 1.0, size=k * k)
    _assert_grid_matches_graph_cut(k, unary, _grid_edges(k, lambda: 1.0))


# ---------------------------------------------------------------------------
# properties of solve_map, checked against enumeration

_PROPERTY_SETTINGS = settings(
    derandomize=True, max_examples=40, deadline=None, database=None
)


def _small_tractable(seed, integer):
    return random_tractable_model(np.random.default_rng(seed), max_vars=8, integer=integer)


@_PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    integer=st.booleans(),
    pick=st.integers(0, 10**6),
    shift=st.sampled_from([-2.5, -1.0, 0.5, 4.0]),
)
def test_constant_added_to_a_table_shifts_the_objective(seed, integer, pick, shift):
    model = _small_tractable(seed, integer)
    k = pick % len(model.potentials)
    potentials = list(model.potentials)
    p = potentials[k]
    potentials[k] = Potential(p.scope, tuple(x + shift for x in p.table))
    shifted = Model(model.variables, tuple(potentials))
    sol, moved = solve_map(model), solve_map(shifted)
    assert sol.assignment == brute_force_map(model).assignment
    assert moved.assignment == sol.assignment
    assert moved.assignment == brute_force_map(shifted).assignment
    assert moved.objective == pytest.approx(sol.objective + shift)


@_PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    integer=st.booleans(),
    order=st.randoms(use_true_random=False),
)
def test_potential_order_leaves_the_assignment(seed, integer, order):
    model = _small_tractable(seed, integer)
    potentials = list(model.potentials)
    order.shuffle(potentials)
    shuffled = Model(model.variables, tuple(potentials))
    sol = solve_map(shuffled)
    assert sol.assignment == solve_map(model).assignment
    assert sol.assignment == brute_force_map(shuffled).assignment


@_PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    integer=st.booleans(),
    mask=st.integers(0, 2**8 - 1),
)
def test_flipped_variables_map_optima_to_optima(seed, integer, mask):
    model = _small_tractable(seed, integer)
    flip = {name for k, name in enumerate(model.names) if mask >> k & 1}
    flipped = flip_variables(model, flip)
    sol = solve_map(flipped)
    tol = objective_tolerance(model)
    assert abs(sol.objective - solve_map(model).objective) <= tol
    assert abs(sol.objective - brute_force_map(flipped).objective) <= tol
    back = {name: label ^ (name in flip) for name, label in sol.assignment.items()}
    assert abs(energy(model, back) - brute_force_map(model).objective) <= tol


@_PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    integer=st.booleans(),
    order=st.randoms(use_true_random=False),
)
def test_renamed_and_reordered_variables_keep_the_optimum(seed, integer, order):
    model = _small_tractable(seed, integer)
    names = list(model.names)
    order.shuffle(names)
    # declared in the shuffled order, so every scope and index moves
    rename = {name: f"V{k}" for k, name in enumerate(names)}
    moved = validate_model(
        {
            "variables": [{"name": rename[name], "card": 2} for name in names],
            "potentials": [
                {"scope": [rename[name] for name in p.scope], "table": list(p.table)}
                for p in model.potentials
            ],
        }
    )
    sol = solve_map(moved)
    ref = brute_force_map(model)
    tol = objective_tolerance(model)
    assert abs(sol.objective - ref.objective) <= tol
    back = {name: sol.assignment[rename[name]] for name in model.names}
    assert abs(energy(model, back) - ref.objective) <= tol
    assert sol.assignment == brute_force_map(moved).assignment
