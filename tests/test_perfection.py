import hashlib
import itertools

import numpy as np
import pytest

from helpers import nodes_conflict
from nmrfmap.errors import TooLargeError
from nmrfmap.generators import model_from_signed_edges, random_signed_model
from nmrfmap.model import ASSOCIATIVE, REPULSIVE
from nmrfmap.nmrf import apply_enode_plan, build_nmrf, prune
from nmrfmap.perfection import (
    PlainGraph,
    binary_pairwise_perfection,
    cycle_to_induced_hole,
    find_odd_hole,
    is_perfect_small,
)
from nmrfmap.structure import classify_model, plan_by_names


def cycle_graph(n):
    return PlainGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def verify_hole(graph, hole):
    """The returned vertex list must be an induced chordless odd cycle."""
    assert len(hole) >= 5 and len(hole) % 2 == 1
    assert len(set(hole)) == len(hole)
    for i, u in enumerate(hole):
        for j in range(i + 1, len(hole)):
            v = hole[j]
            consecutive = j - i == 1 or (i == 0 and j == len(hole) - 1)
            assert (v in graph.adj[u]) == consecutive, (hole, u, v)


def test_odd_cycles_rejected_even_accepted():
    for n in (5, 7, 9):
        hole = find_odd_hole(cycle_graph(n))
        verify_hole(cycle_graph(n), hole)
        assert len(hole) == n
    for n in (4, 6, 8):
        assert find_odd_hole(cycle_graph(n)) is None
        assert is_perfect_small(cycle_graph(n)).perfect


def test_antihole_detection():
    verdict = is_perfect_small(cycle_graph(7).complement())
    assert not verdict.perfect
    assert verdict.witness_kind == "odd_antihole"
    # C5 is self-complementary; it shows up as a plain odd hole first
    assert is_perfect_small(cycle_graph(5)).witness_kind == "odd_hole"


def test_bipartite_and_complete_graphs_are_perfect():
    rng = np.random.default_rng(43)
    for n in range(2, 11):
        full = PlainGraph.from_edges(
            n, list(itertools.combinations(range(n), 2))
        )
        assert is_perfect_small(full).perfect
    for _ in range(10):
        n = int(rng.integers(4, 11))
        sides = rng.integers(0, 2, size=n)
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if sides[u] != sides[v] and rng.random() < 0.5
        ]
        assert is_perfect_small(PlainGraph.from_edges(n, edges)).perfect


def test_hole_with_pendant_chords_still_found():
    # C5 plus an attached triangle elsewhere
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (4, 5), (5, 6), (4, 6)]
    g = PlainGraph.from_edges(7, edges)
    hole = find_odd_hole(g)
    verify_hole(g, hole)


def test_vertex_cap_enforced():
    with pytest.raises(TooLargeError):
        find_odd_hole(cycle_graph(31))
    assert find_odd_hole(cycle_graph(31), max_vertices=64) is not None


def test_binary_pairwise_requires_single_enode_form():
    # Untouched generic edges keep several surviving enodes; the verdict is
    # the full hole and antihole search's, witness ids in the base NMRF.
    rng = np.random.default_rng(5)
    models = [model_from_signed_edges(2, [(0, 1, ASSOCIATIVE)], rng)]
    models += [random_signed_model(rng, n=4, p=0.6) for _ in range(20)]
    seen_imperfect = 0
    for model in models:
        nmrf = build_nmrf(model)
        pruned = prune(nmrf)
        kept_set = set(pruned.kept)
        assert any(sum(i in kept_set for i in ids) > 1
                   for scope, ids in nmrf.groups.items() if len(scope) == 2)
        weights, edges, kept = pruned.subgraph()
        full = is_perfect_small(PlainGraph.from_edges(len(weights), edges))
        verdict = binary_pairwise_perfection(pruned)
        assert (verdict.perfect, verdict.witness_kind) == (full.perfect, full.witness_kind)
        if not full.perfect:
            seen_imperfect += 1
            assert verdict.witness == tuple(kept[i] for i in full.witness)
            assert max(verdict.witness) >= len(kept)  # the ids really moved
    assert 0 < seen_imperfect < len(models)


def compiled_pruned(model):
    report = classify_model(model)
    rewritten = apply_enode_plan(model, plan_by_names(report))
    return prune(build_nmrf(rewritten))


def test_binary_pairwise_agrees_with_full_check():
    rng = np.random.default_rng(47)
    seen_imperfect = 0
    for _ in range(60):
        model = random_signed_model(rng, n=5, p=0.6)
        pruned = compiled_pruned(model)
        fast = binary_pairwise_perfection(pruned)
        weights, edges, kept = pruned.subgraph()
        slow = is_perfect_small(PlainGraph.from_edges(len(weights), edges))
        assert fast.perfect == slow.perfect
        seen_imperfect += not fast.perfect
        if not fast.perfect:
            assert fast.witness_kind == "odd_hole"
    assert seen_imperfect > 0  # the sample must exercise both verdicts


def test_cycle_to_induced_hole_shapes():
    # frustrated square, default forms
    cyc = ["A", "B", "C", "D"]
    signs = [REPULSIVE, ASSOCIATIVE, ASSOCIATIVE, ASSOCIATIVE]
    forms = [(0, 1), (1, 1), (1, 1), (1, 1)]
    hole = cycle_to_induced_hole(cyc, signs, forms)
    assert len(hole) >= 4
    assert len(hole) % 2 == 1  # one repulsive edge
    # adjacency among the hole nodes is exactly the cycle
    L = len(hole)
    for i, j in itertools.combinations(range(L), 2):
        consecutive = j - i == 1 or (i == 0 and j == L - 1)
        assert nodes_conflict(hole[i], hole[j]) == consecutive


def test_cycle_to_induced_hole_rejects_bad_forms():
    with pytest.raises(ValueError):
        cycle_to_induced_hole(["A", "B", "C"],
                              [ASSOCIATIVE] * 3,
                              [(0, 1), (0, 0), (0, 0)])
    with pytest.raises(ValueError):
        cycle_to_induced_hole(["A", "B", "C"],
                              [REPULSIVE, ASSOCIATIVE, ASSOCIATIVE],
                              [(0, 0), (0, 0), (0, 0)])


def test_cycle_parity_random():
    rng = np.random.default_rng(53)
    for _ in range(100):
        L = int(rng.integers(3, 10))
        names = [f"V{i}" for i in range(L)]
        signs = [ASSOCIATIVE if rng.random() < 0.5 else REPULSIVE
                 for _ in range(L)]
        forms = []
        for s in signs:
            a = int(rng.integers(0, 2))
            b = a if s == ASSOCIATIVE else 1 - a
            forms.append((a, b))
        hole = cycle_to_induced_hole(names, signs, forms)
        reps = sum(1 for s in signs if s == REPULSIVE)
        assert len(hole) >= L
        assert len(hole) % 2 == reps % 2


# sha256 over the first hole of 1500 seeded random graphs (n 5-14, edge
# density 0.2-0.8) and of their complements, then over the
# binary_pairwise_perfection verdicts, or the TooLargeError message, of 120
# seeded random signed models compiled with and without their enode plan.
GOLDEN_HOLE_WITNESSES = "4d7186b5bded6f1d056eab2ab1e8dab42d2810451c5cc261561aefdbcaabd1dc"


def test_hole_witnesses_match_golden_digest():
    rng = np.random.default_rng(67)
    h = hashlib.sha256()
    found = 0
    for _ in range(1500):
        n = int(rng.integers(5, 15))
        density = float(rng.uniform(0.2, 0.8))
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        g = PlainGraph.from_edges(n, edges)
        holes = find_odd_hole(g), find_odd_hole(g.complement())
        found += sum(hole is not None for hole in holes)
        h.update(repr((n, *holes)).encode())
    assert 0 < found < 3000
    for _ in range(120):
        model = random_signed_model(rng, n=int(rng.integers(3, 6)), p=0.6)
        plan = plan_by_names(classify_model(model))
        for m in (apply_enode_plan(model, plan), model):
            try:
                verdict = binary_pairwise_perfection(prune(build_nmrf(m)))
            except TooLargeError as exc:
                verdict = f"TooLargeError: {exc}"
            h.update(repr(verdict).encode())
    assert h.hexdigest() == GOLDEN_HOLE_WITNESSES
