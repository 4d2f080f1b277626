"""End-to-end acceptance checks.

Each test prints a single PASS line on success so the suite doubles as a
report. Criteria marked with a tolerance use it verbatim; the rest are
exact. Randomness is seeded; every run checks the same instances.
"""

import itertools
import time

import networkx as nx
import numpy as np
import pytest

from generators import (
    block_chain_model,
    model_from_signed_edges,
    random_signed_model,
    random_supermodular_k3,
    random_tractable_model,
)
from helpers import (
    brute_force_mwss,
    forms_by_names,
    nodes_conflict,
    random_bipartite_graph,
    random_br_model,
    random_weighted_graph,
    verify_hole,
)
from nmrfmap.model import (
    ASSOCIATIVE,
    Model,
    Potential,
    REPULSIVE,
    SignedGraph,
    energy,
    signed_view,
)
from nmrfmap.mwss import mwss_branch_bound, solve_map
from nmrfmap.nmrf import build_nmrf, compile_pairwise, prune
from nmrfmap.oracle import brute_force_map
from nmrfmap.perfection import (
    PlainGraph,
    cycle_to_induced_hole,
    is_perfect_small,
)
from nmrfmap.structure import classify_graph, classify_model
from nmrfmap.submodular import (
    SUPERMODULAR_INFEASIBLE_K4,
    HighOrderPotential,
    alpha,
    construct_k3,
    is_supermodular,
    representation_feasible,
    representation_to_model,
)


def report(name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {name}: PASS{suffix}")


def compile_pruned(model, eps=1e-9):
    """The report and the graph that `compile` writes, pruned as `perfect`
    prunes it."""
    nmrf, rep = compile_pairwise(model, eps)
    return rep, prune(nmrf, eps)


def witness_hole_nodes(graph: SignedGraph, rep):
    """NMRF nodes of the odd hole generated by the witness frustrated cycle."""
    cls = next(c for c in rep.classes if c.kind == "INTRACTABLE")
    cycle = cls.witness
    sign_of = {(u, v): s for u, v, s in graph.edges}
    names = graph.names
    plan = forms_by_names(rep)
    L = len(cycle)
    cyc_names, signs, forms = [], [], []
    for i in range(L):
        u, v = cycle[i], cycle[(i + 1) % L]
        lo, hi = (u, v) if u < v else (v, u)
        signs.append(sign_of[(lo, hi)])
        a, b = plan[(names[lo], names[hi])]
        if u > v:
            a, b = b, a
        cyc_names.append(names[u])
        forms.append((a, b))
    return cycle_to_induced_hole(cyc_names, signs, forms)


def adversarial_model(graph: SignedGraph, rep):
    """Tables under which the witness odd hole survives pruning.

    Edge tables are already in planned single-enode form with weight 1;
    singleton tables bias exactly the snodes the hole needs.
    """
    hole = witness_hole_nodes(graph, rep)
    names = graph.names
    snode_value = {
        node.scope[0]: node.assignment[0] for node in hole if len(node.scope) == 1
    }
    potentials = []
    for name in names:
        table = [0.0, 0.0]
        if name in snode_value:
            table[snode_value[name]] = 1.0
        potentials.append(Potential((name,), tuple(table)))
    for scope, (a, b) in forms_by_names(rep).items():
        table = [0.0] * 4
        table[2 * a + b] = 1.0
        potentials.append(Potential(scope, tuple(table)))
    variables = tuple((n, 2) for n in names)
    return Model(variables, tuple(potentials)), hole


# ---------------------------------------------------------------------------


def test_oracle_equivalence_on_tractable_models():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    for i in range(500):
        integer = i % 4 == 0
        model = random_tractable_model(rng, integer=integer)
        sol = solve_map(model)
        ref = brute_force_map(model)
        if integer:
            assert sol.objective == ref.objective, i
        else:
            assert abs(sol.objective - ref.objective) <= 1e-6, i
        assert sol.assignment == ref.assignment, i
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("exact MAP equals brute force on 500 tractable models",
           f"{elapsed:.1f}s")


def test_balanced_models_compile_to_bipartite_nmrfs():
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    checked = 0
    for i in range(100):
        if i % 10 == 0:
            # structured shape: balanced cycle with alternating pendants
            n = 8
            hidden = [v % 2 for v in range(n)]
            edges = [
                (v, (v + 1) % n,
                 REPULSIVE if hidden[v] != hidden[(v + 1) % n] else ASSOCIATIVE)
                for v in range(n - 1)
            ] + [(0, n - 1, REPULSIVE if hidden[0] != hidden[n - 1]
                  else ASSOCIATIVE)]
            model = model_from_signed_edges(n, edges, rng)
        else:
            model = random_br_model(rng, n=int(rng.integers(4, 9)))
        rep, pruned = compile_pruned(model)
        assert rep.tractable
        assert all(c.kind == "BR" for c in rep.classes)
        assert nx.is_bipartite(nx.Graph(pruned.edges)), i
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report("100 balanced models give two-colorable pruned conflict graphs",
           f"{elapsed:.1f}s")


def test_intractable_topologies_yield_odd_hole_witnesses():
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    cases = {
        "frustrated 4-cycle": [
            (0, 1, REPULSIVE), (1, 2, ASSOCIATIVE), (2, 3, ASSOCIATIVE),
            (0, 3, ASSOCIATIVE),
        ],
        "frustrated 5-cycle": [
            (0, 1, REPULSIVE), (1, 2, REPULSIVE), (2, 3, REPULSIVE),
            (3, 4, REPULSIVE), (0, 4, REPULSIVE),
        ],
        "K4 with frustrated triangle": [
            (0, 1, REPULSIVE), (0, 2, ASSOCIATIVE), (1, 2, ASSOCIATIVE),
            (0, 3, ASSOCIATIVE), (1, 3, ASSOCIATIVE), (2, 3, ASSOCIATIVE),
        ],
    }
    for name, signed_edges in cases.items():
        n = max(max(u, v) for u, v, _ in signed_edges) + 1
        model = model_from_signed_edges(n, signed_edges, rng)
        rep = classify_model(model)
        assert not rep.tractable, name
        graph = signed_view(model)
        hole = witness_hole_nodes(graph, rep)
        assert len(hole) >= 5 and len(hole) % 2 == 1, name
        # the constructed nodes really form an induced odd cycle
        L = len(hole)
        for i, j in itertools.combinations(range(L), 2):
            consecutive = j - i == 1 or (i == 0 and j == L - 1)
            assert nodes_conflict(hole[i], hole[j]) == consecutive, name
        # and the compiled adversarial instance is confirmed imperfect
        adv, _ = adversarial_model(graph, rep)
        _, pruned = compile_pruned(adv)
        verdict = is_perfect_small(PlainGraph.from_edges(len(pruned.kept), pruned.edges))
        assert not verdict.perfect and verdict.witness_kind == "odd_hole", name
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report("three canonical intractable topologies produce confirmed odd holes",
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# exhaustive small-topology agreement


def _two_connected_topologies():
    """All 2-connected graphs on 2..5 vertices, one per isomorphism class."""
    out = []
    seen = set()
    for n in range(2, 6):
        pairs = list(itertools.combinations(range(n), 2))
        perms = list(itertools.permutations(range(n)))
        for mask in range(1, 1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            touched = {v for e in edges for v in e}
            if touched != set(range(n)):
                continue
            names = tuple(f"X{i}" for i in range(n))
            graph = SignedGraph(names, tuple((u, v, ASSOCIATIVE)
                                             for u, v in edges))
            from nmrfmap.structure import block_decompose

            tree = block_decompose(graph)
            if len(tree.blocks) != 1 or tree.cut_vertices:
                continue
            canon = min(
                tuple(sorted(
                    (min(p[u], p[v]), max(p[u], p[v])) for u, v in edges
                ))
                for p in perms
            )
            key = (n, canon)
            if key in seen:
                continue
            seen.add(key)
            autos = [
                p for p in perms
                if frozenset((min(p[u], p[v]), max(p[u], p[v]))
                             for u, v in edges) == frozenset(edges)
            ]
            out.append((n, edges, autos))
    return out


def _signings(edges, autos):
    """Sign vectors over the edges, one per automorphism orbit."""
    index = {e: i for i, e in enumerate(edges)}
    reps = []
    seen = set()
    for bits in itertools.product((0, 1), repeat=len(edges)):
        canon = min(
            tuple(
                bits[index[(min(p[u], p[v]), max(p[u], p[v]))]]
                for u, v in edges
            )
            for p in autos
        )
        if canon in seen:
            continue
        seen.add(canon)
        reps.append(bits)
    return reps


def test_exhaustive_small_topology_agreement():
    """On every signed 2-connected graph with <= 5 vertices the structural
    verdict matches perfection of the compiled conflict graph: tractable
    shapes stay perfect for every sampled table, intractable ones are caught
    imperfect (witnessed by an adversarial table among the samples)."""
    rng = np.random.default_rng(4242)
    t0 = time.perf_counter()
    topo_count = 0
    signed_count = 0
    perfection_memo = {}
    for n, edges, autos in _two_connected_topologies():
        topo_count += 1
        for bits in _signings(edges, autos):
            signed_count += 1
            signed_edges = [
                (u, v, REPULSIVE if b else ASSOCIATIVE)
                for (u, v), b in zip(edges, bits)
            ]
            names = tuple(f"X{i + 1}" for i in range(n))
            graph = SignedGraph(names, tuple(signed_edges))
            rep = classify_graph(graph)
            class_key = (n, tuple(edges), bits)
            saw_imperfect = False
            for sample in range(50):
                model = model_from_signed_edges(n, signed_edges, rng)
                _, pruned = compile_pruned(model)
                # structure depends only on which singleton nodes survive
                nodes = pruned.base.nodes
                pattern = tuple(
                    tuple(nodes[i].assignment[0] for i in pruned.base.groups[(name,)])
                    for name in names
                )
                memo_key = (class_key, pattern)
                verdict = perfection_memo.get(memo_key)
                if verdict is None:
                    verdict = is_perfect_small(
                        PlainGraph.from_edges(len(pruned.kept), pruned.edges)
                    ).perfect
                    perfection_memo[memo_key] = verdict
                if rep.tractable:
                    assert verdict, (class_key, sample)
                elif not verdict:
                    saw_imperfect = True
            if not rep.tractable:
                adv, _ = adversarial_model(graph, rep)
                _, pruned = compile_pruned(adv)
                assert not is_perfect_small(
                    PlainGraph.from_edges(len(pruned.kept), pruned.edges)
                ).perfect, class_key
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(
        "structural verdict matches perfection on all small 2-connected "
        "signed graphs",
        f"{topo_count} topologies, {signed_count} signed classes, "
        f"{elapsed:.1f}s",
    )


def test_signed_cycle_hole_parity():
    rng = np.random.default_rng(31415)
    t0 = time.perf_counter()
    for i in range(500):
        L = int(rng.integers(3, 10))
        names = [f"V{j}" for j in range(L)]
        signs = [ASSOCIATIVE if rng.random() < 0.5 else REPULSIVE
                 for _ in range(L)]
        forms = []
        for s in signs:
            a = int(rng.integers(0, 2))
            forms.append((a, a if s == ASSOCIATIVE else 1 - a))
        hole = cycle_to_induced_hole(names, signs, forms)
        reps = sum(1 for s in signs if s == REPULSIVE)
        assert len(hole) >= L, i
        assert len(hole) % 2 == reps % 2, i
        # chordless: adjacency among the nodes is exactly the cycle
        H = len(hole)
        for a_i, b_i in itertools.combinations(range(H), 2):
            consecutive = b_i - a_i == 1 or (a_i == 0 and b_i == H - 1)
            assert nodes_conflict(hole[a_i], hole[b_i]) == consecutive, i
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report("500 signed cycles map to chordless holes with matching parity",
           f"{elapsed:.1f}s")


def test_order3_construction_and_bipartiteness():
    rng = np.random.default_rng(2718)
    t0 = time.perf_counter()
    for i in range(200):
        psi = random_supermodular_k3(rng)
        rep = construct_k3(psi)
        for bits in itertools.product((0, 1), repeat=3):
            assert abs(rep.evaluate(bits) - psi.value(bits)) <= 1e-9, i
        for weights in (rep.zero_weights, rep.one_weights):
            for sub, w in weights.items():
                if len(sub) >= 2:
                    assert w >= 0.0, i
        if i % 10 == 0:
            model, constant = representation_to_model(rep)
            pruned = prune(build_nmrf(model))
            assert nx.is_bipartite(nx.Graph(pruned.edges)), i
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report("200 supermodular order-3 tables reconstruct exactly and "
           "compile bipartite", f"{elapsed:.1f}s")


def test_order4_counterexample_and_infeasibility_witnesses():
    t0 = time.perf_counter()
    psi = HighOrderPotential(("A", "B", "C", "D"), SUPERMODULAR_INFEASIBLE_K4)
    ok, _ = is_supermodular(psi)
    assert ok  # all 24 projections nonnegative
    assert alpha(psi) == -2.0
    assert not representation_feasible(psi).feasible

    rng = np.random.default_rng(555)
    found = 0
    while found < 50:
        k = int(rng.integers(2, 5))
        table = tuple(float(x) for x in rng.uniform(-2, 2, size=1 << k))
        cand = HighOrderPotential(tuple(f"X{i}" for i in range(k)), table)
        ok, witness = is_supermodular(cand)
        if ok:
            continue
        verdict = representation_feasible(cand)
        assert not verdict.feasible
        assert verdict.reason == "not_supermodular"
        assert verdict.witness is not None
        found += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report("order-4 counterexample infeasible; 50 non-supermodular tables "
           "rejected with witnesses", f"{elapsed:.1f}s")


def test_stable_set_solver_cross_validation():
    rng = np.random.default_rng(8888)
    t0 = time.perf_counter()
    for i in range(500):
        n = int(rng.integers(2, 25))
        if i % 2 == 0:
            weights, edges = random_weighted_graph(rng, n, p=0.3)
        else:
            weights, edges, _ = random_bipartite_graph(rng, n, p=0.3)
        ref = brute_force_mwss(weights, edges)
        sol = mwss_branch_bound(weights, edges)
        assert sol.weight == pytest.approx(ref.weight), i
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("branch and bound agrees with brute force on 500 random graphs",
           f"{elapsed:.1f}s")


def test_perfection_checker_sanity():
    t0 = time.perf_counter()

    def cycle(n):
        return PlainGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    for n in (5, 7):
        verdict = is_perfect_small(cycle(n))
        assert not verdict.perfect and verdict.witness_kind == "odd_hole"
        assert len(verdict.witness) == n
    verdict = is_perfect_small(cycle(7).complement())
    assert not verdict.perfect and verdict.witness_kind == "odd_antihole"

    rng = np.random.default_rng(666)
    for n in range(2, 11):
        assert is_perfect_small(
            PlainGraph.from_edges(n, itertools.combinations(range(n), 2))
        ).perfect
        sides = rng.integers(0, 2, size=n)
        bip_edges = [
            (u, v) for u, v in itertools.combinations(range(n), 2)
            if sides[u] != sides[v]
        ]
        assert is_perfect_small(PlainGraph.from_edges(n, bip_edges)).perfect

    # Compiled conflict graphs: perfect when the model is tractable, and an
    # imperfect one shows an induced odd hole.
    checked = imperfect = 0
    while checked < 100:
        model = random_signed_model(rng, n=int(rng.integers(4, 6)), p=0.7)
        rep, pruned = compile_pruned(model)
        if len(pruned.kept) > 20:
            continue
        graph = PlainGraph.from_edges(len(pruned.kept), pruned.edges)
        verdict = is_perfect_small(graph)
        assert verdict.perfect or not rep.tractable
        if not verdict.perfect:
            imperfect += 1
            assert verdict.witness_kind == "odd_hole"
            verify_hole(graph, verdict.witness)
        checked += 1
    assert 0 < imperfect < checked
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("perfection checker sanity: known graphs and 100 compiled "
           "conflict graphs", f"{elapsed:.1f}s")


def test_classification_scales_linearly():
    timings = {}
    for n_edges in (10 ** 3, 10 ** 4, 10 ** 5):
        model = block_chain_model(n_edges // 3)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            rep = classify_model(model)
            best = min(best, time.perf_counter() - t0)
        assert rep.tractable
        timings[n_edges] = best
    per_edge = {k: v / k for k, v in timings.items()}
    ratio = max(per_edge.values()) / min(per_edge.values())
    assert ratio <= 3.0, per_edge
    assert timings[10 ** 5] < 1.0, timings
    report(
        "classification scales linearly on chains",
        f"per-edge ratio {ratio:.2f}, 1e5 edges in {timings[10 ** 5]:.2f}s",
    )
