import hashlib
import itertools
import json

import numpy as np
import pytest

from generators import model_from_signed_edges, random_signed_model
from helpers import enode_rewrite, nodes_conflict, verify_hole
from nmrfmap.cli import main
from nmrfmap.errors import TooLargeError
from nmrfmap.model import ASSOCIATIVE, DEFAULT_EPS, REPULSIVE
from nmrfmap.nmrf import build_nmrf, compile_pairwise, nmrf_to_json, prune
from nmrfmap.perfection import (
    PlainGraph,
    cycle_to_induced_hole,
    find_odd_hole,
    is_perfect_small,
)


def cycle_graph(n):
    return PlainGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


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


def test_perfect_witness_ids_are_the_files_own(tmp_path, capsys):
    """`perfect` on a compiled graph whose pruning moves ids: its verdict is
    the search's on the subgraph of the file's positive-weight nodes, and a
    witness lists the file's node ids, read here off the file's own edges."""
    rng = np.random.default_rng(5)
    models = [model_from_signed_edges(2, [(0, 1, ASSOCIATIVE)], rng)]
    models += [random_signed_model(rng, n=4, p=0.6) for _ in range(20)]
    seen_imperfect = moved = 0
    for model in models:
        doc = nmrf_to_json(build_nmrf(model))
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        code = main(["perfect", str(path)])
        verdict = json.loads(capsys.readouterr().out)
        kept = [node["id"] for node in doc["nodes"] if node["weight"] > DEFAULT_EPS]
        assert len(kept) < len(doc["nodes"])
        pos = {nid: i for i, nid in enumerate(kept)}
        plain = PlainGraph.from_edges(
            len(kept), [(pos[u], pos[v]) for u, v in doc["edges"] if u in pos and v in pos]
        )
        assert verdict["perfect"] == is_perfect_small(plain).perfect
        assert code == (0 if verdict["perfect"] else 1)
        if verdict["perfect"]:
            continue
        seen_imperfect += 1
        witness = verdict["witness"]
        assert set(witness) <= set(kept)
        moved += max(witness) >= len(kept)
        full = PlainGraph.from_edges(len(doc["nodes"]), doc["edges"])
        verify_hole(full.complement() if verdict["witness_kind"] == "odd_antihole" else full,
                    witness)
    assert 0 < seen_imperfect < len(models)
    assert moved > 0  # the ids really moved


def test_compiled_imperfect_graphs_show_an_odd_hole():
    """A compiled graph with every edge rewritten to its single enode is
    perfect when its model is tractable; when it is not perfect, the search
    finds an odd hole, never only an odd antihole."""
    rng = np.random.default_rng(47)
    seen_imperfect = 0
    for _ in range(60):
        model = random_signed_model(rng, n=5, p=0.6)
        nmrf, report = compile_pairwise(model)
        pruned = prune(nmrf)
        graph = PlainGraph.from_edges(len(pruned.kept), pruned.edges)
        verdict = is_perfect_small(graph)
        assert verdict.perfect or not report.tractable
        if not verdict.perfect:
            seen_imperfect += 1
            assert verdict.witness_kind == "odd_hole"
            verify_hole(graph, verdict.witness)
    assert 0 < seen_imperfect < 60  # the sample must exercise both verdicts


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
# perfection verdicts of the pruned graphs (witnesses as compiled node ids),
# or the TooLargeError message, of 120 seeded random signed models compiled
# with and without their enode plan.
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
        for m in (enode_rewrite(model)[0], model):
            pruned = prune(build_nmrf(m))
            try:
                verdict = is_perfect_small(PlainGraph.from_edges(len(pruned.kept), pruned.edges))
            except TooLargeError as exc:
                verdict = f"TooLargeError: {exc}"
            else:  # witnesses as node ids of the compiled graph
                if not verdict.perfect:
                    verdict = verdict._replace(witness=tuple(pruned.kept[i] for i in verdict.witness))
            h.update(repr(verdict).encode())
    assert h.hexdigest() == GOLDEN_HOLE_WITNESSES
