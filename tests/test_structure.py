import hashlib
import itertools
import json
import math
import random

import networkx as nx
import numpy as np
import pytest

from generators import (
    block_chain_model,
    model_from_signed_edges,
    random_signed_model,
    random_tractable_model,
)
from helpers import flip_variables, forms_by_names, scaled
from nmrfmap.errors import NotBinaryPairwiseError
from nmrfmap.model import (
    ASSOCIATIVE,
    Model,
    Potential,
    REPULSIVE,
    SignedGraph,
    model_to_json,
    pairwise_view,
    signed_view,
    validate_model,
)
from nmrfmap.structure import (
    Block,
    block_decompose,
    classify_block,
    classify_graph,
    classify_model,
    enode_forms,
    report_to_json,
    _signed_two_color,
)


def sg(n, edges):
    names = tuple(f"X{i}" for i in range(n))
    return SignedGraph(names, tuple(edges))


def brute_frustrated_exists(graph):
    """Check all simple cycles for an odd repulsive count."""
    sign = {}
    adj = {v: set() for v in range(graph.n)}
    for u, v, s in graph.edges:
        sign[(u, v)] = sign[(v, u)] = s
        adj[u].add(v)
        adj[v].add(u)

    def extend(path, seen):
        last = path[-1]
        for w in adj[last]:
            if w == path[0] and len(path) >= 3:
                reps = sum(
                    1
                    for a, b in zip(path, path[1:] + [path[0]])
                    if sign[(a, b)] == REPULSIVE
                )
                if reps % 2 == 1:
                    return True
            elif w not in seen and w > path[0]:
                if extend(path + [w], seen | {w}):
                    return True
        return False

    return any(extend([v], {v}) for v in range(graph.n))


# ---------------------------------------------------------------------------
# block decomposition


def test_blocks_partition_edges_and_find_cuts():
    # two triangles sharing X2, plus a pendant edge
    edges = [
        (0, 1, ASSOCIATIVE), (1, 2, ASSOCIATIVE), (0, 2, ASSOCIATIVE),
        (2, 3, ASSOCIATIVE), (3, 4, ASSOCIATIVE), (2, 4, ASSOCIATIVE),
        (4, 5, ASSOCIATIVE),
    ]
    tree = block_decompose(sg(6, edges))
    sizes = sorted(len(b.edges) for b in tree.blocks)
    assert sizes == [1, 3, 3]
    assert tree.cut_vertices == {2, 4}


def test_isolated_vertex_is_its_own_block():
    tree = block_decompose(sg(3, [(0, 1, ASSOCIATIVE)]))
    assert sorted(len(b.vertices) for b in tree.blocks) == [1, 2]


def test_blocks_against_brute_force_cut_vertices():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(4, 9))
        edges = [
            (u, v, ASSOCIATIVE)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.35
        ]
        graph = sg(n, edges)
        tree = block_decompose(graph)
        # every edge in exactly one block
        counts = {}
        for b in tree.blocks:
            for e in b.edges:
                counts[e] = counts.get(e, 0) + 1
        assert all(c == 1 for c in counts.values())
        assert sorted(counts) == sorted(edges)
        # cut vertices = vertices whose removal splits their component
        adj = {v: set() for v in range(n)}
        for u, v, _ in edges:
            adj[u].add(v)
            adj[v].add(u)

        def comp_count(skip):
            seen = set()
            parts = 0
            for s in range(n):
                if s == skip or s in seen:
                    continue
                parts += 1
                stack = [s]
                seen.add(s)
                while stack:
                    x = stack.pop()
                    for y in adj[x]:
                        if y != skip and y not in seen:
                            seen.add(y)
                            stack.append(y)
            return parts

        base = comp_count(None)
        expected_cuts = {
            v for v in range(n) if adj[v] and comp_count(v) > base - (0 if adj[v] else 1)
        }
        assert tree.cut_vertices == expected_cuts


def test_block_attachments_point_to_later_blocks():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(2, 11))
        edges = [
            (u, v, ASSOCIATIVE)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.3
        ]
        tree = block_decompose(sg(n, edges))
        graph = nx.Graph([(u, v) for u, v, _ in edges])
        graph.add_nodes_from(range(n))
        assert len(tree.attach) == len(tree.blocks)
        assert tree.attach.count(None) == nx.number_connected_components(graph)
        for i, (block, c) in enumerate(zip(tree.blocks, tree.attach)):
            if c is not None:
                assert c in block.vertices
                # the parent block, which holds c without hanging off it
                assert any(
                    c in later.vertices and up != c
                    for later, up in zip(tree.blocks[i + 1 :], tree.attach[i + 1 :])
                )


# ---------------------------------------------------------------------------
# frustration and the BR property


def test_frustrated_cycle_matches_brute_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(3, 9))
        edges = [
            (u, v, ASSOCIATIVE if rng.random() < 0.5 else REPULSIVE)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.4
        ]
        graph = sg(n, edges)
        _, cycle = _signed_two_color(range(graph.n), graph.edges)
        assert (cycle is not None) == brute_frustrated_exists(graph)
        if cycle is not None:
            # the returned cycle really is frustrated
            sign = {}
            for u, v, s in edges:
                sign[(u, v)] = sign[(v, u)] = s
            reps = 0
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert (a, b) in sign
                reps += sign[(a, b)] == REPULSIVE
            assert reps % 2 == 1


def test_detect_BR_iff_no_frustrated_cycle():
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(3, 9))
        edges = [
            (u, v, ASSOCIATIVE if rng.random() < 0.5 else REPULSIVE)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.4
        ]
        graph = sg(n, edges)
        side, cycle = _signed_two_color(range(graph.n), graph.edges)
        assert (side is None) == (cycle is not None)
        assert (side is None) == brute_frustrated_exists(graph)
        if side is not None:
            assert sorted(side) == list(range(n)) and set(side.values()) <= {0, 1}
            for u, v, s in edges:
                crossing = side[u] != side[v]
                assert crossing == (s == REPULSIVE)


def test_flipping_one_side_makes_everything_associative():
    rng = np.random.default_rng(31)
    # hidden bipartition forces the BR property
    for _ in range(10):
        n = 6
        hidden = [int(rng.integers(0, 2)) for _ in range(n)]
        edges = [
            (u, v, REPULSIVE if hidden[u] != hidden[v] else ASSOCIATIVE)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.6
        ]
        model = model_from_signed_edges(n, edges, rng)
        graph = signed_view(model)
        side, _ = _signed_two_color(range(graph.n), graph.edges)
        flipped = flip_variables(model, [graph.names[v] for v in range(n) if side[v] == 1])
        assert all(s == ASSOCIATIVE for _, _, s in signed_view(flipped).edges)


# ---------------------------------------------------------------------------
# block classification


def star_block(m, n):
    """Base edge 0-1 repulsive, m all-repulsive spokes, n all-associative."""
    edges = [(0, 1, REPULSIVE)]
    v = 2
    for _ in range(m):
        edges += [(0, v, REPULSIVE), (1, v, REPULSIVE)]
        v += 1
    for _ in range(n):
        edges += [(0, v, ASSOCIATIVE), (1, v, ASSOCIATIVE)]
        v += 1
    return Block(tuple(range(v)), tuple(edges))


def _block_json(block):
    """The JSON entry of a 2-connected block, classified as a graph of its own."""
    return report_to_json(classify_graph(sg(len(block.vertices), block.edges)))["blocks"][-1]


def test_classify_canonical_shapes():
    star = star_block(2, 3)
    cls = classify_block(star)
    assert cls.kind == "T"
    # s and the two repulsive spokes on side 1, t and the three associative ones on 0
    assert cls.hubs == (0, 1)
    assert cls.sides == (1, 0, 1, 1, 0, 0, 0)
    assert _block_json(star)["params"] == {
        "s": "X0", "t": "X1", "r": ["X2", "X3"], "a": ["X4", "X5", "X6"], "m": 2, "n": 3
    }

    edges = [(0, 1, ASSOCIATIVE)]
    for v, up in ((2, ASSOCIATIVE), (3, REPULSIVE)):
        edges += [(0, v, up), (1, v, -up)]
    block = Block((0, 1, 2, 3), tuple(edges))
    cls = classify_block(block)
    assert cls.kind == "U"
    assert cls.hubs == (0, 1)
    assert _block_json(block)["params"] == {"s": "X0", "t": "X1", "v": ["X2", "X3"], "n": 2}

    # balanced square
    sq = Block(
        (0, 1, 2, 3),
        ((0, 1, REPULSIVE), (1, 2, REPULSIVE), (2, 3, REPULSIVE), (0, 3, REPULSIVE)),
    )
    assert classify_block(sq).kind == "BR"

    # frustrated square
    fsq = Block(
        (0, 1, 2, 3),
        ((0, 1, REPULSIVE), (1, 2, ASSOCIATIVE), (2, 3, ASSOCIATIVE),
         (0, 3, ASSOCIATIVE)),
    )
    cls = classify_block(fsq)
    assert cls.kind == "INTRACTABLE"
    assert cls.witness is not None and len(cls.witness) >= 4


def test_classify_triangles():
    tri = lambda s1, s2, s3: Block(
        (0, 1, 2), ((0, 1, s1), (1, 2, s2), (0, 2, s3))
    )
    assert classify_block(tri(REPULSIVE, REPULSIVE, REPULSIVE)).kind == "T"
    assert classify_block(tri(REPULSIVE, ASSOCIATIVE, ASSOCIATIVE)).kind == "U"
    assert classify_block(tri(ASSOCIATIVE, ASSOCIATIVE, ASSOCIATIVE)).kind == "BR"
    assert classify_block(tri(REPULSIVE, REPULSIVE, ASSOCIATIVE)).kind == "BR"


def _is_frustrated_cycle(cycle, block):
    sign = {}
    for u, v, s in block.edges:
        sign[u, v] = sign[v, u] = s
    steps = list(zip(cycle, cycle[1:] + cycle[:1]))
    assert len(cycle) >= 3 and len(set(cycle)) == len(cycle)
    assert all(step in sign for step in steps)
    return sum(sign[step] == REPULSIVE for step in steps) % 2 == 1


def test_block_classes_do_not_depend_on_edge_order():
    """`classify_block` colours a balanced block in one pass over its edges
    in the order `block_decompose` lists them, and falls back to a BFS on
    any other order. The blocks of seeded chains and frustrated graphs,
    and a hand-built 4-cycle whose edges come in no DFS order, classify
    with their edges shuffled and reversed to the same kind, sides and
    hubs; a balanced triangle is coloured from its first edge, so its sides
    may flip. Every INTRACTABLE witness is a frustrated cycle of its block."""
    rng = np.random.default_rng(61)
    blocks = [Block((0, 1, 2, 3), ((0, 1, 1), (2, 3, 1), (1, 2, 1), (0, 3, 1)))]
    models = [_large_chain(seed, 400) for seed in range(3)]
    models += [_large_frustrated(seed, 60) for seed in range(3)]
    models += [random_signed_model(rng, n=int(rng.integers(4, 9)), p=0.5) for _ in range(60)]
    for model in models:
        blocks += [b for b in block_decompose(signed_view(model)).blocks if len(b.vertices) > 2]
    kinds = set()
    for block in blocks:
        expected = classify_block(block)
        kinds.add(expected.kind)
        for k in range(4):
            edges = list(block.edges[::-1])
            if k:
                rng.shuffle(edges)
            cls = classify_block(block._replace(edges=tuple(edges)))
            assert (cls.kind, cls.hubs) == (expected.kind, expected.hubs)
            if cls.kind == "INTRACTABLE":
                assert _is_frustrated_cycle(cls.witness, block)
                assert _is_frustrated_cycle(expected.witness, block)
            elif len(block.edges) == 3 and cls.kind == "BR":
                side = dict(zip(block.vertices, cls.sides))
                assert side[edges[0][0]] == 0
                assert cls.sides in (expected.sides, tuple(1 - x for x in expected.sides))
            else:
                assert cls.sides == expected.sides
    assert kinds == {"BR", "T", "U", "INTRACTABLE"}


def test_hub_classes_colour_the_star_on_t():
    """A T or U class's `sides` give 0 at hub t and 1 across each repulsive
    edge to t. On the star on s a T spoke keeps its side and a U spoke's
    flips, so one colouring serves whichever hub the solve leaves free. A
    BR class's `sides` put each repulsive edge across and each associative
    one within a side, the JSON's V1 on side 0 and V2 on side 1; a lone
    vertex and each kind of bridge share one record."""
    lone = classify_block(Block((0,), ()))
    bridge = {sign: classify_block(Block((0, 1), ((0, 1, sign),))) for sign in (ASSOCIATIVE, REPULSIVE)}
    assert (lone.sides, bridge[ASSOCIATIVE].sides, bridge[REPULSIVE].sides) == ((0,), (0, 0), (0, 1))
    assert classify_block(Block((7,), ())) is lone
    rng = np.random.default_rng(59)
    kinds = set()
    for trial in range(200):
        model = random_tractable_model(rng, max_vars=int(rng.integers(3, 12)))
        if trial % 10 == 0:  # a variable in no potential: a lone vertex
            model = Model(model.variables + (("Z", 2),), model.potentials)
        report = classify_model(model)
        doc = report_to_json(report)
        names = report.graph.names
        for block, cls, entry in zip(report.tree.blocks, report.classes, doc["blocks"]):
            if cls.kind == "BR":
                side = dict(zip(block.vertices, cls.sides))
                for u, v, sign in block.edges:
                    assert side[u] ^ side[v] == (sign == REPULSIVE)
                for x, key in enumerate(("V1", "V2")):
                    assert entry["params"][key] == [names[v] for v in block.vertices if side[v] == x]
                if not block.edges:
                    kinds.add("lone")
                    assert cls is lone
                elif len(block.vertices) == 2:
                    kinds.add("bridge")
                    assert cls is bridge[block.edges[0][2]]
                continue
            kinds.add((cls.kind, len(block.vertices) == 3))
            s, t = cls.hubs
            side = dict(zip(block.vertices, cls.sides))
            assert side[t] == 0
            for u, v, sign in block.edges:
                hub = t if t in (u, v) else s
                spoke = v if u == hub else u
                flip = hub == s and spoke != t and cls.kind == "U"
                assert side[spoke] ^ flip == (sign == REPULSIVE)
    assert kinds == {("T", True), ("T", False), ("U", True), ("U", False), "lone", "bridge"}


def test_k4_with_frustrated_triangle_is_intractable():
    edges = [(0, 1, REPULSIVE)] + [
        (u, v, ASSOCIATIVE)
        for u, v in itertools.combinations(range(4), 2)
        if (u, v) != (0, 1)
    ]
    cls = classify_block(Block((0, 1, 2, 3), tuple(edges)))
    assert cls.kind == "INTRACTABLE"


def _attached_in_v2_model():
    """A-C associative; B-C, C-D, D-E and B-E repulsive. The 4-cycle hangs
    off the A-C bridge at C, which the bridge puts on side 0 and the cycle
    in V2: the one case where C-D's form reads the edge's other end."""
    tables = {ASSOCIATIVE: (1.0, 0.0, 0.0, 1.0), REPULSIVE: (0.0, 1.0, 1.0, 0.0)}
    edges = [("A", "C", ASSOCIATIVE)] + [(u, v, REPULSIVE) for u, v in ("BC", "CD", "DE", "BE")]
    return Model(
        tuple((name, 2) for name in "ABCDE"),
        tuple(Potential((u, v), tables[sign]) for u, v, sign in edges),
    )


def test_plan_forms_match_edge_signs():
    """Each edge's form against its sign and the report's JSON, not against
    the code that builds it: a repulsive BR edge (u, v) reads (0, 1) when u
    is in its block's V1 and (1, 0) when in V2; a T base edge reads 01 and a
    U base edge 00."""
    rng = np.random.default_rng(37)
    models = [random_signed_model(rng, n=6) for _ in range(25)]
    models += [random_tractable_model(rng, max_vars=int(rng.integers(3, 12))) for _ in range(25)]
    models.append(_attached_in_v2_model())
    checked = set()
    for model in models:
        report = classify_model(model)
        doc = report_to_json(report)
        names = report.graph.names
        for (u, v, sign), (a, b) in zip(report.graph.edges, enode_forms(report)):
            assert (a == b) == (sign == ASSOCIATIVE)
            ends = {names[u], names[v]}
            # Two vertices share at most one block, so the edge's is the one holding both.
            (entry,) = [e for e in doc["blocks"] if ends <= set(e["vertices"])]
            kind, params = entry["class"], entry["params"]
            if kind == "BR" and sign == REPULSIVE:
                assert (a == 0) == (names[u] in params["V1"])
                checked.add("BR")
            elif kind in ("T", "U") and ends == {params["s"], params["t"]}:
                assert f"{a}{b}" == ("01" if kind == "T" else "00")
                checked.add(kind)
    assert checked == {"BR", "T", "U"}
    doc = report_to_json(classify_model(_attached_in_v2_model()))
    assert "C" in doc["cut_vertices"]
    assert {"vertices": ["B", "C", "D", "E"], "class": "BR",
            "params": {"V1": ["B", "D"], "V2": ["C", "E"]}} in doc["blocks"]
    assert {"edge": ["C", "D"], "form": "10"} in doc["enode_plan"]


def test_report_json_shape():
    rng = np.random.default_rng(41)
    model = random_signed_model(rng, n=5)
    doc = report_to_json(classify_model(model))
    assert set(doc) == {"tractable", "blocks", "enode_plan", "cut_vertices"}
    for entry in doc["blocks"]:
        assert {"vertices", "class", "params"} <= set(entry)
    for entry in doc["enode_plan"]:
        assert set(entry) == {"edge", "form"}
        assert entry["form"] in {"00", "01", "10", "11"}


def test_enode_plan_lists_edges_in_sorted_order():
    """report_to_json lists the enode forms by (u, v), also for a model that
    was never validated and gives its pairs out of order."""
    model = block_chain_model(2)
    report = classify_model(model)
    assert [(u, v) for u, v, _ in report.graph.edges[:2]] == [(0, 2), (0, 1)]
    doc = report_to_json(report)
    edges = [tuple(model.index[x] for x in e["edge"]) for e in doc["enode_plan"]]
    assert edges[:2] == [(0, 1), (0, 2)]
    assert edges == sorted(edges) == sorted((u, v) for u, v, _ in report.graph.edges)


def test_enode_plan_matches_the_sorted_plan():
    """report_to_json's enode_plan against one built from `forms_by_names`,
    ordered by the declaration positions of each edge's two names."""
    rng = np.random.default_rng(53)
    models = [random_signed_model(rng, n=int(rng.integers(4, 11))) for _ in range(40)]
    models += [random_tractable_model(rng, max_vars=int(rng.integers(3, 13))) for _ in range(40)]
    for model in models:
        report = classify_model(model)
        index = model.index
        plan = sorted(forms_by_names(report).items(), key=lambda item: [index[x] for x in item[0]])
        expected = [{"edge": [x, y], "form": f"{a}{b}"} for (x, y), (a, b) in plan]
        assert report_to_json(report)["enode_plan"] == expected


def test_classify_graph_overall_verdict():
    g = sg(4, [(0, 1, REPULSIVE), (1, 2, ASSOCIATIVE), (2, 3, ASSOCIATIVE),
               (0, 3, ASSOCIATIVE)])
    report = classify_graph(g)
    assert not report.tractable
    g2 = sg(3, [(0, 1, REPULSIVE), (1, 2, REPULSIVE), (0, 2, REPULSIVE)])
    assert classify_graph(g2).tractable


# ---------------------------------------------------------------------------
# golden reports: sha256 of the sorted-key JSON report, recorded with the
# first linear-time front end; any change to blocks, classes, witnesses,
# plans or their order shows here.


def _golden_chain(seed, n_blocks):
    from generators import _random_block

    rng = np.random.default_rng(seed)
    edges, base = [], 0
    for _ in range(n_blocks):
        block, used = _random_block(rng, base, 4)
        edges += block
        base += used - 1
    return model_from_signed_edges(base + 1, edges, rng)


def _golden_frustrated(seed):
    rng = np.random.default_rng(seed)
    return random_signed_model(rng, n=10 + 4 * (seed % 5), p=0.18 + 0.04 * (seed % 4))


GOLDEN_CHAIN_REPORTS = (
    "abc1d45f36ebb8dd702ea23bbdc57abca183bb0f5eaa83d8dec68c38f2ef2bd0",
    "60cc8f52cbbad43df14c5ca3da14a70d6635f4a23593422c3c8456e87ed7367d",
    "b561b0d81f61ee840d06f3b9c48b9bc61831f13b2d003ced5bd04b275a591457",
    "9684e64201fae64f5a0cb5926b60e069c6c1b3087ef3b03de053193d0ba9f30e",
    "a948350d99cbc9b5f4ae69571c722f73f30e9bb57f88c96b9290c21b40229c20",
    "a2593163d8bd1f090f98e3a4061a1b2c5290da4769b1c3689b248861814e52f7",
    "4cfb5e8cdc0320226165830c5e2e5bc41f1710b099443e30ce24194dc674744c",
    "87978730e8292ec60ebe4f886a3ead4c5756c906f2a113833d2782c3732ac574",
    "2ce9e33d74d6e791aa2a618a136cf5e7bb847c6341d904ecb0c2be914e5e0abc",
    "100948b511e108779f0e6b9c8bf4988b6dd0048cd4270dda649e0678a0a32f7d",
)
GOLDEN_FRUSTRATED_REPORTS = (
    "8754c947a6f4c91eb1c0b3ea181333f0d219de532e7385f200b6c64db14d85f1",
    "e4df57c4a709471aef4302e1c1b2d76da4c9f610654f2663dcab8b5082e00107",
    "dfc6b7c2084240441efde54dbebacf7ae1e99ff0abdaef2c6ba984e06753f791",
    "5c19711b006e9ab2c34e0b9648ea74075939735ba3a5ac2553df761ee55d5db7",
    "1f2af992acd7a52da7a2fa6fbe9db4d7d0ec9415ff73b5308e86398b2208964e",
    "cac03f289c7a8557295a08071744eea2dbbbfee2d2446de5333086e84d281833",
    "608974f48dbbeedba670da36af87dc923182b0786981bb2ba782122348f5d4db",
    "58f96c6a6c916a94c6f1629065ed3212eceb629f38cf45d5587da4e7a0a0e4a9",
    "b58504c1981d58660792cf6b5b77aa3220fe6bbcb6f4c2a8986435540b654b67",
    "8828b42c354bcec3cf357dfc29d22b0f7e2f8121080634f6726b42f473a787e4",
)


def _report_digest(model):
    doc = report_to_json(classify_model(validate_model(model_to_json(model))))
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("seed", range(10))
def test_report_json_matches_golden_digest(seed):
    assert _report_digest(_golden_chain(seed, 5 + 7 * seed)) == GOLDEN_CHAIN_REPORTS[seed]
    assert _report_digest(_golden_frustrated(seed)) == GOLDEN_FRUSTRATED_REPORTS[seed]


def _large_chain(seed, target_edges):
    """A chain of random tractable blocks of at least `target_edges` edges."""
    from generators import _random_block

    rng = np.random.default_rng(seed)
    edges, base = [], 0
    while len(edges) < target_edges:
        block, used = _random_block(rng, base, 4)
        edges += block
        base += used - 1
    return model_from_signed_edges(base + 1, edges, rng)


def _large_frustrated(seed, n_edges):
    """A sparse random signed graph of average degree 3."""
    rng = np.random.default_rng(seed)
    n = n_edges * 2 // 3
    seen = set()
    while len(seen) < n_edges:
        u, v = map(int, rng.integers(0, n, size=2))
        if u != v:
            seen.add((min(u, v), max(u, v)))
    signs = rng.choice((ASSOCIATIVE, REPULSIVE), size=n_edges).tolist()
    edges = [(u, v, s) for (u, v), s in zip(sorted(seen), signs)]
    return model_from_signed_edges(n, edges, rng)


# The reports of a 10^4-edge chain and a 9,000-edge frustrated graph,
# recorded before the classify path's one-pass colouring and unsorted plan.
GOLDEN_LARGE_REPORTS = (
    "c19d18aad81626ff664e9b4be510c8c8db3dde129cbfa72b6177a8bb7e9c3690",
    "c800555ea9ab3371baf91497c760c1a9278fe21c7687282d0c313fa3c7e7c5bc",
)


def test_large_reports_match_golden_digests():
    models = (_large_chain(11, 10_000), _large_frustrated(12, 9_000))
    for model, expected in zip(models, GOLDEN_LARGE_REPORTS):
        assert _report_digest(model) == expected


def test_large_report_of_unordered_edges_lists_its_plan_sorted():
    """A model that was never validated and lists its pairs shuffled gives
    a signed graph out of (u, v) order; its plan still comes sorted."""
    for model in (_large_chain(11, 10_000), _large_frustrated(12, 9_000)):
        order = np.random.default_rng(13).permutation(len(model.potentials))
        model = model._replace(potentials=tuple(model.potentials[i] for i in order))
        report = classify_model(model)
        edges = [(u, v) for u, v, _ in report.graph.edges]
        assert edges != sorted(edges)
        index = model.index
        plan = sorted(forms_by_names(report).items(), key=lambda item: [index[x] for x in item[0]])
        expected = [{"edge": [x, y], "form": f"{a}{b}"} for (x, y), (a, b) in plan]
        assert report_to_json(report)["enode_plan"] == expected


def test_power_of_two_scaling_changes_no_report():
    """Tables times 2**k, exact in floating point, leave the signs, blocks,
    classes, witnesses and forms of the report as they are."""
    rng = np.random.default_rng(0)
    models = [random_tractable_model(rng, max_vars=9) for _ in range(200)]
    for seed in range(10):
        models += [_golden_chain(seed, 5 + 7 * seed), _golden_frustrated(seed)]
    models += [
        model for model in map(validate_model, _front_end_corpus())
        if all(card == 2 for _, card in model.variables)
        and all(len(p.scope) <= 2 for p in model.potentials)
    ]
    for model in models:
        report = report_to_json(classify_model(model, eps=0))
        for k in (-60, -40, -30, 0, 30, 60):
            assert report_to_json(classify_model(scaled(model, k), eps=0)) == report, k


# ---------------------------------------------------------------------------
# golden front end: sha256 over validate_model's output (variables, scopes,
# tables and potential order) and report_to_json of its classification, on
# raw models that exercise every ordering and merging path of the front end.


def _front_end_pairwise(rng):
    """Raw binary pairwise model: random tractable blocks glued at cut
    vertices, sometimes frustrated extra edges, spread over a larger index
    range so that isolated vertices fall in between, with pairs given in
    either scope order, some split into two tables given in opposite
    orders, and some near-zero-associativity edges that fold away."""
    from generators import _random_block

    nrng = np.random.default_rng(rng.randrange(2**32))
    edges, base = [], 0
    for _ in range(rng.randint(1, 7)):
        block, used = _random_block(nrng, base, 5)
        edges += block
        base += used - 1
    used = base + 1
    for _ in range(rng.choice((0, 0, 2, 5))):
        u, v = rng.sample(range(used), 2)
        if not any({u, v} == {a, b} for a, b, _ in edges):
            edges.append((u, v, rng.choice((ASSOCIATIVE, REPULSIVE))))
    n = used + rng.randint(0, 4)
    where = sorted(rng.sample(range(n), used))
    if rng.random() < 0.5 and where[-1] != n - 1:
        where[rng.randrange(used)] = n - 1  # the last index in an edge
        where.sort()
    names = [f"x{k}" for k in rng.sample(range(100), n)]
    potentials = []
    for i in range(n):
        for _ in range(rng.choice((0, 1, 1, 1, 2))):
            potentials.append({"scope": [names[i]], "table": [rng.uniform(-2, 2), rng.randint(-2, 2)]})
    for u, v, sign in edges:
        u, v = where[u], where[v]
        while True:
            t = [rng.uniform(-2, 2) for _ in range(4)]
            a = t[0] + t[3] - t[1] - t[2]
            if abs(a) > 1e-3:
                break
        if (a > 0) != (sign == ASSOCIATIVE):
            t = [t[1], t[0], t[3], t[2]]
        parts = [t]
        if rng.random() < 0.2:
            d = [rng.uniform(-1, 1) for _ in range(4)]
            parts = [[x - y for x, y in zip(t, d)], d]
        for part in parts:
            if rng.random() < 0.5:
                potentials.append({"scope": [names[u], names[v]], "table": part})
            else:
                swapped = [part[0], part[2], part[1], part[3]]
                potentials.append({"scope": [names[v], names[u]], "table": swapped})
    for _ in range(rng.randint(0, 3)):
        u, v = rng.sample(range(n), 2)
        x, y, z, w = (rng.uniform(-1, 1) for _ in range(4))
        if rng.random() < 0.5:
            t = [x + y, x + z, w + y, w + z]  # separable up to rounding
        else:
            t = [5e-10, 0.0, 0.0, 0.0]
        potentials.append({"scope": [names[u], names[v]], "table": t})
    rng.shuffle(potentials)
    return {"variables": [{"name": nm, "card": 2} for nm in names], "potentials": potentials}


def _front_end_mixed(rng):
    """Raw model with 2- and 3-label variables and scopes of order 1 to 4 in
    any order, some repeated in another order."""
    n = rng.randint(4, 8)
    names = [f"y{k}" for k in rng.sample(range(100), n)]
    cards = {nm: rng.choice((2, 2, 3)) for nm in names}
    potentials, scopes = [], []
    for _ in range(rng.randint(n, 3 * n)):
        if scopes and rng.random() < 0.3:
            scope = list(rng.choice(scopes))
            rng.shuffle(scope)
        else:
            scope = rng.sample(names, rng.choice((1, 1, 2, 2, 2, 3, 4)))
        scopes.append(scope)
        size = math.prod(cards[nm] for nm in scope)
        table = [rng.randint(-3, 3) if rng.random() < 0.2 else rng.uniform(-2, 2) for _ in range(size)]
        potentials.append({"scope": scope, "table": table})
    potentials.append({"scope": [names[0], names[-1]], "table": [1.0] * (cards[names[0]] * cards[names[-1]])})
    potentials.append({"scope": [names[1]], "table": [0.5] * cards[names[1]]})
    return {"variables": [{"name": nm, "card": cards[nm]} for nm in names], "potentials": potentials}


def _front_end_corpus():
    rng = random.Random(20261019)
    for _ in range(120):
        yield _front_end_pairwise(rng)
    for _ in range(40):
        yield _front_end_mixed(rng)


GOLDEN_FRONT_END = "46717a2138d4b3346e28f3573bd62c587a41076669fe317d2b4fcd5398c37889"


def _front_end_digest():
    digest = hashlib.sha256()
    for raw in _front_end_corpus():
        model = validate_model(raw)
        digest.update(repr(model.variables).encode())
        digest.update(repr([(p.scope, p.table) for p in model.potentials]).encode())
        try:
            report = classify_model(model)
        except NotBinaryPairwiseError:
            digest.update(b"not binary pairwise")
            continue
        digest.update(json.dumps(report_to_json(report)).encode())
        forms = dict(zip(report.graph.edges, enode_forms(report)))
        digest.update(repr([(e[:2], forms[e]) for b in report.tree.blocks for e in b.edges]).encode())
    return digest.hexdigest()


def test_front_end_corpus_covers_every_path():
    kinds, orders = set(), set()
    folded = isolated = last = reversed_pairs = repeats = 0
    for raw in _front_end_corpus():
        model = validate_model(raw)
        index = model.index
        orders.update(len(p["scope"]) for p in raw["potentials"])
        scopes = [tuple(sorted(p["scope"], key=index.__getitem__)) for p in raw["potentials"]]
        repeats += len(scopes) - len(set(scopes))
        reversed_pairs += sum(
            1 for p in raw["potentials"]
            if len(p["scope"]) == 2 and index[p["scope"][0]] > index[p["scope"][1]]
        )
        if any(len(s) > 2 for s in scopes) or any(c != 2 for _, c in model.variables):
            continue
        pw = pairwise_view(model)
        folded += len({s for s in scopes if len(s) == 2}) - len(pw.graph.edges)
        report = classify_model(model)
        kinds.update(c.kind for c in report.classes)
        isolated += sum(1 for b in report.tree.blocks if not b.edges)
        last += any(pw.graph.n - 1 in (u, v) for u, v, _ in pw.graph.edges)
    assert orders == {1, 2, 3, 4}
    assert kinds == {"BR", "T", "U", "INTRACTABLE"}
    assert min(folded, isolated, last, reversed_pairs, repeats) > 10


def test_front_end_matches_golden_digest():
    assert _front_end_digest() == GOLDEN_FRONT_END
