"""Signed-topology analysis: blocks, frustration, and tractability classes.

A binary pairwise model is solvable by the stable-set pipeline exactly when
every block of its signed graph is one of three shapes: repulsive-bipartite
(BR), triangles on a repulsive base (T), or mixed triangles on an
associative base (U). Classification runs in linear time and produces a
certificate: a two-colouring (`sides`) with, for T and U, the base edge
(`hubs`), or a witness frustrated cycle; the JSON's `params` follow from
these and exist only in `report_to_json`. `enode_forms` gives each edge its
enode form in a list aligned with `graph.edges`; its two readers,
`report_to_json` and the compiler's `nmrf.compile_pairwise`, build it by
position, and `solve_map` never does. A T/U test runs only on a block with
the 2n - 3 edges of that shape. A balanced block is coloured in one pass
over its edges in the order `block_decompose` lists them; the BFS of
`_bfs_two_color` runs for a frustrated block's witness, or for edges in
another order.
"""

from __future__ import annotations

from array import array
from itertools import compress
from operator import itemgetter, lt
from typing import NamedTuple, Optional

from .model import (
    ASSOCIATIVE,
    DEFAULT_EPS,
    Model,
    REPULSIVE,
    SignedGraph,
    _collector_paused,
    signed_view,
)

_new = tuple.__new__  # a record without the Python-level NamedTuple constructor


class Block(NamedTuple):
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]


class BlockTree(NamedTuple):
    blocks: tuple[Block, ...]
    cut_vertices: frozenset[int]
    # Per block, the cut vertex it shares with its parent block, which comes
    # later; None for each component's last block and each isolated vertex.
    attach: tuple[Optional[int], ...]
    # Each edge's block by position in graph.edges; an array, so no int per block outlives it.
    edge_block: array


class BlockClass(NamedTuple):
    kind: str  # "BR" | "T" | "U" | "INTRACTABLE"
    # Tractable: each vertex's side, by block.vertices; BR: V2 on side 1; T/U: the star on t's.
    sides: Optional[tuple[int, ...]] = None
    hubs: Optional[tuple[int, int]] = None  # T/U: the base edge (s, t), s < t
    witness: Optional[tuple[int, ...]] = None


# The classes of a lone vertex, an associative and a repulsive bridge.
_LONE, _SAME, _ACROSS = (BlockClass("BR", sides) for sides in ((0,), (0, 0), (0, 1)))


class TractabilityReport(NamedTuple):
    tractable: bool
    graph: SignedGraph
    tree: BlockTree
    classes: tuple[BlockClass, ...]


def block_decompose(graph: SignedGraph) -> BlockTree:
    """Split into maximal 2-connected blocks and bridges (iterative lowpoint DFS).

    Isolated vertices come first, in index order, then the blocks with edges
    in the order the DFS closes them, each with its edges from the last
    reached to the first. A block closes at the vertex where it hangs off
    the rest of the DFS tree, its attachment; a component's last block holds
    the DFS root and has none. So every block comes before its parent, and
    the attachments are the cut vertices.
    """
    n = graph.n
    edges = graph.edges
    # Half-edge h of edge h >> 1 runs from ends[h] to ends[h ^ 1]. The
    # half-edges leaving vertex v are adj[v], in edge order; scan[v] is the
    # iterator over them that the DFS resumes at v.
    ends = [x for u, v, _ in edges for x in (u, v)]
    adj: list[list[int]] = [[] for _ in range(n)]
    for h, x in enumerate(ends):
        adj[x].append(h)

    disc = [-1] * n
    low = [0] * n
    scan: list = [None] * n
    tree_edge = [-1] * n
    edges_at = [0] * n  # edge-stack height before each vertex's tree edge
    verts_at = [0] * n  # vertex-stack height before each vertex
    timer = 0
    # The edge ids of the blocks not yet closed, above a bottom entry that
    # keeps every block's start at 1 or more, so one reversed slice reads it.
    edge_stack: list[int] = [-1]
    vert_stack: list[int] = []
    isolated = [_new(Block, ((v,), ())) for v in range(n) if not adj[v]]
    blocks: list[Block] = []
    attach: list[Optional[int]] = []
    edge_block = array("q", [0]) * len(edges)

    for root in range(n):
        if disc[root] != -1 or not adj[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        scan[root] = iter(adj[root])
        stack = [root]
        while stack:
            v = stack[-1]
            pe = tree_edge[v]
            dv = disc[v]
            for h in scan[v]:
                eid = h >> 1
                if eid == pe:
                    continue
                w = ends[h ^ 1]
                dw = disc[w]
                if dw == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    tree_edge[w] = eid
                    edges_at[w] = len(edge_stack)
                    edge_stack.append(eid)
                    verts_at[w] = len(vert_stack)
                    vert_stack.append(w)
                    scan[w] = iter(adj[w])
                    stack.append(w)
                    break
                if dw < dv:
                    edge_stack.append(eid)
                    if dw < low[v]:
                        low[v] = dw
            else:
                stack.pop()
                if not stack:
                    continue
                u = stack[-1]
                lv = low[v]
                if lv < low[u]:
                    low[u] = lv
                if lv >= disc[u]:
                    at = edges_at[v]
                    bi = len(isolated) + len(blocks)
                    if at == len(edge_stack) - 1:  # a bridge, u-v alone
                        vert_stack.pop()
                        eid = edge_stack.pop()
                        edge_block[eid] = bi
                        blocks.append(_new(Block, ((u, v) if u < v else (v, u), (edges[eid],))))
                    else:
                        comp = edge_stack[:at - 1:-1]
                        del edge_stack[at:]
                        for eid in comp:
                            edge_block[eid] = bi
                        at = verts_at[v]
                        verts = vert_stack[at:]
                        del vert_stack[at:]
                        verts.append(u)
                        verts.sort()
                        blocks.append(_new(Block, (tuple(verts), itemgetter(*comp)(edges))))
                    attach.append(u)
        attach[-1] = None

    attached = (None,) * len(isolated) + tuple(attach)
    return BlockTree(tuple(isolated + blocks), frozenset(attached) - {None}, attached, edge_block)


def _signed_two_color(vertices, edges):
    """Color so repulsive edges cross and associative edges do not, with the
    first of `vertices` that an edge meets on side 0, and each vertex that
    no edge meets on side 0 too.

    Returns (side map, None) on success, else (None, conflict cycle as a
    vertex list). Success is equivalent to the absence of frustrated cycles
    and to the BR property. One pass over the edges from the last to the
    first colours a block as `block_decompose` lists it, which meets every
    edge at an end already coloured. Edges in another order, or a conflict,
    fall back to a BFS from each of `vertices` in turn; its parent links
    give the witness.
    """
    if edges:
        side = {edges[-1][0]: 0}
        for u, v, sign in reversed(edges):
            su, sv = side.get(u), side.get(v)
            if su is None:
                if sv is None:
                    break  # out of order
                side[u] = sv ^ (sign == REPULSIVE)
            elif sv is None:
                side[v] = su ^ (sign == REPULSIVE)
            elif su ^ sv != (sign == REPULSIVE):
                break  # frustrated
        else:
            for root in vertices:
                if root in side:
                    if side[root]:
                        side = {v: x ^ 1 for v, x in side.items()}
                    for v in vertices:
                        if v not in side:
                            side[v] = 0
                    return side, None
    return _bfs_two_color(vertices, edges)


def _bfs_two_color(vertices, edges):
    """`_signed_two_color` by a BFS over adjacency lists, from each of
    `vertices` in turn, that records each vertex's parent for the witness."""
    nbr: dict[int, list[tuple[int, int]]] = {v: [] for v in vertices}
    for u, v, s in edges:
        nbr[u].append((v, s))
        nbr[v].append((u, s))
    side: dict[int, int] = {}
    parent: dict[int, Optional[int]] = {}
    for start in vertices:
        if start in side:
            continue
        side[start] = 0
        parent[start] = None
        queue = [start]
        for u in queue:
            su = side[u]
            for w, sign in nbr[u]:
                want = su ^ (1 if sign == REPULSIVE else 0)
                have = side.get(w)
                if have is None:
                    side[w] = want
                    parent[w] = u
                    queue.append(w)
                elif have != want:
                    return None, _conflict_cycle(parent, u, w)
    return side, None


def _conflict_cycle(parent, u, v):
    up = [u]  # u and its ancestors up to the root
    while parent[up[-1]] is not None:
        up.append(parent[up[-1]])
    on_up = set(up)
    down = [v]  # v and its ancestors up to the first one shared with u
    while down[-1] not in on_up:
        down.append(parent[down[-1]])
    lca = down[-1]
    # u ... lca ... v, closed by the conflict edge (v, u)
    return tuple(up[:up.index(lca) + 1] + down[-2::-1])


def classify_block(block: Block) -> BlockClass:
    vertices, edges = block
    n = len(vertices)
    if n == 1:
        return _LONE
    if n == 2:
        return _ACROSS if edges[0][2] == REPULSIVE else _SAME
    start = vertices  # where the two-colouring starts
    if n == 3 and len(edges) == 3:
        rep = [(u, v) for u, v, s in edges if s == REPULSIVE]
        if len(rep) % 2 == 1:
            # Frustrated: a T_{1,0} on the two lowest vertices, or a U_1 off the
            # repulsive edge's lower end; its sides are those of the star on t.
            if len(rep) == 3:
                return _new(BlockClass, ("T", (1, 0, 1), vertices[:2], None))
            v = min(rep[0])
            s, t = sorted(x for x in vertices if x != v)
            sides = tuple([1 if x == v and t in rep[0] else 0 for x in vertices])
            return _new(BlockClass, ("U", sides, (s, t), None))
        start = (edges[0][0], *start)  # a balanced triangle: at its first edge
    elif len(edges) == 2 * n - 3:
        # A base edge plus two legs per spoke: every T and U shape has this
        # many edges. Every T or U shape holds a frustrated triangle, so
        # testing the shape before the two-colouring never hides a BR block.
        hub = _hub_class(vertices, edges)
        if hub is not None:
            return hub
    side, cycle = _signed_two_color(start, edges)
    if side is not None:
        return _new(BlockClass, ("BR", tuple(map(side.__getitem__, vertices)), None, None))
    return BlockClass("INTRACTABLE", witness=cycle)


def _hub_class(vertices, edges) -> Optional[BlockClass]:
    """T or U class of a block of 2n - 3 edges, triangles on one base edge
    (s, t), s < t, its only vertices of degree > 2, or None. Every edge meets
    s or t and every triangle s-x-t is frustrated: with 2n - 3 edges, the
    base edge and one leg from each spoke to each hub all exist. A repulsive
    base makes a T block, each spoke's legs of one sign; an associative one,
    a U block. Its `sides` are those of the star on t, from t's legs.
    """
    degree = dict.fromkeys(vertices, 0)
    for u, v, _ in edges:
        degree[u] += 1
        degree[v] += 1
    hubs = [v for v in vertices if degree[v] > 2]
    if len(hubs) != 2:
        return None
    s, t = hubs
    if s > t:
        s, t = t, s
    to_s: dict[int, int] = {}
    to_t: dict[int, int] = {}
    for u, v, sign in edges:
        if u == s:
            to_s[v] = sign
        elif v == s:
            to_s[u] = sign
        elif u == t:
            to_t[v] = sign
        elif v == t:
            to_t[u] = sign
        else:
            return None  # a spoke-spoke edge
    base = to_t[s] = to_s[t]
    sides = []
    for x in vertices:
        leg = to_t.get(x)  # None at t
        sides.append(1 if leg == REPULSIVE else 0)
        if x != s and x != t and to_s[x] * leg != -base:
            return None  # the triangle s-x-t is not frustrated
    return _new(BlockClass, ("T" if base == REPULSIVE else "U", tuple(sides), (s, t), None))


def balancing_set(block: Block, cls: BlockClass, c: Optional[int]):
    """The vertices of a tractable block that, fixed with its attachment c,
    leave the rest balanced (none for a BR block or at a hub, else hub s),
    and the rest's sides, by `block.vertices`: a T or U block's rest is the
    star on the other hub, on side 0, and on s's star a U spoke flips."""
    if cls.kind == "BR" or c == cls.hubs[0]:
        return (), cls.sides
    s, t = cls.hubs
    if c != t:
        return (s,), cls.sides
    flip = cls.kind == "U"
    return (), tuple(0 if v == s else x ^ flip for v, x in zip(block.vertices, cls.sides))


# An enode form (a, b) by its index 2a + b, shared by every edge.
_FORMS = ((0, 0), (0, 1), (1, 0), (1, 1))


def enode_forms(report: TractabilityReport) -> list[tuple[int, int]]:
    """The enode form (a, b) of every edge, for its ends u < v, aligned with
    `report.graph.edges`; `solve_map` never builds it."""
    tree, classes = report.tree, report.classes
    # Each vertex's side in the BR block that holds it without attaching
    # there; of a repulsive BR edge, at most one end is its block's attachment.
    side = [0] * report.graph.n
    for block, cls, at in zip(tree.blocks, classes, tree.attach):
        if cls.kind == "BR":
            for v, x in zip(block.vertices, cls.sides):
                if v != at:
                    side[v] = x
    forms = []
    for (u, v, sign), bi in zip(report.graph.edges, tree.edge_block):
        cls = classes[bi]
        kind = cls.kind
        if kind == "T" or kind == "U":
            # The base enode (s, t) reads (0, 1) for T and (0, 0) for U. A
            # spoke enode disagrees with it on its hub; its own end then
            # follows from the edge sign.
            s, t = cls.hubs
            if u == s and v == t:
                forms.append(_FORMS[kind == "T"])
                continue
            hub = u if u == s or u == t else v
            v_hub = 0 if hub == t and kind == "T" else 1
            v_spoke = v_hub if sign == ASSOCIATIVE else 1 - v_hub
            forms.append(_FORMS[2 * v_hub + v_spoke if hub == u else 2 * v_spoke + v_hub])
        elif sign == ASSOCIATIVE:
            forms.append(_FORMS[0])
        elif kind == "INTRACTABLE":  # the default form, so diagnostics stay buildable
            forms.append(_FORMS[1])
        elif u == tree.attach[bi]:  # BR: (0, 1), or (1, 0) if u is on side 1
            forms.append(_FORMS[2 - side[v]])
        else:
            forms.append(_FORMS[1 + side[u]])
    return forms


@_collector_paused
def classify_model(model: Model, eps: float = DEFAULT_EPS) -> TractabilityReport:
    """Per-block classification and overall verdict; `enode_forms` builds
    the enode-form plan from the report."""
    graph = signed_view(model, eps)
    return classify_graph(graph)


def classify_graph(graph: SignedGraph) -> TractabilityReport:
    tree = block_decompose(graph)
    classes = tuple(map(classify_block, tree.blocks))
    tractable = all(c.kind != "INTRACTABLE" for c in classes)
    return TractabilityReport(tractable, graph, tree, classes)


_FORM_TEXT = {(0, 0): "00", (0, 1): "01", (1, 0): "10", (1, 1): "11"}
_FLIP = (1).__xor__  # a side to the other side


def _br_params(vertices, cls, names, vnames):
    sides = cls.sides
    return {"V1": list(compress(vnames, map(_FLIP, sides))), "V2": list(compress(vnames, sides))}


def _t_params(vertices, cls, names, vnames):
    s, t = cls.hubs  # s on side 1, t on side 0, each other vertex a spoke
    r = [names[v] for v, x in zip(vertices, cls.sides) if x and v != s]
    a = [names[v] for v, x in zip(vertices, cls.sides) if not x and v != t]
    return {"s": names[s], "t": names[t], "r": r, "a": a, "m": len(r), "n": len(a)}


def _u_params(vertices, cls, names, vnames):
    s, t = cls.hubs
    spokes = [names[v] for v in vertices if v != s and v != t]
    return {"s": names[s], "t": names[t], "v": spokes, "n": len(spokes)}


# The JSON params of each class kind, from its block's vertices, its class,
# the graph's names and the names of the block's vertices.
_PARAMS = {"BR": _br_params, "T": _t_params, "U": _u_params, "INTRACTABLE": lambda *_: {}}


@_collector_paused
def report_to_json(report: TractabilityReport) -> dict:
    """The report as JSON-ready names: each block with its class, params and
    witness, the enode form of every edge, and the cut vertices.

    `enode_plan` lists the edges by (u, v), u < v as in every signed graph
    of a model. The edges of a validated model already come in that order,
    checked in one pass; other edges are sorted first.
    """
    names = report.graph.names
    get = names.__getitem__

    blocks = []
    for (vertices, _), cls in zip(report.tree.blocks, report.classes):
        kind, _, _, witness = cls
        vnames = list(map(get, vertices))
        params = _PARAMS[kind](vertices, cls, names, vnames)
        entry = {"vertices": vnames, "class": kind, "params": params}
        if witness is not None:
            entry["witness"] = list(map(get, witness))
        blocks.append(entry)
    edges = report.graph.edges
    plan = zip(edges, enode_forms(report))
    if not all(map(lt, edges, edges[1:])):
        plan = sorted(plan)
    enode_plan = [
        {"edge": [names[u], names[v]], "form": _FORM_TEXT[form]} for (u, v, _), form in plan
    ]
    return {
        "tractable": report.tractable,
        "blocks": blocks,
        "enode_plan": enode_plan,
        "cut_vertices": [names[v] for v in sorted(report.tree.cut_vertices)],
    }
