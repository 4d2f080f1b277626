"""The MAP pipeline and its two stable-set solvers.

`solve_map` reads the model once through `model.pairwise_view`, which sums
repeated scopes and folds near-zero edges into their ends, classifies the
view's signed graph once and solves every tractable block with one exact
core, the bipartite MWSS of its enodes and snodes as a min cut. It walks
the block tree that `classify_graph` returns in index order, each block
before the block it hangs off. Fixing a block's attachment cut vertex, and
in a T/U block one hub, leaves a BR block, whose sides the classification
already gives (a T/U block's free star is two-coloured here). Its edges are
rewritten to single enodes once and their deltas summed into the free
vertices' unaries once; each labeling of the pinned vertices copies those
sums and adds only its pinned vertices' edge rows before its one min cut.
The cut's network has one flow node per snode: an enode, which conflicts
with at most two snodes, contracts into a source arc and one arc between
them (`_snode_cut`). A pre-flow cancels each node's terminal capacities
and pushes along the length-3 paths; Dinic's algorithm, with an explicit
path stack and so no recursion limit, completes the flow. This value pass
combines the block maxima and keeps the residual graph of each optimal min
cut. The closed sets of a residual graph are exactly the optimal cuts
(Picard and Queyranne, 1980), so the decode reads the lexicographically
smallest optimal assignment off these graphs by closure propagation, in
time linear in their size, without solving again.

`solve_map_bnb` runs the other solver, `mwss_branch_bound`, on the whole
pruned NMRF. It handles small models of any order and labels; its compile,
`build_nmrf`, sums repeated scopes too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .errors import (
    InconsistentCompletionError,
    IntractableTopologyError,
    ObjectiveMismatchError,
    TooLargeError,
)
from .model import DEFAULT_EPS, Model, PairwiseView, energy, pairwise_view
from .nmrf import Nmrf, PrunedNmrf, build_nmrf, prune, single_enode
from .structure import Block, BlockClass, _signed_two_color, classify_graph

DEFAULT_BNB_CAP = 40
# Objective error allowed per unit of table magnitude (see objective_tolerance).
TOLERANCE = 1e-9
# Capacities and unary gaps at most this are float-rounding ties: max flow
# saturates such arcs, residual closures skip them, and a block vertex or an
# isolated vertex whose label preference is this small stays free to decode.
_FLOW_EPS = 1e-12


@dataclass(frozen=True)
class StableSetSolution:
    nodes: tuple[int, ...]
    weight: float


@dataclass(frozen=True)
class MapSolution:
    assignment: dict[str, int]
    objective: float
    method: str


def _magnitude(tables) -> float:
    return sum(max(map(abs, t)) for t in tables)


def objective_tolerance(model: Model) -> float:
    """Largest accepted gap between a returned objective and the optimum:
    TOLERANCE times the sum of each table's largest |entry|, or TOLERANCE
    if that sum is below 1."""
    return TOLERANCE * max(1.0, _magnitude(p.table for p in model.potentials))


def map_solution_to_json(sol: MapSolution) -> dict:
    return {
        "assignment": dict(sol.assignment),
        "objective": sol.objective,
        "method": sol.method,
    }


# ---------------------------------------------------------------------------
# max flow and residual closures


class _Dinic:
    """A flow network as paired arcs: arc e runs to to[e] with residual
    capacity cap[e], e ^ 1 is its reverse, and head[u] lists u's arcs."""

    def __init__(self, to: list[int], cap: list[float], head: list[list[int]]):
        self.n = len(head)
        self.to = to
        self.cap = cap
        self.head = head

    def max_flow(self, s, t):
        """Complete the flow to a maximum one by Dinic's algorithm, with an
        explicit path stack in place of recursion."""
        n, to, cap, head = self.n, self.to, self.cap, self.head
        while True:
            # Levels by BFS, up to the sink's: a node no closer to the source
            # than the sink lies on no shortest augmenting path.
            level = [-1] * n
            level[s] = 0
            queue = [s]
            for u in queue:
                below = level[u] + 1
                for eid in head[u]:
                    if cap[eid] > _FLOW_EPS:
                        v = to[eid]
                        if level[v] < 0:
                            level[v] = below
                            queue.append(v)
                if level[t] >= 0:
                    break
            else:
                return
            # Blocking flow: advance along the current arc it[u] of each
            # node on the path, retreat from dead ends.
            it = [0] * n
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    pushed = cap[path[0]]  # their minimum, without the slow builtin
                    for eid in path:
                        if cap[eid] < pushed:
                            pushed = cap[eid]
                    for eid in path:
                        cap[eid] -= pushed
                        cap[eid ^ 1] += pushed
                    # Resume at the tail of the first arc it saturated.
                    for k, eid in enumerate(path):
                        if cap[eid] <= _FLOW_EPS:
                            u = to[eid ^ 1]
                            del path[k:]
                            break
                    continue
                arcs = head[u]
                below = level[u] + 1
                i, end = it[u], len(arcs)
                while i < end:
                    eid = arcs[i]
                    if cap[eid] > _FLOW_EPS and level[to[eid]] == below:
                        break
                    i += 1
                it[u] = i
                if i < end:
                    path.append(eid)
                    u = to[eid]
                elif u == s:
                    break
                else:
                    u = to[path.pop() ^ 1]
                    it[u] += 1

    def close(self, state, node, mark):
        """Put `node` on side `mark` (1 source, -1 sink) in `state`, with
        every node the residual arcs force there too: all it reaches on the
        source side, all that reach it on the sink side. Returns the nodes
        newly placed. Each closed set of the residual graph is one min cut.
        """
        to, cap, head = self.to, self.cap, self.head
        back = 0 if mark > 0 else 1
        state[node] = mark
        queue = [node]
        for u in queue:
            for eid in head[u]:
                if cap[eid ^ back] > _FLOW_EPS:
                    v = to[eid]
                    if state[v] == 0:
                        state[v] = mark
                        queue.append(v)
                    elif state[v] != mark:
                        raise InconsistentCompletionError(
                            f"residual arc forces flow node {v} to both sides"
                        )
        return queue


# ---------------------------------------------------------------------------
# general exact solver


def mwss_branch_bound(
    weights: Sequence[float], edges, max_nodes: int = DEFAULT_BNB_CAP
) -> StableSetSolution:
    """Exact MWSS by branch and bound on the max-degree vertex."""
    n = len(weights)
    if n > max_nodes:
        raise TooLargeError(f"{n} nodes exceeds branch-and-bound cap {max_nodes}")
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    best_weight = -1.0
    best_mask = 0

    def remaining_weight(mask):
        total = 0.0
        while mask:
            lsb = mask & -mask
            total += weights[lsb.bit_length() - 1]
            mask ^= lsb
        return total

    stack = [((1 << n) - 1, 0, 0.0)]
    while stack:
        mask, taken, cur = stack.pop()
        # absorb isolated vertices of the remaining subgraph
        m = mask
        while m:
            lsb = m & -m
            i = lsb.bit_length() - 1
            m ^= lsb
            if adj[i] & mask == 0:
                taken |= lsb
                cur += weights[i]
                mask ^= lsb
        if mask == 0:
            if cur > best_weight:
                best_weight = cur
                best_mask = taken
            continue
        if cur + remaining_weight(mask) <= best_weight:
            continue
        # branch on the max-degree vertex (ties to the lowest id)
        branch, branch_deg = -1, -1
        m = mask
        while m:
            lsb = m & -m
            i = lsb.bit_length() - 1
            m ^= lsb
            d = (adj[i] & mask).bit_count()
            if d > branch_deg:
                branch, branch_deg = i, d
        bbit = 1 << branch
        stack.append((mask ^ bbit, taken, cur))  # exclude
        stack.append(
            (mask & ~(adj[branch] | bbit), taken | bbit, cur + weights[branch])
        )  # include

    chosen = tuple(i for i in range(n) if best_mask >> i & 1)
    return StableSetSolution(chosen, sum(weights[i] for i in chosen))


# ---------------------------------------------------------------------------
# completion and decoding


def mmwss_complete(pruned: PrunedNmrf, base: StableSetSolution) -> StableSetSolution:
    """Extend a MWSS of the pruned graph to one node per clique group."""
    nodes = pruned.base.nodes
    assignment: dict[str, int] = {}
    represented: set[tuple[str, ...]] = set()
    selected = list(base.nodes)
    for nid in selected:
        node = nodes[nid]
        represented.add(node.scope)
        assignment.update(node.assignment_map())
    for scope, ids in pruned.base.groups.items():
        if scope in represented:
            continue
        for nid in ids:
            node = nodes[nid]
            if all(
                assignment.get(name, val) == val
                for name, val in zip(scope, node.assignment)
            ):
                selected.append(nid)
                represented.add(scope)
                assignment.update(node.assignment_map())
                break
        else:
            raise InconsistentCompletionError(f"no consistent node for group {scope}")
    selected.sort()
    return StableSetSolution(tuple(selected), sum(nodes[i].weight for i in selected))


def decode_map(mmwss: StableSetSolution, nmrf: Nmrf, model: Model) -> MapSolution:
    """Read the MAP assignment off the singleton nodes and check that their
    energy matches the stable set's weight within `objective_tolerance`."""
    assignment: dict[str, int] = {}
    for nid in mmwss.nodes:
        node = nmrf.nodes[nid]
        if len(node.scope) == 1:
            assignment[node.scope[0]] = node.assignment[0]
    missing = [name for name, _ in model.variables if name not in assignment]
    if missing:
        raise InconsistentCompletionError(f"no singleton node selected for {missing}")
    objective = energy(model, assignment)
    reconstructed = mmwss.weight + nmrf.constant
    if abs(objective - reconstructed) > objective_tolerance(model):
        raise ObjectiveMismatchError(
            f"objective {objective!r} != weight+constants {reconstructed!r}"
        )
    return MapSolution(assignment, objective, "decode")


# ---------------------------------------------------------------------------
# block-tree conditioning


@dataclass
class _Cut:
    """The min cut that solved a block for one labeling of its pinned
    vertices, kept for the decode.

    A free vertex in `snode` takes label side[v] while its snode lies on the
    source side and the other label on the sink side; every other vertex of
    the block has its label in `labels`. `state` holds, per flow node, the
    side (1 source, -1 sink) that every optimal cut still allowed puts it
    on, 0 while both remain: the value pass leaves the source closure in
    it, the decode adds the sink closure. `alive` turns false once no
    optimal assignment uses this cut.
    """

    labels: dict[int, int]
    snode: dict[int, int]  # vertex -> flow node of its snode
    vertex: list[int]  # snode -> its vertex
    side: dict[int, int]
    flow: _Dinic
    state: list[int]
    alive: bool = True

    def allowed(self, v: int) -> tuple[int, ...]:
        node = self.snode.get(v)
        if node is None:
            return (self.labels[v],)
        mark = self.state[node]
        if not mark:
            return (0, 1)
        return (self.side[v] if mark > 0 else 1 - self.side[v],)


def _snode_cut(
    weights: Sequence[float], snode: Mapping[int, int], enodes
) -> tuple[float, _Dinic, list[int]]:
    """Maximum-weight stable set of a block's snodes and enodes by one min
    cut, on a network with one flow node per snode: nodes 0..k-1 for the
    k `weights`, then source k and sink k + 1.

    An snode lies in the stable set when its node is on the sink side, so
    its weight is the arc node -> sink. An enode (u, v, w) conflicts with
    the snodes of u and v, `snode[u]` and `snode[v]`, and is lost when
    either is in: w [u in or v in] = w [u in] + w [u out and v in], that
    is, w on the arc source -> u and an arc u -> v of capacity w
    (Kolmogorov and Zabih, 2004). An end without an snode is never in, so
    an enode with one such end adds w to the other end's source arc, and
    one with two is always chosen; an enode of weight <= _FLOW_EPS never
    is. The pre-flow cancels each node's two terminal capacities by their
    minimum, then pushes greedily along each path source -> u -> v -> sink;
    Dinic's algorithm completes the flow.

    Returns the stable set's weight, summed over the chosen snodes and
    then the chosen enodes in order; the residual network, whose closed
    sets are the optimal cuts; and its source closure (1 on the source
    side, 0 elsewhere), whose complement is the stable set.
    """
    k = len(weights)
    src, sink = k, k + 1
    gain = [0.0] * k  # capacity of source -> x
    pairs = []
    # The flow nodes of each enode's ends, the source for an end without
    # an snode, which is never in.
    ends = []
    for u, v, w in enodes:
        if w > _FLOW_EPS:
            x, y = snode.get(u, src), snode.get(v, src)
            ends.append((x, y, w))
            if x == src:
                if y == src:
                    continue
                x, y = y, src
            gain[x] += w
            if y != src:
                pairs.append((x, y, w))
    # Pre-flow: each node's terminal capacities cancel, leaving left[x] > 0
    # from the source or < 0 to the sink, then push along each path source
    # -> x -> y -> sink while both ends have some left. Arc e runs to to[e];
    # e ^ 1 is its reverse, whose residual capacity is the flow on e.
    excess = [g - w for g, w in zip(gain, weights)]
    left = list(excess)
    to: list[int] = []
    cap: list[float] = []
    head: list[list[int]] = [[] for _ in range(k + 2)]
    for x, y, w in pairs:
        # min(left[x], w, -left[y]); the builtin parses its arguments slowly
        pushed = left[x]
        if w < pushed:
            pushed = w
        if -left[y] < pushed:
            pushed = -left[y]
        if pushed > _FLOW_EPS:
            left[x] -= pushed
            left[y] += pushed
        else:
            pushed = 0.0
        head[x].append(len(to))
        head[y].append(len(to) + 1)
        to += (y, x)
        cap += (w - pushed, pushed)
    for x, d in enumerate(excess):
        if d > _FLOW_EPS:
            head[src].append(len(to))
            head[x].append(len(to) + 1)
            to += (x, src)
            cap += (left[x], d - left[x])
        elif d < -_FLOW_EPS:
            head[x].append(len(to))
            head[sink].append(len(to) + 1)
            to += (sink, x)
            cap += (-left[x], left[x] - d)
    flow = _Dinic(to, cap, head)
    flow.max_flow(src, sink)
    state = [0] * (k + 2)
    flow.close(state, src, 1)
    chosen = [w for x, w in enumerate(weights) if not state[x]]
    chosen += (w for x, y, w in ends if state[x] == state[y] == 1)
    return sum(chosen), flow, state


def _block_values(
    pw: PairwiseView,
    block: Block,
    cls: BlockClass,
    parent: Optional[int],
    unary: Mapping[int, tuple[float, float]],
    eps: float,
) -> tuple[list[tuple[float, _Cut]], float]:
    """Best value of a block's own terms, and the min cut attaining it, for
    each labeling of its pinned vertices: the parent cut vertex, if any, and
    in a T/U block hub s unless the parent is a hub. What is left is BR.
    The parent's label varies slowest. Also returns the block's tie share,
    TOLERANCE times the `_magnitude` of its edge tables, within which two
    labelings of one parent label count as equally good; only a pinned hub
    gives a parent label two labelings, so without one the share is 0.0.

    A BR block keeps the sides its classification gave it; the free part of
    a T/U block, a star, is two-coloured here. Each free edge (u, v) is
    rewritten once to the single enode (side[u], side[v]), and its deltas
    are added once to the free vertices' own unaries; a pinned labeling
    copies those sums and adds only its pinned vertices' edge rows. A free
    vertex whose unary prefers its side by more than _FLOW_EPS takes it in
    every optimum and needs no node. Any other vertex gets an snode for the
    other label, of weight >= 0 (0 on a tie), numbered in vertex order; it
    conflicts with the vertex's enodes, so enodes and snodes are the sides
    of one bipartite MWSS. `_snode_cut` solves it on a network with one
    flow node per snode, each enode contracted into arcs between them.
    """
    pinned = [] if parent is None else [parent]
    if cls.kind == "BR":
        side = dict.fromkeys(cls.params["V1"], 0)
        side.update(dict.fromkeys(cls.params["V2"], 1))
    else:
        if parent not in (cls.params["s"], cls.params["t"]):
            pinned.append(cls.params["s"])
        side, _ = _signed_two_color(
            [v for v in block.vertices if v not in pinned],
            [e for e in block.edges if e[0] not in pinned and e[1] not in pinned],
        )
    # Own unaries plus enode deltas, of every vertex but the parent.
    base = {v: unary.get(v, (0.0, 0.0)) for v in block.vertices if v != parent}
    # An edge at a pinned vertex folds into its other end x, on behalf of its
    # first end in `pinned`: add[label] is what it adds to x's unary.
    folds = [[] for _ in pinned]
    enodes = []
    for u, v, _ in block.edges:
        t = pw.edges[(u, v)]
        if u in pinned or v in pinned:
            for i, f in enumerate(pinned):
                if f == u:
                    folds[i].append((v, ((t[0], t[1]), (t[2], t[3]))))
                    break
                if f == v:
                    folds[i].append((u, ((t[0], t[2]), (t[1], t[3]))))
                    break
        else:
            i = side[u]
            weight, fi, row0, row1 = single_enode(t, i, side[v], eps)
            w0, w1 = base[u]
            base[u] = (w0 + fi, w1) if i == 0 else (w0, w1 + fi)
            w0, w1 = base[v]
            base[v] = (w0 + row0, w1 + row1)
            enodes.append((u, v, weight))
    results = []
    for pins in itertools.product((0, 1), repeat=len(pinned)):
        acc = dict(base)
        total = 0.0
        for f, label, fold in zip(pinned, pins, folds):
            total += acc.pop(f, (0.0, 0.0))[label]
            for x, add in fold:
                w0, w1 = acc[x]
                a0, a1 = add[label]
                acc[x] = (w0 + a0, w1 + a1)
        weights: list[float] = []
        labels = dict(zip(pinned, pins))
        snode: dict[int, int] = {}
        for v, w in acc.items():
            on, off = w[side[v]], w[1 - side[v]]
            total += on
            if on - off > _FLOW_EPS:
                labels[v] = side[v]
            else:
                snode[v] = len(weights)
                weights.append(off - on if off >= on else 0.0)  # max(off - on, 0.0)
        weight, flow, state = _snode_cut(weights, snode, enodes)
        results.append(
            (total + weight, _Cut(labels, snode, list(snode), side, flow, state))
        )
    if len(pinned) > (parent is not None):  # a pinned hub
        return results, TOLERANCE * _magnitude(pw.edges[(u, v)] for u, v, _ in block.edges)
    return results, 0.0


def _value_pass(pw: PairwiseView, eps: float):
    """Optimal objective of a pairwise view, and for every block
    with edges its vertices and the cuts of the pinned labelings that attain
    the block's best value for their parent label."""
    report = classify_graph(pw.graph)
    if not report.tractable:
        witness = next(
            c.witness for c in report.classes if c.kind == "INTRACTABLE"
        )
        names = pw.graph.names
        raise IntractableTopologyError(
            tuple(names[v] for v in witness), report=report
        )
    # Blocks come before their parents: a solved block adds its best value
    # per label to its attachment vertex's unary before the parent is solved.
    unary = dict(pw.singles)
    total = pw.constant
    kept: list[tuple[tuple[int, ...], list[_Cut]]] = []
    tree = report.tree
    for block, cls, c in zip(tree.blocks, report.classes, tree.attach):
        if not block.edges:  # an isolated vertex
            total += max(unary.get(block.vertices[0], (0.0, 0.0)))
            continue
        results, tie = _block_values(pw, block, cls, c, unary, eps)
        half = len(results) // 2
        groups = [results] if c is None else [results[:half], results[half:]]
        best = [max(value for value, _ in group) for group in groups]
        if c is None:
            total += best[0]
        else:
            u0, u1 = unary.get(c, (0.0, 0.0))
            unary[c] = (u0 + best[0], u1 + best[1])
        # `tie` is this block's share of the objective tolerance; summed over
        # the blocks it stays within objective_tolerance.
        cuts = [
            cut
            for group, top in zip(groups, best)
            for value, cut in group
            if value >= top - tie
        ]
        kept.append((block.vertices, cuts))
    return total, kept


def _decode(pw: PairwiseView, kept) -> list[int]:
    """Labels of the lexicographically smallest optimal assignment.

    An assignment is optimal iff each block's labeling is optimal for the
    block given its parent label: one of the `kept` cuts pins it, and its
    free part is a closed set of that cut's residual graph. `possible` has
    a bit per label that some optimal assignment still gives a vertex;
    `count` counts, per block, vertex and label, the live cuts allowing it.
    A label that no live cut of some block allows leaves the vertex. The
    vertex's other blocks then drop the cuts that give it that label and
    close its snode to the other side in the rest. Blocks meet only at cut
    vertices of a tree, so this arc consistency leaves every possible label
    extendable to an optimum: fixing the variables in declaration order,
    each to 0 while 0 is possible, needs no backtracking.
    """
    n = len(pw.graph.names)
    possible = [3] * n
    blocks_at: dict[int, list[int]] = {}
    count: list[dict[int, list[int]]] = []
    queue: list[tuple[int, int]] = []

    def exclude(v, label):
        if possible[v] >> label & 1:
            possible[v] ^= 1 << label
            if not possible[v]:
                raise InconsistentCompletionError(
                    f"no optimal label left for {pw.graph.names[v]!r}"
                )
            queue.append((v, label))

    def lose(bi, v, label):
        tally = count[bi][v]
        tally[label] -= 1
        if not tally[label]:
            exclude(v, label)

    def propagate():
        while queue:
            v, label = queue.pop()
            for bi in blocks_at[v]:
                vertices, cuts = kept[bi]
                for cut in cuts:
                    if not cut.alive:
                        continue
                    node = cut.snode.get(v)
                    if node is not None and not cut.state[node]:
                        mark = 1 if cut.side[v] != label else -1
                        for w in cut.flow.close(cut.state, node, mark):
                            u = cut.vertex[w]
                            lose(bi, u, cut.side[u] ^ (mark > 0))
                    elif cut.allowed(v) == (label,):
                        cut.alive = False
                        for u in vertices:
                            for other in cut.allowed(u):
                                lose(bi, u, other)

    for bi, (vertices, cuts) in enumerate(kept):
        tally = {v: [0, 0] for v in vertices}
        for cut in cuts:
            cut.flow.close(cut.state, cut.flow.n - 1, -1)  # sink
            for v in vertices:
                for label in cut.allowed(v):
                    tally[v][label] += 1
        count.append(tally)
        for v in vertices:
            blocks_at.setdefault(v, []).append(bi)
            for label in (0, 1):
                if not tally[v][label]:
                    exclude(v, label)
    propagate()
    for v in range(n):
        if v not in blocks_at:  # in no block with edges
            w0, w1 = pw.singles.get(v, (0.0, 0.0))
            possible[v] = 2 if w1 - w0 > _FLOW_EPS else 1
        elif possible[v] == 3:
            exclude(v, 1)
            propagate()
    return [possible[v] >> 1 for v in range(n)]


def solve_map(model: Model, eps: float = DEFAULT_EPS) -> MapSolution:
    """Exact MAP inference on a binary pairwise model, block by block.

    The value pass solves each block once per labeling of its pinned
    vertices and keeps those min cuts' residual graphs; the decode reads the
    lexicographically smallest optimal assignment off them. Its energy must
    match the optimum within `objective_tolerance`.
    """
    pw = pairwise_view(model, eps)
    best, kept = _value_pass(pw, eps)
    assignment = dict(zip(pw.graph.names, _decode(pw, kept)))
    objective = energy(model, assignment)
    # objective_tolerance, >= TOLERANCE, reads every table: only a gap > TOLERANCE needs it.
    gap = abs(objective - best)
    if gap > TOLERANCE + pw.slack and gap > objective_tolerance(model) + pw.slack:
        raise ObjectiveMismatchError(
            f"decoded objective {objective!r} != optimum {best!r}"
        )
    return MapSolution(assignment, objective, "blocks")


def solve_map_bnb(
    model: Model, eps: float = DEFAULT_EPS, max_nodes: int = DEFAULT_BNB_CAP
) -> MapSolution:
    """MAP by branch and bound on the whole pruned NMRF (any order/labels)."""
    nmrf = build_nmrf(model)
    pruned = prune(nmrf, eps)
    weights, edges, kept = pruned.subgraph()
    if len(weights) > max_nodes:
        raise TooLargeError(
            f"pruned NMRF has {len(weights)} nodes, exceeds cap {max_nodes}"
        )
    sol = mwss_branch_bound(weights, edges, max_nodes)
    base = StableSetSolution(tuple(kept[i] for i in sol.nodes), sol.weight)
    full = mmwss_complete(pruned, base)
    decoded = decode_map(full, nmrf, model)
    return MapSolution(decoded.assignment, decoded.objective, "bnb")
