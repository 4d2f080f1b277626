"""The MAP pipeline and its two stable-set solvers.

`solve_map` reads the model once through `model.pairwise_view`, which sums
repeated scopes, folds near-zero edges into their ends and lists each kept
edge's table and scale by the edge's position in the signed graph. It
classifies that graph once and solves it region by region with one exact
core, the bipartite MWSS of enodes and snodes as a min cut. Every cycle
lies inside one block, so a connected union of balanced blocks is balanced
(Harary, 1953). A region is a top block, T/U or BR without a parent, with
every BR block below it down to the next T/U block. It pins the top's
attachment cut vertex, if any, then the top's balancing set, which leaves
the rest balanced once fixed: `structure.balancing_set`, which owns the
T/U geometry, gives it and the top's sides. So a tree, a forest or a chain
of BR blocks is one region and one min cut. The regions are solved in the
order of their tops, each after the regions below it. Each edge reaches
its region through its block. Each BR block below the top is flipped to
agree at its attachment, each free edge is rewritten to its single enode
once and its deltas summed into its ends' unaries once, and each labeling
of the pinned vertices adds only its pinned vertices' edge rows before its
one min cut. Each region vertex has one position, its flow node: a
pinned vertex, or one that its unary decides, is an idle node, and any
other vertex's node is its snode. An enode, which conflicts with at most
two snodes, contracts into a source arc and one arc between them
(`_snode_cut`), and its rounding tie is TIE times the region's scale (the
tolerance policy in `model`). A pre-flow cancels each node's terminal
capacities and pushes along the length-3 paths; Dinic's algorithm, with
an explicit path stack and so no recursion limit, completes the flow.
This value pass combines the region maxima, refusing sums past float
range, and closes each kept min cut from both terminals as soon as it is
solved: each cut keeps one mark per position, and a cut that the closures
leave open somewhere also its residual graph. The closed sets of a
residual graph are exactly the optimal cuts (Picard and Queyranne, 1980),
so the decode reads the lexicographically smallest optimal assignment off
these graphs by closure propagation, in time linear in their size,
without solving again.

`solve_map_bnb` runs the other solver, `mwss_branch_bound`, on the
weights and edges that `nmrf.prune` builds once, and reads its assignment
off the stable set: the chosen nodes' labels, and 0 for every variable
they leave unset. It handles small models of any order and labels; its
compile, `build_nmrf`, sums repeated scopes too. Only it loads the `nmrf`
module, when it runs: `solve_map` rewrites each edge itself, with
`model.single_enode`. Each solver returns, as `MapSolution.slack`, the
most its objective may miss the optimum by past `objective_tolerance`:
twice the fold's slack for `solve_map`, the prune's for `solve_map_bnb`.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import (
    InconsistentCompletionError,
    IntractableTopologyError,
    ObjectiveMismatchError,
    TooLargeError,
)
from .model import (
    DEFAULT_EPS,
    TIE,
    TOLERANCE,
    Model,
    PairwiseView,
    _collector_paused,
    energy,
    objective_tolerance,
    pairwise_view,
    single_enode,
)
from .structure import balancing_set, classify_graph

DEFAULT_BNB_CAP = 40


class StableSetSolution(NamedTuple):
    nodes: tuple[int, ...]
    weight: float


class MapSolution(NamedTuple):
    assignment: dict[str, int]
    objective: float
    method: str
    # The most `objective` may miss the optimum by, past objective_tolerance.
    slack: float = 0.0


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
    capacity cap[e], e ^ 1 is its reverse, and head[u] lists u's arcs. A
    residual capacity at most `tie` is a rounding tie: saturated, skipped."""

    def __init__(self, to: list[int], cap: list[float], head: list[list[int]], tie: float):
        self.n = len(head)
        self.to = to
        self.cap = cap
        self.head = head
        self.tie = tie

    def max_flow(self, s, t):
        """Complete the flow to a maximum one by Dinic's algorithm, with an
        explicit path stack in place of recursion. Returns the nodes that s
        then reaches by residual arcs, its closure, found by the last BFS."""
        n, to, cap, head, tie = self.n, self.to, self.cap, self.head, self.tie
        while True:
            # Levels by BFS, up to the sink's: a node no closer to the source
            # than the sink lies on no shortest augmenting path.
            level = [-1] * n
            level[s] = 0
            queue = [s]
            for u in queue:
                below = level[u] + 1
                for eid in head[u]:
                    if cap[eid] > tie:
                        v = to[eid]
                        if level[v] < 0:
                            level[v] = below
                            queue.append(v)
                if level[t] >= 0:
                    break
            else:
                return queue
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
                        if cap[eid] <= tie:
                            u = to[eid ^ 1]
                            del path[k:]
                            break
                    continue
                arcs = head[u]
                below = level[u] + 1
                i, end = it[u], len(arcs)
                while i < end:
                    eid = arcs[i]
                    if cap[eid] > tie and level[to[eid]] == below:
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
        to, cap, head, tie = self.to, self.cap, self.head, self.tie
        back = 0 if mark > 0 else 1
        state[node] = mark
        queue = [node]
        for u in queue:
            for eid in head[u]:
                if cap[eid ^ back] > tie:
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
# regions of the block tree


class _Region:
    """A top block, T/U or BR without a parent, with every BR block below
    it down to the next T/U block: balanced once its pinned vertices are
    fixed, so one min cut per pinned labeling solves it.

    `pinned` holds the top's `attachment`, if any, then its balancing set,
    which `structure.balancing_set` gives. `free` holds the other vertices
    the region's blocks hold without attaching there. `enodes` has the
    single enode of every edge between free vertices, and folds[i] the
    edge rows that pinned[i] adds to the other end of each edge whose first
    pinned end it is, by its label; `mag`, the region's scale, sums its
    edge tables' largest |entry|.
    """

    __slots__ = ("attachment", "pinned", "free", "enodes", "folds", "mag")

    def __init__(self, c: Optional[int], balancing: Sequence[int]):
        self.attachment = c
        self.pinned = [*balancing] if c is None else [c, *balancing]
        self.free: list[int] = []
        self.enodes: list[tuple[int, int, float]] = []
        self.folds: list[list] = [[] for _ in self.pinned]
        self.mag = 0.0


class _Cut:
    """The min cut that solved a region for one labeling of its pinned
    vertices, kept for the decode and closed from both terminals as soon
    as it was solved.

    `state` has one entry per position of the region's vertices (its free
    vertices in `free` order, then its pinned ones), then the source and
    the sink: 1 if the vertex v there takes label side[v] in every optimum
    this cut allows, -1 if it takes the other, 0 while either label still
    gives one. A pinned vertex, and a free one whose unary decides it, is
    an idle node of the network, marked when the cut was solved; `flow`
    holds the residual network whose closures decide the rest, and is
    dropped once no position is 0. `alive` turns false once no optimal
    assignment uses this cut.
    """

    __slots__ = ("state", "side", "flow", "alive")

    def __init__(self, state: list[int], side: list[int], flow: Optional[_Dinic]):
        self.state = state
        self.side = side
        self.flow = flow
        self.alive = True


def _snode_cut(
    weights: Sequence[float], snode: Mapping[int, int], enodes, tie: float
) -> tuple[float, _Dinic, list[int]]:
    """Maximum-weight stable set of a region's snodes and enodes by one min
    cut, on a network with one flow node per position: nodes 0..k-1 for
    the k `weights`, then source k and sink k + 1. A position that is no
    vertex's snode has weight 0 and so no arc: an idle node.

    An snode lies in the stable set when its node is on the sink side, so
    its weight is the arc node -> sink. An enode (u, v, w) conflicts with
    the snodes of u and v, `snode[u]` and `snode[v]`, and is lost when
    either is in: w [u in or v in] = w [u in] + w [u out and v in], that
    is, w on the arc source -> u and an arc u -> v of capacity w
    (Kolmogorov and Zabih, 2004). An end without an snode is never in, so
    an enode with one such end adds w to the other end's source arc, and
    one with two is always chosen; an enode of weight <= `tie`, the
    region's rounding tie, never is. The pre-flow cancels each node's two
    terminal capacities by their minimum, then pushes greedily along each
    path source -> u -> v -> sink; Dinic's algorithm completes the flow.

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
        if w > tie:
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
    head: list = [()] * k + [[], []]  # an idle node, with no arc, holds the shared ()
    for x in snode.values():
        head[x] = []
    for x, y, w in pairs:
        # min(left[x], w, -left[y]); the builtin parses its arguments slowly
        pushed = left[x]
        if w < pushed:
            pushed = w
        if -left[y] < pushed:
            pushed = -left[y]
        if pushed > tie:
            left[x] -= pushed
            left[y] += pushed
        else:
            pushed = 0.0
        head[x].append(len(to))
        head[y].append(len(to) + 1)
        to += (y, x)
        cap += (w - pushed, pushed)
    for x in snode.values():  # an idle node has no arc
        d = excess[x]
        if d > tie:
            head[src].append(len(to))
            head[x].append(len(to) + 1)
            to += (x, src)
            cap += (left[x], d - left[x])
        elif d < -tie:
            head[x].append(len(to))
            head[sink].append(len(to) + 1)
            to += (sink, x)
            cap += (-left[x], left[x] - d)
    flow = _Dinic(to, cap, head, tie)
    state = [0] * (k + 2)
    for x in flow.max_flow(src, sink):
        state[x] = 1
    chosen = [weights[x] for x in snode.values() if not state[x]]
    chosen += (w for x, y, w in ends if state[x] == state[y] == 1)
    return sum(chosen), flow, state


def _block_values(
    region: _Region, u0: list[float], u1: list[float], side: list[int]
) -> list[tuple]:
    """Best value of a region's own terms, and the min cut attaining it,
    for each labeling of its pinned vertices, the top's attachment varying
    slowest: per labeling (value, flow, state) as `_Cut` reads them, with
    the decided positions and only the source closure in `state`.

    u0 and u1 hold each vertex's unary for labels 0 and 1 with its free
    edges' enode deltas and the best values of the regions below it
    already added. A labeling adds its pinned vertices' folds to their
    other ends for the length of its solve, and its balancing set's unaries
    to its value. A free vertex whose unary prefers its side by more than
    TIE times the region's scale takes it in every optimum, as a pinned
    vertex takes its label: its position is marked at once and is an idle
    node, of weight 0. Any other vertex's position is its snode for the
    other label, of weight >= 0 (0 on a tie); it conflicts with the
    vertex's enodes, so enodes and snodes are the sides of one bipartite
    MWSS. `_snode_cut` solves it on a network with one flow node per
    position, each enode contracted into arcs between snodes. A labeling
    without an snode builds no network: it chooses every enode.
    """
    pinned, free, enodes, folds = region.pinned, region.free, region.enodes, region.folds
    c = region.attachment
    tie = TIE * region.mag
    targets = [x for fold in folds for x, _ in fold]
    saved = [(u0[x], u1[x]) for x in targets]
    k = len(free) + len(pinned)
    results = []
    for pins in itertools.product((0, 1), repeat=len(pinned)):
        total = 0.0
        for f, label, fold in zip(pinned, pins, folds):
            if f != c:  # a balancing vertex, its unary with the folds before it
                total += u1[f] if label else u0[f]
            for x, rows in fold:
                a0, a1 = rows[label]
                u0[x] += a0
                u1[x] += a1
        snode: dict[int, int] = {}
        weights = [0.0] * k
        decided = []  # the free positions whose unary decides them
        for i, v in enumerate(free):
            if side[v]:
                on, off = u1[v], u0[v]
            else:
                on, off = u0[v], u1[v]
            total += on
            if on - off > tie:
                decided.append(i)
            else:
                snode[v] = i
                weights[i] = off - on if off >= on else 0.0  # max(off - on, 0.0)
        for x, (w0, w1) in zip(targets, saved):
            u0[x] = w0
            u1[x] = w1
        if snode:
            weight, flow, state = _snode_cut(weights, snode, enodes, tie)
        else:
            weight = sum(w for _, _, w in enodes if w > tie)
            flow, state = None, [0] * k + [1, -1]
        for i in decided:
            state[i] = 1
        for i, v, label in zip(range(len(free), k), pinned, pins):
            state[i] = 1 if label == side[v] else -1
        results.append((total + weight, flow, state))
    return results


def _value_pass(pw: PairwiseView, eps: float):
    """Optimal objective of a pairwise view, and for every region its
    vertices and the cuts of the pinned labelings that attain the region's
    best value for their attachment's label.

    One pass over the blocks, parents first, builds the regions: a BR block
    with a parent joins the region of its parent block (the later block that
    holds its attachment without attaching there), flipped to agree with it at
    the attachment unless that is pinned; any other block is a top, pinned and
    sided by `balancing_set`. Each vertex's `home` is the region of the block
    that holds it without attaching there, and each edge's that of an end its
    block (`tree.edge_block`) holds so. One pass over the view's edges sums
    each region's scale, rewrites each free edge to its single enode, adding
    its deltas to its ends' unaries, and keeps each pinned edge as a fold. The
    regions are then solved in the order of their tops, each finding the best
    values per label of the regions below it in its unaries, and each kept cut
    is closed from the sink at once, its network dropped if that decides every
    position.
    """
    report = classify_graph(pw.graph)
    if not report.tractable:
        witness = next(
            c.witness for c in report.classes if c.kind == "INTRACTABLE"
        )
        names = pw.graph.names
        raise IntractableTopologyError(
            tuple(names[v] for v in witness), report=report
        )
    tree = report.tree
    blocks, classes, attach = tree.blocks, report.classes, tree.attach
    n = len(pw.graph.names)
    home: list = [None] * n  # the region of the block that holds v without attaching there
    regions: list[_Region] = []  # by top block, parents first
    side = [0] * n
    for bi in range(len(blocks) - 1, -1, -1):
        block, cls, c = blocks[bi], classes[bi], attach[bi]
        if not block.edges:  # an isolated vertex
            continue
        if cls.kind == "BR" and c is not None:
            reg = home[c]
            sides = cls.sides
        else:
            balancing, sides = balancing_set(block, cls, c)
            reg = _Region(c, balancing)
            regions.append(reg)
        pinned = reg.pinned
        # Flipped so that c keeps its side, unless c is pinned (its edges fold).
        flip = 0 if c is None or c in pinned else side[c] ^ sides[block.vertices.index(c)]
        for v, x in zip(block.vertices, sides):
            if v != c:
                home[v] = reg
                side[v] = x ^ flip
                if v not in pinned:
                    reg.free.append(v)

    u0, u1 = pw.u0[:], pw.u1[:]
    for (u, v, _), t, scale, bi in zip(pw.graph.edges, pw.tables, pw.scales, tree.edge_block):
        reg = home[v] if u == attach[bi] else home[u]
        reg.mag += scale
        for i, f in enumerate(reg.pinned):
            if f == u or f == v:
                # Folded on behalf of its first pinned end f: rows[label] is
                # what f adds to the other end's unary.
                t00, t01, t10, t11 = t
                if f == u:
                    reg.folds[i].append((v, ((t00, t01), (t10, t11))))
                else:
                    reg.folds[i].append((u, ((t00, t10), (t01, t11))))
                break
        else:
            i = side[u]
            weight, fi, row0, row1 = single_enode(t, i, side[v], eps)
            if i:
                u1[u] += fi
            else:
                u0[u] += fi
            u0[v] += row0
            u1[v] += row1
            reg.enodes.append((u, v, weight))

    total = pw.constant
    for block in blocks:
        if not block.edges:  # an isolated vertex, listed before every region's top
            total += max(u0[block.vertices[0]], u1[block.vertices[0]])
    kept: list[tuple[list[int], list[_Cut]]] = []
    for reg in reversed(regions):
        results = _block_values(reg, u0, u1, side)
        c = reg.attachment
        half = len(results) // 2
        groups = [results] if c is None else [results[:half], results[half:]]
        best = [max(result[0] for result in group) for group in groups]
        if c is None:
            total += best[0]
        else:
            u0[c] += best[0]
            u1[c] += best[1]
        # Labelings within TOLERANCE times the region's scale of the best for
        # their attachment label tie; summed over the regions, these shares
        # stay within objective_tolerance.
        tie = TOLERANCE * reg.mag
        cuts = []
        for group, top in zip(groups, best):
            for value, flow, state in group:
                if value >= top - tie:
                    if flow is not None:
                        flow.close(state, flow.n - 1, -1)
                        if 0 not in state:
                            flow = None
                    cuts.append(_Cut(state, side, flow))
        kept.append((reg.free + reg.pinned, cuts))
    # Past the accepted scale a sum may overflow (see model.py).
    if not math.isfinite(total + sum(reg.mag for reg in regions)):
        raise TooLargeError(
            f"optimum {total!r}: the tables' scale overflows floats, past the 1e300 accepted"
        )
    return total, kept


def _decode(pw: PairwiseView, kept) -> list[int]:
    """Labels of the lexicographically smallest optimal assignment.

    An assignment is optimal iff each region's labeling is optimal for the
    region given its attachment's label: one of the `kept` cuts pins it,
    and its free part is a closed set of that cut's residual graph.
    `possible` has a bit per label that some optimal assignment still gives
    a vertex. `count` counts, per region and position, the live cuts that
    allow the vertex there its side (in the first list) and the other
    label (in the second); `at` lists each vertex's (region, position)
    pairs. A label that no live cut of some region allows leaves the
    vertex. The vertex's other regions then drop the cuts that give it
    that label and close its position to the other side in the rest.
    Regions meet only at cut vertices of a tree, so this arc consistency
    leaves every possible label extendable to an optimum: fixing the
    variables in declaration order, each to 0 while 0 is possible, needs
    no backtracking.
    """
    n = len(pw.graph.names)
    possible = [3] * n
    at: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for ri, (vertices, _) in enumerate(kept):
        for i, v in enumerate(vertices):
            at[v].append((ri, i))
    count: list[tuple[list[int], list[int]]] = []
    queue: list[tuple[int, int, int]] = []

    def exclude(v, label, origin):
        # Every live cut of region `origin` already refuses the label, so
        # only the vertex's other regions have work to do.
        if possible[v] >> label & 1:
            possible[v] ^= 1 << label
            if not possible[v]:
                raise InconsistentCompletionError(
                    f"no optimal label left for {pw.graph.names[v]!r}"
                )
            if origin < 0 or len(at[v]) > 1:
                queue.append((v, label, origin))

    def propagate():
        while queue:
            v, label, origin = queue.pop()
            for ri, i in at[v]:
                if ri == origin:
                    continue
                vertices, cuts = kept[ri]
                side = cuts[0].side
                # The label's offset in `count`, and its mark in a state.
                off = side[v] ^ label
                mark = 1 - 2 * off
                for cut in cuts:
                    if not cut.alive:
                        continue
                    state = cut.state
                    if not state[i]:
                        allow = count[ri][off]
                        for j in cut.flow.close(state, i, -mark):
                            allow[j] -= 1
                            if not allow[j]:
                                u = vertices[j]
                                exclude(u, side[u] ^ off, ri)
                    elif state[i] == mark:
                        cut.alive = False
                        for x, allow in enumerate(count[ri]):
                            refused = 2 * x - 1
                            for j, u in enumerate(vertices):
                                if state[j] != refused:
                                    allow[j] -= 1
                                    if not allow[j]:
                                        exclude(u, side[u] ^ x, ri)

    for ri, (vertices, cuts) in enumerate(kept):
        side = cuts[0].side
        k = len(vertices)
        tally = ([len(cuts)] * k, [len(cuts)] * k)
        for cut in cuts:
            for i, mark in zip(range(k), cut.state):
                if mark:  # +1 refuses the other label, -1 the side
                    tally[mark > 0][i] -= 1
        count.append(tally)
        for x, allow in enumerate(tally):
            for i, v in enumerate(vertices):
                if not allow[i]:
                    exclude(v, side[v] ^ x, ri)
    propagate()
    for v in range(n):
        if not at[v]:  # in no block with edges
            w0, w1 = pw.u0[v], pw.u1[v]
            possible[v] = 2 if w1 - w0 > TIE * max(abs(w0), abs(w1)) else 1
        elif possible[v] == 3:
            exclude(v, 1, -1)
            propagate()
    return [possible[v] >> 1 for v in range(n)]


@_collector_paused
def solve_map(model: Model, eps: float = DEFAULT_EPS) -> MapSolution:
    """Exact MAP inference on a binary pairwise model, region by region.

    The value pass solves each region once per labeling of its pinned
    vertices and keeps those min cuts, closed; the decode reads the
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
    # The fold moves each labeling's energy by at most pw.slack, so the folded
    # optimum may miss the true one by twice that.
    return MapSolution(assignment, objective, "blocks", 2 * pw.slack)


def solve_map_bnb(
    model: Model, eps: float = DEFAULT_EPS, max_nodes: int = DEFAULT_BNB_CAP
) -> MapSolution:
    """MAP by branch and bound on the whole pruned NMRF (any order/labels).

    Its `slack` is the prune's: in each group that no chosen node covers,
    the node that fits the assignment weighs >= 0 and is pruned (a kept one
    would extend the stable set), so the energy exceeds the constants plus
    the stable set's weight by at most the prune's slack."""
    from .nmrf import build_nmrf, prune

    nmrf = build_nmrf(model)
    pruned = prune(nmrf, eps)
    if len(pruned.kept) > max_nodes:
        raise TooLargeError(
            f"pruned NMRF has {len(pruned.kept)} nodes, exceeds cap {max_nodes}"
        )
    sol = mwss_branch_bound(pruned.weights, pruned.edges, max_nodes)
    assignment = dict.fromkeys(model.names, 0)
    for i in sol.nodes:
        node = nmrf.nodes[pruned.kept[i]]
        assignment.update(zip(node.scope, node.assignment))
    objective = energy(model, assignment)
    if abs(objective - nmrf.constant - sol.weight) > objective_tolerance(model) + pruned.slack:
        raise ObjectiveMismatchError(
            f"objective {objective!r} != stable set weight + constants "
            f"{sol.weight + nmrf.constant!r}"
        )
    return MapSolution(assignment, objective, "bnb", pruned.slack)
