"""Code that only the tests call: a variable flip, a scope lookup, a
power-of-two rescaling, the exhaustive stable-set oracle, a random BR
model, two random stable-set instances, the conflict rule of the NMRF
and a binary pairwise model's summed columns, both used as oracles apart
from the code they check, the enode rewrite that `compile` once ran before
`build_nmrf`, kept as the reference of its pruned graph, an induced odd
cycle check of a perfection witness, and an order-5 table that only the
feasibility LP refuses."""

import itertools
from typing import Iterable

import numpy as np

from generators import model_from_signed_edges
from nmrfmap.errors import NotBinaryPairwiseError, TooLargeError, UnknownVariableError
from nmrfmap.model import (
    ASSOCIATIVE,
    DEFAULT_EPS,
    REPULSIVE,
    Model,
    Potential,
    is_binary_pairwise,
    single_enode,
    table_index,
)
from nmrfmap.mwss import StableSetSolution
from nmrfmap.nmrf import NmrfNode
from nmrfmap.structure import classify_model, enode_forms

BRUTE_NODES = 24  # the cap of `brute_force_mwss`


def flip_variables(model: Model, flip: Iterable[str]) -> Model:
    """Replace each X in `flip` by 1 - X, permuting tables to preserve energy."""
    if not is_binary_pairwise(model):
        raise NotBinaryPairwiseError("model must be binary pairwise")
    flip_set = set(flip)
    for name in flip_set:
        if name not in model.index:
            raise UnknownVariableError(name)
    potentials = []
    for p in model.potentials:
        mask = [name in flip_set for name in p.scope]
        if not any(mask):
            potentials.append(p)
            continue
        cards = [2] * len(p.scope)
        table = [0.0] * len(p.table)
        for vals in itertools.product((0, 1), repeat=len(p.scope)):
            src = [1 - v if m else v for v, m in zip(vals, mask)]
            table[table_index(cards, vals)] = p.table[table_index(cards, src)]
        potentials.append(Potential(p.scope, tuple(table)))
    return Model(model.variables, tuple(potentials))


def potential_for(model: Model, scope: Iterable[str]) -> Potential | None:
    key = frozenset(scope)
    for p in model.potentials:
        if frozenset(p.scope) == key:
            return p
    return None


def scaled(model: Model, k: int) -> Model:
    """Every table times 2**k, which is exact in floating point."""
    factor = 2.0**k
    return Model(
        model.variables,
        tuple(Potential(p.scope, tuple(factor * x for x in p.table)) for p in model.potentials),
    )


def brute_force_mwss(weights, edges) -> StableSetSolution:
    """Exact MWSS by exhaustive subset search with stability pruning."""
    n = len(weights)
    if n > BRUTE_NODES:
        raise TooLargeError(f"{n} nodes exceeds brute-force cap {BRUTE_NODES}")
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    suffix = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]

    best_weight = -1.0
    best_mask = 0
    stack = [(0, 0, 0, 0.0)]  # next index, chosen mask, blocked mask, weight
    while stack:
        i, chosen, blocked, w = stack.pop()
        if w > best_weight:
            best_weight = w
            best_mask = chosen
        if i == n or w + suffix[i] <= best_weight:
            continue
        stack.append((i + 1, chosen, blocked, w))
        if not blocked >> i & 1:
            stack.append((i + 1, chosen | 1 << i, blocked | adj[i], w + weights[i]))
    chosen = tuple(i for i in range(n) if best_mask >> i & 1)
    return StableSetSolution(chosen, sum(weights[i] for i in chosen))


def random_br_model(rng: np.random.Generator, n: int = 6, p: float = 0.5) -> Model:
    """Random BR-structured model: signs follow a hidden bipartition."""
    side = [int(rng.integers(0, 2)) for _ in range(n)]
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                sign = REPULSIVE if side[u] != side[v] else ASSOCIATIVE
                edges.append((u, v, sign))
    return model_from_signed_edges(n, edges, rng)


def random_weighted_graph(rng: np.random.Generator, n: int, p: float = 0.4):
    """(weights, edges) with nonnegative weights."""
    weights = [float(w) for w in rng.uniform(0.0, 5.0, size=n)]
    edges = [
        (u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p
    ]
    return weights, edges


def random_bipartite_graph(rng: np.random.Generator, n: int, p: float = 0.4):
    """(weights, edges, sides) with edges only across sides."""
    sides = [int(rng.integers(0, 2)) for _ in range(n)]
    weights = [float(w) for w in rng.uniform(0.0, 5.0, size=n)]
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if sides[u] != sides[v] and rng.random() < p
    ]
    return weights, edges, sides


def nodes_conflict(a: NmrfNode, b: NmrfNode) -> bool:
    """True iff the nodes disagree on a shared variable; two nodes of one
    clique group differ in their assignment, so they always do."""
    if a is b:
        return False
    bmap = b.assignment_map()
    for name, val in zip(a.scope, a.assignment):
        other = bmap.get(name)
        if other is not None and other != val:
            return True
    return False


def forms_by_names(report) -> dict[tuple[str, str], tuple[int, int]]:
    """Each edge's enode form from `enode_forms`, keyed by its two names in
    declaration order."""
    names = report.graph.names
    return {(names[u], names[v]): form for (u, v, _), form in zip(report.graph.edges, enode_forms(report))}


def summed_pairwise(model: Model):
    """Flat lists (u0, u1, us, vs, tables) of a binary pairwise model, read
    off its potentials apart from the package's columns: each variable's
    unaries for labels 0 and 1, summed left to right, a lone one stored as
    given, and each pair table over (us[k], vs[k]), us[k] < vs[k], in the
    order the scopes first appear, a repeat in either order summed in, left
    to right. Raises NotBinaryPairwiseError as `pairwise_view` does."""
    if not {card for _, card in model.variables} <= {2}:
        raise NotBinaryPairwiseError("model must be binary pairwise")
    index = model.index
    n = len(index)
    u0, u1 = [0.0] * n, [0.0] * n
    given = [False] * n
    us, vs, tables = [], [], []
    at = {}  # the position in `tables` of pair (u, v)
    for scope, t in model.potentials:
        if len(scope) == 1:
            i = index[scope[0]]
            if given[i]:
                t = (u0[i] + t[0], u1[i] + t[1])
            given[i] = True
            u0[i], u1[i] = t
        elif len(scope) == 2:
            u, v = index[scope[0]], index[scope[1]]
            if u > v:
                u, v, t = v, u, (t[0], t[2], t[1], t[3])
            if (u, v) in at:
                k = at[u, v]
                tables[k] = tuple(a + b for a, b in zip(tables[k], t))
            else:
                at[u, v] = len(tables)
                us.append(u)
                vs.append(v)
                tables.append(t)
        else:
            raise NotBinaryPairwiseError("model must be binary pairwise")
    return u0, u1, us, vs, tables


def enode_rewrite(model: Model, eps: float = DEFAULT_EPS) -> tuple[Model, float]:
    """The model with every edge that its classification plans rewritten to
    its single enode, as `compile` rewrote it before it wrote the pruned
    graph itself, and the constant of the folded edges: the reference that
    `prune(build_nmrf(m))` for the model m, its constant plus the folded
    one, gives `nmrf.compile_pairwise`, and that the golden digests compile.

    The plan is keyed by each edge's two names (`forms_by_names`). The
    tables are summed as `summed_pairwise` sums them, each pair into one
    edge. An edge of |associativity| <= eps is folded here, before any edge
    is rewritten: it leaves the model, its separable part goes to its two
    ends' unaries and its mean to the constant, and the plan must not hold
    it. Every other edge must be in the plan; it is rewritten once, its
    removed mass moved into its ends' unaries, so every configuration keeps
    its energy up to the folded edges' residuals. A model that is not binary
    pairwise raises NotBinaryPairwiseError."""
    names = model.names
    plan = forms_by_names(classify_model(model, eps))
    u0, u1, us, vs, tables = summed_pairwise(model)
    kept = []
    constant = 0.0
    for u, v, t in zip(us, vs, tables):
        t00, t01, t10, t11 = t
        if abs(t00 + t11 - t01 - t10) > eps:
            kept.append((u, v, t))
            continue
        assert (names[u], names[v]) not in plan
        mean = (t00 + t01 + t10 + t11) / 4.0
        u0[u] += (t00 + t01) / 2.0 - mean
        u1[u] += (t10 + t11) / 2.0 - mean
        u0[v] += (t00 + t10) / 2.0 - mean
        u1[v] += (t01 + t11) / 2.0 - mean
        constant += mean
    edges = []
    for u, v, t in kept:
        scope = (names[u], names[v])
        i, j = plan[scope]
        weight, fi, row0, row1 = single_enode(t, i, j, eps)
        table = [0.0] * 4
        table[2 * i + j] = weight
        edges.append(Potential(scope, tuple(table)))
        (u1 if i else u0)[u] += fi
        u0[v] += row0
        u1[v] += row1
    potentials = [Potential((name,), (w0, w1)) for name, w0, w1 in zip(names, u0, u1)] + edges
    return Model(model.variables, tuple(potentials)), constant


def verify_hole(graph, hole):
    """The returned vertex list must be an induced chordless odd cycle."""
    assert len(hole) >= 5 and len(hole) % 2 == 1
    assert len(set(hole)) == len(hole)
    for i, u in enumerate(hole):
        for j in range(i + 1, len(hole)):
            v = hole[j]
            consecutive = j - i == 1 or (i == 0 and j == len(hole) - 1)
            assert (v in graph.adj[u]) == consecutive, (hole, u, v)


def lp_refused_table() -> tuple[float, ...]:
    """f = max(0, s - 2) + max(0, s - 5) with s = A + 3B + 3C + 3D + E, A the
    most significant bit of the index: supermodular, with alternating sum
    0, yet no sum of nonnegative indicators of two or more variables."""
    table = []
    for idx in range(32):
        a, b, c, d, e = ((idx >> (4 - p)) & 1 for p in range(5))
        s = a + 3 * b + 3 * c + 3 * d + e
        table.append(float(max(0, s - 2) + max(0, s - 5)))
    return tuple(table)
