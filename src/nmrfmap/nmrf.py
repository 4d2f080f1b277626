"""Compilation of models to weighted NAND conflict graphs (NMRFs).

Every scope of the model becomes a clique group with one node per assignment,
and a singleton clique group is materialized for every variable even when no
explicit singleton potential exists. One rule gives every conflict, those
inside a group too: two nodes conflict when they set a shared variable to
different values. Weights are normalized so each group's minimum is exactly
zero; the subtracted constants are recorded to rebuild the objective. One
writer builds every graph: all nodes of any model (`build_nmrf`), or a binary
pairwise model's of weight > eps under its enode plan (`compile_pairwise`),
which reads the model through `pairwise_view`, so an edge the view folds
has no group and adds its mean to the constant.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Mapping, NamedTuple, Sequence

from .errors import ModelFormatError, TooLargeError
from .model import (
    DEFAULT_EPS,
    Model,
    _as_floats,
    _reorder_table,
    pairwise_view,
    single_enode,
)
from .structure import TractabilityReport, classify_graph, enode_forms

# Desk scale: each node is a record plus the set of the nodes it conflicts
# with, and each entry of those sets takes about 66 bytes while they are built,
# so the entry cap is about half a gigabyte.
MAX_NODES = 1 << 20
MAX_CONFLICTS = 1 << 23


class NmrfNode(NamedTuple):
    scope: tuple[str, ...]
    assignment: tuple[int, ...]
    weight: float

    def assignment_map(self) -> dict[str, int]:
        return dict(zip(self.scope, self.assignment))


class Nmrf(NamedTuple):
    nodes: tuple[NmrfNode, ...]
    adj: tuple[frozenset[int], ...]
    groups: dict[tuple[str, ...], tuple[int, ...]]
    constant: float


class PrunedNmrf(NamedTuple):
    """The subgraph induced on the nodes of weight > eps, built by `prune`.

    `weights` and `edges` index the kept nodes by position, `edges` as pairs
    i < j; `kept[i]` is position i's node id in `base`. `slack` is the most
    the pruning can cost a stable set: it holds at most one node per clique
    group, so it loses at most the sum over the groups of the largest weight
    pruned from each."""

    base: Nmrf
    kept: tuple[int, ...]
    weights: tuple[float, ...]
    edges: tuple[tuple[int, int], ...]
    slack: float


def build_nmrf(model: Model) -> Nmrf:
    """Compile a model into its normalized NMRF, every node kept. A graph of
    more than MAX_NODES nodes raises TooLargeError, naming the clique group
    that passes the cap, before any node is built."""
    cards = model.cards
    size = 0
    given = itertools.chain(((name,) for name in cards), (p.scope for p in model.potentials))
    for scope in dict.fromkeys(given):
        size += math.prod([cards[n] for n in scope])
        if size > MAX_NODES:
            raise TooLargeError(
                f"clique group {list(scope)} brings the graph to {size} nodes, past the cap {MAX_NODES}"
            )
    # A scope given twice, in any variable order, as only a Model built
    # without validate_model has it, is one clique group over the sum of its
    # tables, taken in the order the scope was first given.
    first: dict[frozenset[str], tuple[str, ...]] = {}
    tables: dict[tuple[str, ...], Sequence[float]] = {}
    for p in model.potentials:
        scope, t = p.scope, p.table
        if len(scope) > 1:
            scope = first.setdefault(frozenset(scope), scope)
            if scope != p.scope:
                t = _reorder_table(p.scope, [cards[n] for n in p.scope], t, scope)
        if scope in tables:
            t = tuple(map(operator.add, tables[scope], t))
        tables[scope] = t
    scopes = [
        ((name,), tables.pop((name,), (0.0,) * card)) for name, card in model.variables
    ]
    scopes += tables.items()
    return _write_nmrf(model, scopes)


def compile_pairwise(model: Model, eps: float = DEFAULT_EPS) -> tuple[Nmrf, TractabilityReport]:
    """A binary pairwise model's `prune(build_nmrf(m), eps)`, renumbered, for its
    enode rewrite m, written in linear time, and its classification;
    NotBinaryPairwiseError for any other model. The model is read once, by
    `pairwise_view`: an edge it folds has no group, its separable part is in
    its ends' unaries and its mean in the constant, as for `solve_map`."""
    pw = pairwise_view(model, eps)
    report = classify_graph(pw.graph)
    names = pw.graph.names
    u0, u1 = pw.u0, pw.u1
    pairs = []
    for (u, v, _), t, (i, j) in zip(pw.graph.edges, pw.tables, enode_forms(report)):
        weight, fi, row0, row1 = single_enode(t, i, j, eps)
        table = [0.0] * 4
        table[2 * i + j] = weight
        (u1 if i else u0)[u] += fi
        u0[v] += row0
        u1[v] += row1
        pairs.append(((names[u], names[v]), table))
    unaries = [((name,), (w0, w1)) for name, w0, w1 in zip(names, u0, u1)]
    nmrf = _write_nmrf(model, unaries + pairs, eps)
    return nmrf._replace(constant=nmrf.constant + pw.constant), report


def _write_nmrf(model: Model, scopes, eps: float = -math.inf) -> Nmrf:
    """The NMRF of the (scope, table) groups `scopes`, sorted here by variable:
    the nodes of weight > eps, each table less its minimum, the minima summed
    to the constant. Past MAX_CONFLICTS conflict-set entries, TooLargeError."""
    index = model.index
    scopes.sort(key=lambda item: tuple(index[n] for n in item[0]))
    nodes: list[NmrfNode] = []
    groups: dict[tuple[str, ...], tuple[int, ...]] = {}
    # Node ids by (variable, value).
    by_value = {name: [[] for _ in range(card)] for name, card in model.variables}
    constant = 0.0
    new = tuple.__new__  # skips the Python-level NamedTuple constructor
    for scope, table in scopes:
        lo = min(table)
        constant += lo
        start = len(nodes)
        # product() runs row-major, last variable fastest, like the table
        for w, vals in zip(table, itertools.product(*(range(len(by_value[n])) for n in scope))):
            w -= lo
            if w > eps:
                for name, val in zip(scope, vals):
                    by_value[name][val].append(len(nodes))
                nodes.append(new(NmrfNode, (scope, vals, w)))
        groups[scope] = tuple(range(start, len(nodes)))
    # Nodes that set a shared variable to different values conflict; two nodes
    # of one group differ on some variable of it, so each group is a clique.
    # A variable's conflict-set entries: the ordered pairs of the nodes that
    # set it, less the pairs that set it alike.
    sizes = [[len(ids) for ids in per_value] for per_value in by_value.values()]
    entries = sum(sum(c) ** 2 - sum(x * x for x in c) for c in sizes)
    if entries > MAX_CONFLICTS:
        raise TooLargeError(
            f"the conflict sets would hold {entries} entries, past the cap {MAX_CONFLICTS}"
        )
    adj: list[set[int]] = [set() for _ in nodes]
    for per_value in by_value.values():
        for val, ids in enumerate(per_value):
            for other, others in enumerate(per_value):
                if other != val:
                    for i in ids:
                        adj[i].update(others)
    return Nmrf(tuple(nodes), tuple(frozenset(s) for s in adj), groups, constant)


def prune(nmrf: Nmrf, eps: float = DEFAULT_EPS) -> PrunedNmrf:
    nodes = nmrf.nodes
    kept = tuple(i for i, node in enumerate(nodes) if node.weight > eps)
    pos = {nid: i for i, nid in enumerate(kept)}
    edges = tuple(
        (i, j)
        for i, nid in enumerate(kept)
        for j in sorted(pos[other] for other in nmrf.adj[nid] if other in pos)
        if i < j
    )
    slack = sum(
        max((nodes[i].weight for i in ids if i not in pos), default=0.0)
        for ids in nmrf.groups.values()
    )
    return PrunedNmrf(nmrf, kept, tuple(nodes[i].weight for i in kept), edges, slack)


def nmrf_to_json(nmrf: Nmrf) -> dict:
    nodes = [
        {
            "id": i,
            "group": list(node.scope),
            "assignment": node.assignment_map(),
            "weight": node.weight,
        }
        for i, node in enumerate(nmrf.nodes)
    ]
    edges = [
        [i, j] for i in range(len(nmrf.nodes)) for j in sorted(nmrf.adj[i]) if i < j
    ]
    return {"nodes": nodes, "edges": edges, "constants": nmrf.constant}


def nmrf_from_json(data: Mapping) -> Nmrf:
    """Read back what `nmrf_to_json` writes; a document that breaks its schema
    (node k has id k, finite numbers, each edge joins two nodes) raises
    ModelFormatError."""
    ok = isinstance(data, Mapping) and all(type(data.get(k)) is list for k in ("nodes", "edges"))
    # json reads NaN and Infinity; a NaN weight would be pruned without notice.
    constant = _as_floats([data.get("constants", 0.0)]) if ok else None
    if constant is None or not math.isfinite(constant[0]):
        raise ModelFormatError(
            "an NMRF needs lists 'nodes' and 'edges' and a finite number 'constants'"
        )
    nodes = []
    groups: dict[tuple[str, ...], list[int]] = {}
    for k, entry in enumerate(data["nodes"]):
        if not isinstance(entry, Mapping) or type(entry.get("id")) is not int or entry["id"] != k:
            raise ModelFormatError(f"node {k} must be a mapping with id {k}")
        for key in ("group", "assignment", "weight"):
            if key not in entry:
                raise ModelFormatError(f"node {k} has no key {key!r}")
        scope, values = entry["group"], entry["assignment"]
        weight = _as_floats([entry["weight"]])
        labels = isinstance(scope, list) and isinstance(values, Mapping) and all(
            isinstance(n, str) and type(values.get(n)) is int and values[n] >= 0 for n in scope
        )
        if weight is None or not math.isfinite(weight[0]) or not labels:
            raise ModelFormatError(f"node {k} needs a finite weight and an int >= 0 per group name")
        scope = tuple(scope)
        nodes.append(NmrfNode(scope, tuple(values[n] for n in scope), weight[0]))
        groups.setdefault(scope, []).append(k)
    n = len(nodes)
    adj: list[set[int]] = [set() for _ in nodes]
    for edge in data["edges"]:
        i, j = edge if isinstance(edge, list) and len(edge) == 2 else (None, None)
        if not (type(i) is type(j) is int and 0 <= i < n and 0 <= j < n and i != j):
            raise ModelFormatError(f"edge {edge!r} must join two of the {n} nodes")
        adj[i].add(j)
        adj[j].add(i)
    return Nmrf(
        tuple(nodes),
        tuple(frozenset(s) for s in adj),
        {k: tuple(v) for k, v in groups.items()},
        constant[0],
    )


def nmrf_to_dot(nmrf: Nmrf) -> str:
    lines = ["graph nmrf {"]
    for i, node in enumerate(nmrf.nodes):
        setting = ",".join(f"{n}={v}" for n, v in zip(node.scope, node.assignment))
        label = f"{':'.join(node.scope)}:{setting}:{node.weight:g}"
        # DOT escapes; a label ends in its weight, never in a lone backslash
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for i in range(len(nmrf.nodes)):
        for j in sorted(nmrf.adj[i]):
            if i < j:
                lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines)
