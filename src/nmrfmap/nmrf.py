"""Compilation of models to weighted NAND conflict graphs (NMRFs).

Every scope of the model becomes a clique group with one node per
assignment, and a singleton clique group is materialized for every variable
even when no explicit singleton potential exists. One rule gives every
conflict, those inside a group too: two nodes conflict when they set a shared
variable to different values. Weights are normalized so each group's minimum
is exactly zero; the subtracted constants are recorded to rebuild the objective.
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
    Potential,
    _as_floats,
    _reorder_table,
    _summed_pairwise,
    single_enode,
)

# Desk scale: each node is a record plus the set of the nodes it conflicts with.
MAX_NODES = 1 << 20


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
    """Induced subgraph on positive-weight nodes plus the pruned-node record."""

    base: Nmrf
    kept: tuple[int, ...]

    @property
    def zero(self) -> tuple[int, ...]:
        kept = set(self.kept)
        return tuple(i for i in range(len(self.base.nodes)) if i not in kept)

    def subgraph(self):
        """(weights, edges, kept) with edges as index pairs into `kept`."""
        base = self.base
        pos = {nid: i for i, nid in enumerate(self.kept)}
        weights = [base.nodes[nid].weight for nid in self.kept]
        edges = []
        for nid in self.kept:
            i = pos[nid]
            for other in base.adj[nid]:
                j = pos.get(other)
                if j is not None and i < j:
                    edges.append((i, j))
        return weights, edges, self.kept


def build_nmrf(model: Model) -> Nmrf:
    """Compile a model into its normalized NMRF. A graph of more than
    MAX_NODES nodes raises TooLargeError, naming the clique group that
    passes the cap, before any node is built."""
    cards = model.cards
    index = model.index
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
        for k, vals in enumerate(itertools.product(*(range(cards[n]) for n in scope))):
            for name, val in zip(scope, vals):
                by_value[name][val].append(start + k)
            nodes.append(new(NmrfNode, (scope, vals, table[k] - lo)))
        groups[scope] = tuple(range(start, len(nodes)))

    # Nodes that set a shared variable to different values conflict; two nodes
    # of one group differ on some variable of it, so each group is a clique.
    adj: list[set[int]] = [set() for _ in nodes]
    for per_value in by_value.values():
        for val, ids in enumerate(per_value):
            for other, others in enumerate(per_value):
                if other != val:
                    for i in ids:
                        adj[i].update(others)
    return Nmrf(tuple(nodes), tuple(frozenset(s) for s in adj), groups, constant)


def prune(nmrf: Nmrf, eps: float = DEFAULT_EPS) -> PrunedNmrf:
    kept = tuple(i for i, node in enumerate(nmrf.nodes) if node.weight > eps)
    return PrunedNmrf(nmrf, kept)


def apply_enode_plan(
    model: Model,
    plan: Mapping[tuple[str, str], tuple[int, int]],
    eps: float = DEFAULT_EPS,
) -> Model:
    """Reparameterize every planned edge to its single surviving enode form.

    The removed mass moves into the endpoints' singleton tables; total energy
    is unchanged for every configuration. The tables are read as
    `pairwise_view` reads them, each pair summed into one edge that is
    rewritten once, so a model that is not binary pairwise raises
    NotBinaryPairwiseError. Edges absent from the plan keep their summed table.
    """
    names = model.names
    unaries, pairs = _summed_pairwise(model)
    singles = [[0.0, 0.0] for _ in names]
    for i, (t0, t1) in unaries.items():
        singles[i][0] += t0
        singles[i][1] += t1
    edges = []
    for (u, v), t in pairs.items():
        scope = (names[u], names[v])
        form = plan.get(scope)
        if form is None:
            edges.append(Potential(scope, t))
            continue
        i, j = form
        weight, fi, row0, row1 = single_enode(t, i, j, eps)
        table = [0.0] * 4
        table[2 * i + j] = weight
        edges.append(Potential(scope, tuple(table)))
        singles[u][i] += fi
        singles[v][0] += row0
        singles[v][1] += row1
    potentials = [
        Potential((name,), tuple(s)) for name, s in zip(names, singles)
    ] + edges
    return Model(model.variables, tuple(potentials))


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
    (node k has id k, each edge joins two nodes) raises ModelFormatError."""
    ok = isinstance(data, Mapping) and all(type(data.get(k)) is list for k in ("nodes", "edges"))
    constant = _as_floats([data.get("constants", 0.0)]) if ok else None
    if constant is None:
        raise ModelFormatError("an NMRF needs lists 'nodes' and 'edges' and a number 'constants'")
    nodes = []
    groups: dict[tuple[str, ...], list[int]] = {}
    for k, entry in enumerate(data["nodes"]):
        if not isinstance(entry, Mapping) or type(entry.get("id")) is not int or entry["id"] != k:
            raise ModelFormatError(f"node {k} must be a mapping with id {k}")
        scope, values = entry["group"], entry["assignment"]
        weight = _as_floats([entry["weight"]])
        labels = isinstance(scope, list) and isinstance(values, Mapping) and all(
            isinstance(n, str) and type(values.get(n)) is int and values[n] >= 0 for n in scope
        )
        if weight is None or not labels:
            raise ModelFormatError(f"node {k} needs a weight and an int >= 0 per group name")
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
        lines.append(f'  n{i} [label="{label}"];')
    for i in range(len(nmrf.nodes)):
        for j in sorted(nmrf.adj[i]):
            if i < j:
                lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines)
