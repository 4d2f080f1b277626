"""Independent reference answers for the benchmark.

Nothing here imports `nmrfmap`: every answer the program gives is checked
against code that shares none of its logic. Models are the raw descriptions
the generators produce (binary variables, scopes in declaration order,
tables row-major with the last scope variable fastest).

- `brute_force_max`: enumeration of all 2^n configurations with numpy.
- `elimination_max`: exact max-sum variable elimination, min-degree order.
- `mincut_max`: for BR models, flip one side of the signed bipartition so
  every edge is associative; the negated energy is then submodular and its
  minimum is a networkx minimum s-t cut (Kolmogorov & Zabih, PAMI 2004).
- `tractable_verdict`: block decomposition with networkx and an independent
  test of each block for the BR, T and U shapes.
- `witness_ok` and `plan_ok`: certificate checks on the program's output.
"""

from __future__ import annotations

import heapq
from collections import deque

import networkx as nx
import numpy as np

# Edges whose associativity is at most this are not part of the signed
# topology (the package's default eps; the generators never produce them).
ZERO_ASSOCIATIVITY = 1e-9
BRUTE_FORCE_MAX_VARS = 20


def _index(model):
    return {v["name"]: i for i, v in enumerate(model["variables"])}


def tolerance(model):
    """Float-rounding allowance: 1e-9 times the sum of each table's max |entry|."""
    return 1e-9 * sum(max(abs(x) for x in p["table"]) for p in model["potentials"])


def energy(model, assignment):
    total = 0.0
    for p in model["potentials"]:
        flat = 0
        for name in p["scope"]:
            flat = flat * 2 + assignment[name]
        total += p["table"][flat]
    return total


def signed_edges(model):
    """(u, v, associative?) for every pairwise potential with nonzero associativity."""
    index = _index(model)
    out = []
    for p in model["potentials"]:
        if len(p["scope"]) != 2:
            continue
        t00, t01, t10, t11 = p["table"]
        a = t00 + t11 - t01 - t10
        if abs(a) > ZERO_ASSOCIATIVITY:
            u, v = index[p["scope"][0]], index[p["scope"][1]]
            out.append((u, v, a > 0))
    return out


def brute_force_max(model):
    n = len(model["variables"])
    if n > BRUTE_FORCE_MAX_VARS:
        raise ValueError(f"{n} variables is too many to enumerate")
    index = _index(model)
    configs = np.arange(1 << n, dtype=np.int64)
    # Variable i is bit n-1-i, so configurations run in lexicographic order.
    bits = [(configs >> (n - 1 - i)) & 1 for i in range(n)]
    values = np.zeros(1 << n)
    for p in model["potentials"]:
        table = np.asarray(p["table"], dtype=float)
        flat = np.zeros(1 << n, dtype=np.int64)
        for name in p["scope"]:
            flat = flat * 2 + bits[index[name]]
        values += table[flat]
    return float(values.max())


def elimination_max(model):
    """Max over all configurations of the table sum, by variable elimination."""
    n = len(model["variables"])
    index = _index(model)
    factors = {}  # id -> (sorted variable tuple, ndarray with one axis per variable)
    holding = [set() for _ in range(n)]
    next_id = 0

    def add(vars_, arr):
        nonlocal next_id
        factors[next_id] = (vars_, arr)
        for v in vars_:
            holding[v].add(next_id)
        next_id += 1

    constant = 0.0
    for p in model["potentials"]:
        scope = [index[name] for name in p["scope"]]
        arr = np.asarray(p["table"], dtype=float).reshape((2,) * len(scope))
        order = sorted(range(len(scope)), key=scope.__getitem__)
        add(tuple(scope[i] for i in order), np.transpose(arr, order))

    nbrs = [set() for _ in range(n)]
    for vars_, _ in factors.values():
        for v in vars_:
            nbrs[v].update(w for w in vars_ if w != v)
    heap = [(len(nbrs[v]), v) for v in range(n)]
    heapq.heapify(heap)
    done = [False] * n
    while heap:
        deg, v = heapq.heappop(heap)
        if done[v] or deg != len(nbrs[v]):
            continue
        done[v] = True
        ids = sorted(holding[v])
        union = sorted({w for i in ids for w in factors[i][0]})
        if not union:
            continue
        total = np.zeros((2,) * len(union))
        for i in ids:
            vars_, arr = factors.pop(i)
            shape = [2 if w in vars_ else 1 for w in union]
            total = total + arr.reshape(shape)
            for w in vars_:
                holding[w].discard(i)
        reduced = total.max(axis=union.index(v))
        rest = tuple(w for w in union if w != v)
        if rest:
            add(rest, reduced)
        else:
            constant += float(reduced)
        for w in rest:
            nbrs[w].discard(v)
            nbrs[w].update(x for x in rest if x != w)
            heapq.heappush(heap, (len(nbrs[w]), w))
    return constant


def _signed_sides(n, edges):
    """Sides so repulsive edges cross and associative ones do not, or None."""
    adj = [[] for _ in range(n)]
    for u, v, assoc in edges:
        adj[u].append((v, assoc))
        adj[v].append((u, assoc))
    side = [-1] * n
    for start in range(n):
        if side[start] >= 0:
            continue
        side[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w, assoc in adj[u]:
                want = side[u] if assoc else 1 - side[u]
                if side[w] < 0:
                    side[w] = want
                    queue.append(w)
                elif side[w] != want:
                    return None
    return side


def mincut_max(model):
    """Exact MAP value of a BR model by one minimum cut (networkx)."""
    n = len(model["variables"])
    index = _index(model)
    side = _signed_sides(n, signed_edges(model))
    if side is None:
        raise ValueError("min-cut reference needs a frustration-free (BR) model")
    # Minimize E = -sum(tables) over y, where y_i = x_i xor side_i makes
    # every edge associative and hence every pairwise term of E submodular.
    unary = [0.0] * n  # coefficient of y_i
    constant = 0.0
    pair_cap = {}
    for p in model["potentials"]:
        scope = [index[name] for name in p["scope"]]
        if len(scope) == 1:
            (i,) = scope
            e0, e1 = -p["table"][side[i]], -p["table"][1 - side[i]]
            constant += e0
            unary[i] += e1 - e0
            continue
        i, j = scope
        t = p["table"]

        def e(yi, yj):
            return -t[2 * (yi ^ side[i]) + (yj ^ side[j])]

        a, b, c, d = e(0, 0), e(0, 1), e(1, 0), e(1, 1)
        # e = a + (c - a) y_i + (d - c) y_j + (b + c - a - d) (1 - y_i) y_j
        constant += a
        unary[i] += c - a
        unary[j] += d - c
        w = b + c - a - d
        if w < -ZERO_ASSOCIATIVITY:
            raise ValueError("flipped model is not submodular")
        if w > 0:
            pair_cap[(i, j)] = pair_cap.get((i, j), 0.0) + w
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    src, snk = "s", "t"
    for i, c in enumerate(unary):
        # y_i = 1 puts i on the sink side.
        if c > 0:
            g.add_edge(src, i, capacity=c)
        elif c < 0:
            constant += c
            g.add_edge(i, snk, capacity=-c)
    for (i, j), w in pair_cap.items():
        g.add_edge(i, j, capacity=w)  # cut when y_i = 0 and y_j = 1
    g.add_node(src)
    g.add_node(snk)
    _, (source_side, _) = nx.minimum_cut(g, src, snk)
    names = [v["name"] for v in model["variables"]]
    assignment = {names[i]: (0 if i in source_side else 1) ^ side[i] for i in range(n)}
    return energy(model, assignment)


def _block_tractable(vertices, edges):
    """BR, T or U: the shapes whose compiled conflict graph is perfect."""
    if len(edges) == 1:
        return True
    local = {v: k for k, v in enumerate(vertices)}
    if _signed_sides(len(vertices), [(local[u], local[v], a) for u, v, a in edges]) is not None:
        return True
    nbr = {v: {} for v in vertices}
    for u, v, assoc in edges:
        nbr[u][v] = assoc
        nbr[v][u] = assoc
    if len(vertices) == 3:
        bases = [(u, v) for u, v, _ in edges]
    else:
        hubs = [v for v in vertices if len(nbr[v]) > 2]
        bases = [tuple(hubs)] if len(hubs) == 2 else []
    for s, t in bases:
        if t not in nbr[s]:
            continue
        spokes = [v for v in vertices if v != s and v != t]
        if any(set(nbr[v]) != {s, t} for v in spokes):
            continue
        if nbr[s][t]:  # associative base: U, every spoke mixed
            if all(nbr[v][s] != nbr[v][t] for v in spokes):
                return True
        elif all(nbr[v][s] == nbr[v][t] for v in spokes):  # repulsive base: T
            return True
    return False


def tractable_verdict(model):
    """True when every 2-connected block of the signed graph is BR, T or U."""
    edges = signed_edges(model)
    sign = {}
    g = nx.Graph()
    for u, v, assoc in edges:
        g.add_edge(u, v)
        sign[(min(u, v), max(u, v))] = assoc
    for comp in nx.biconnected_component_edges(g):
        block_edges = [(u, v, sign[(min(u, v), max(u, v))]) for u, v in comp]
        vertices = sorted({x for u, v, _ in block_edges for x in (u, v)})
        if not _block_tractable(vertices, block_edges):
            return False
    return True


def edge_signs(model):
    names = [v["name"] for v in model["variables"]]
    return {
        frozenset((names[u], names[v])): assoc for u, v, assoc in signed_edges(model)
    }


def witness_ok(model, witness, signs=None):
    """A closed walk along input edges with an odd number of repulsive edges."""
    signs = edge_signs(model) if signs is None else signs
    if len(witness) < 3:
        return False
    repulsive = 0
    for a, b in zip(witness, list(witness[1:]) + [witness[0]]):
        assoc = signs.get(frozenset((a, b)))
        if assoc is None:
            return False
        repulsive += not assoc
    return repulsive % 2 == 1


def certifies_intractable(witness):
    """Whether a valid witness alone proves its block is neither BR, T nor U.

    A frustrated cycle rules out BR. Every simple cycle of a T or U block is
    a triangle through the base (always frustrated) or a 4-cycle through two
    spokes (never frustrated), so a frustrated simple cycle of length four
    or more rules out T and U too. A frustrated triangle proves nothing."""
    return len(witness) >= 4 and len(set(witness)) == len(witness)


def plan_ok(model, plan):
    """Every signed edge has exactly one plan entry, with a form matching its
    sign: equal labels for associative edges, different for repulsive ones."""
    signs = edge_signs(model)
    seen = set()
    for entry in plan:
        key = frozenset(entry["edge"])
        form = entry["form"]
        if key in seen or key not in signs or len(form) != 2 or set(form) - {"0", "1"}:
            return False
        if (form[0] == form[1]) != signs[key]:
            return False
        seen.add(key)
    return len(seen) == len(signs)
