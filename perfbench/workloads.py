"""Seeded request generators for the four benchmark workloads.

Every request is a raw model description (the JSON a user would hand to
`nmrfmap solve` or `nmrfmap classify`) plus metadata the checker needs.
Each request is drawn from its own `random.Random` keyed by (workload,
seed, round, position), so the same seed gives byte-identical requests no
matter how many a run consumes. The generators live here rather than in the
package so that a change to `nmrfmap.generators` cannot change the inputs a
comparison runs on. They draw from the same families as the package's
generators: tables uniform in [-2, 2], edge signs forced by swapping columns.

Requests come in rounds of fixed composition and a run sends whole rounds,
so every run sees the same mix of request classes.

Run as a script to print the digest of the first requests of a workload:
    python3 perfbench/workloads.py --digest small_mix 3 40
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

ASSOCIATIVE = 1
REPULSIVE = -1
SCALE = 2.0

# dense_br: one 2-connected BR block, n variables and exactly m edges
# (m is the expected edge count of G(n, p=0.3)).
DENSE_N = 28
DENSE_M = 113
# block_chain: about 40 random blocks; a fixed variable count keeps the
# requests equal in size.
CHAIN_VARS = 81
# Deeper than the block-tree recursion can go under Python's default
# recursion limit of 1000 (two frames per block).
DEEP_CHAIN_BLOCKS = 600
HUB_SPOKES = (4, 24)
WIDE_HUB_SPOKES = 14
NEAR_TIE_VARS = (12, 40)
NEAR_TIE_GAP = (2e-8, 1e-7)
# classify_large: many equal-cost requests keep the median steady: at the
# seed commit a frustrated graph of 9k edges takes as long to classify as a
# 10k-edge chain, so the median does not fall between two groups. The tail
# covers the rest of the 10^4-10^5 edge range once per run: a chain and a
# frustrated graph of 30k edges and a chain of 100k.
ROUND_EDGES = 10_000
ROUND_SIGNED_EDGES = 9_000
MID_EDGES = 30_000
LARGE_EDGES = 100_000

WORKLOADS = ("dense_br", "block_chain", "small_mix", "classify_large")


def _names(n):
    return [f"X{i + 1}" for i in range(n)]


def _edge_table(rng, sign):
    while True:
        t = [rng.uniform(-SCALE, SCALE) for _ in range(4)]
        a = t[0] + t[3] - t[1] - t[2]
        if abs(a) < 1e-3:
            continue
        if (a > 0) != (sign == ASSOCIATIVE):
            t = [t[1], t[0], t[3], t[2]]
        return t


def _model(n, signed_edges, rng):
    """Raw model: random singletons for every variable, then the edges."""
    names = _names(n)
    potentials = [
        {"scope": [nm], "table": [rng.uniform(-SCALE, SCALE), rng.uniform(-SCALE, SCALE)]}
        for nm in names
    ]
    for u, v, sign in signed_edges:
        lo, hi = (u, v) if u < v else (v, u)
        potentials.append({"scope": [names[lo], names[hi]], "table": _edge_table(rng, sign)})
    return {"variables": [{"name": nm, "card": 2} for nm in names], "potentials": potentials}


def _is_biconnected(n, edges):
    """Iterative lowpoint DFS: one component, no articulation point."""
    adj = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    disc = [-1] * n
    low = [0] * n
    disc[0] = 0
    timer = 1
    stack = [(0, -1, iter(adj[0]))]
    root_children = 0
    while stack:
        v, parent, it = stack[-1]
        for w in it:
            if disc[w] == -1:
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, v, iter(adj[w])))
                if v == 0:
                    root_children += 1
                break
            if w != parent:
                low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if parent >= 0:
                low[parent] = min(low[parent], low[v])
                if parent != 0 and low[v] >= disc[parent]:
                    return False
    return timer == n and root_children == 1


def dense_br(rng):
    pairs = [(u, v) for u in range(DENSE_N) for v in range(u + 1, DENSE_N)]
    while True:
        side = [rng.randrange(2) for _ in range(DENSE_N)]
        chosen = sorted(rng.sample(pairs, DENSE_M))
        edges = [(u, v, REPULSIVE if side[u] != side[v] else ASSOCIATIVE) for u, v in chosen]
        if _is_biconnected(DENSE_N, edges):
            return _model(DENSE_N, edges, rng), {"class": "dense_br", "tractable": True}


def _block(rng, base):
    """Signed edges of one random tractable block on vertices base, base+1, ...

    Returns (edges, vertices used). Mirrors the package's random block
    family: a K2 bridge, a small BR block, a T_{m,n} or a U_n triangle fan.
    """
    kind = rng.choice(("K2", "BR", "T", "U"))
    if kind == "K2":
        return [(base, base + 1, rng.choice((ASSOCIATIVE, REPULSIVE)))], 2
    if kind == "BR":
        size = rng.randint(3, 5)
        side = [rng.randrange(2) for _ in range(size)]
        order = list(range(size))
        rng.shuffle(order)
        pairs = {tuple(sorted((a, b))) for a, b in zip(order, order[1:] + order[:1])}
        for _ in range(rng.randrange(size)):
            a, b = rng.randrange(size), rng.randrange(size)
            if a != b:
                pairs.add((min(a, b), max(a, b)))
        edges = [
            (base + a, base + b, REPULSIVE if side[a] != side[b] else ASSOCIATIVE)
            for a, b in sorted(pairs)
        ]
        return edges, size
    if kind == "T":
        m = rng.randint(0, 2)
        n = rng.randint(max(1 - m, 0), 2)
        return _hub_edges(base, "T", m, n, rng), 2 + m + n
    n = rng.randint(1, 3)
    return _hub_edges(base, "U", 0, n, rng), 2 + n


def _hub_edges(base, kind, m, n, rng):
    """T_{m,n}: repulsive base, m repulsive and n associative spokes.
    U_n: associative base, n mixed-sign spokes."""
    s, t = base, base + 1
    if kind == "T":
        edges = [(s, t, REPULSIVE)]
        for i in range(m):
            r = base + 2 + i
            edges += [(s, r, REPULSIVE), (t, r, REPULSIVE)]
        for i in range(n):
            a = base + 2 + m + i
            edges += [(s, a, ASSOCIATIVE), (t, a, ASSOCIATIVE)]
        return edges
    edges = [(s, t, ASSOCIATIVE)]
    for i in range(n):
        v = base + 2 + i
        if rng.random() < 0.5:
            edges += [(s, v, ASSOCIATIVE), (t, v, REPULSIVE)]
        else:
            edges += [(s, v, REPULSIVE), (t, v, ASSOCIATIVE)]
    return edges


def _chain_edges(rng, n_blocks=None, n_vars=None):
    """Random tractable blocks, each glued to the previous at a cut vertex,
    until there are n_blocks blocks or exactly n_vars variables."""
    edges = []
    base = 0
    blocks = 0
    while blocks != n_blocks and base + 1 != n_vars:
        block_edges, used = _block(rng, base)
        if n_vars is not None and base + used > n_vars:
            continue  # redraw; a K2 bridge always fits
        edges += block_edges
        base += used - 1
        blocks += 1
    return edges, base + 1, blocks


def chain(rng, cls, n_blocks=None, n_vars=None):
    edges, n, blocks = _chain_edges(rng, n_blocks, n_vars)
    return _model(n, edges, rng), {"class": cls, "blocks": blocks, "tractable": True}


def random_tractable(rng, max_vars=8):
    """Chain of random tractable blocks within a variable budget."""
    while True:
        edges, base, n = [], 0, 0
        while True:
            block_edges, used = _block(rng, base)
            if base + used > max_vars:
                break
            edges += block_edges
            n = base + used
            base = n - 1
            if n >= max_vars - 1 or rng.random() < 0.3:
                break
        if n:
            return _model(n, edges, rng), {"class": "random_tractable", "tractable": True}


def random_signed(rng, max_vars=10, p=0.5):
    n = rng.randint(6, max_vars)
    edges = [
        (u, v, rng.choice((ASSOCIATIVE, REPULSIVE)))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return _model(n, edges, rng), {"class": "random_signed"}


def hub(rng, spokes):
    kind = rng.choice(("T", "U"))
    m = rng.randint(0, spokes) if kind == "T" else 0
    edges = _hub_edges(0, kind, m, spokes - m, rng)
    cls = "hub_wide" if spokes >= WIDE_HUB_SPOKES else "hub_narrow"
    meta = {"class": cls, "spokes": spokes, "shape": kind, "tractable": True}
    return _model(spokes + 2, edges, rng), meta


def near_tie(rng):
    """Unary gaps far below any ordinary tolerance plus one anchoring edge."""
    n = rng.randint(*NEAR_TIE_VARS)
    names = _names(n)
    gaps = [rng.uniform(*NEAR_TIE_GAP) for _ in range(n)]
    potentials = [{"scope": [nm], "table": [0.0, g]} for nm, g in zip(names, gaps)]
    u, v = sorted(rng.sample(range(n), 2))
    sign = rng.choice((ASSOCIATIVE, REPULSIVE))
    potentials.append({"scope": [names[u], names[v]], "table": _edge_table(rng, sign)})
    model = {"variables": [{"name": nm, "card": 2} for nm in names], "potentials": potentials}
    return model, {"class": "near_tie", "gap_sum": sum(gaps), "tractable": True}


def _small_mix_round(rng):
    """40 requests: 30 random-tractable, 7 random-signed, one hub with 4-13
    spokes, one with 14-24, and one near-tie model, in seeded order.

    Refusals of random-signed models take a tenth of a tractable solve; with
    them well under half of a round, the median falls inside the spread of
    tractable solves rather than on the edge between the two groups."""
    lo, hi = HUB_SPOKES
    makers = (
        [random_tractable] * 30
        + [random_signed] * 7
        + [
            lambda r: hub(r, r.randint(lo, WIDE_HUB_SPOKES - 1)),
            lambda r: hub(r, r.randint(WIDE_HUB_SPOKES, hi)),
            near_tie,
        ]
    )
    rng.shuffle(makers)
    return makers


def large_chain(rng, target_edges):
    edges, base = [], 0
    while len(edges) < target_edges:
        block_edges, used = _block(rng, base)
        edges += block_edges
        base += used - 1
    meta = {"class": "large_chain", "edges": len(edges), "tractable": True}
    return _model(base + 1, edges, rng), meta


def large_signed(rng, target_edges):
    """Sparse random signed graph, average degree 3: frustrated, refused."""
    n = target_edges * 2 // 3
    seen = set()
    edges = []
    while len(edges) < target_edges:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        edges.append((key[0], key[1], rng.choice((ASSOCIATIVE, REPULSIVE))))
    return _model(n, edges, rng), {"class": "large_signed", "edges": len(edges)}


def _round_makers(workload, rng):
    if workload == "dense_br":
        return [dense_br]
    if workload == "block_chain":
        return [lambda r: chain(r, "chain", n_vars=CHAIN_VARS)]
    if workload == "small_mix":
        return _small_mix_round(rng)
    if workload == "classify_large":
        return [lambda r: large_chain(r, ROUND_EDGES), lambda r: large_signed(r, ROUND_SIGNED_EDGES)]
    raise ValueError(f"unknown workload {workload!r}")


class RequestStream:
    """The seeded request list of one workload, generated on demand."""

    def __init__(self, workload, seed):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.seed = seed
        self.kind = "classify" if workload == "classify_large" else "solve"

    def round(self, r):
        """Yield the requests of round r as (model, meta) pairs."""
        makers = _round_makers(self.workload, random.Random(f"{self.workload}/{self.seed}/round/{r}"))
        for k, make in enumerate(makers):
            model, meta = make(random.Random(f"{self.workload}/{self.seed}/{r}/{k}"))
            meta["round"] = r
            yield model, meta

    def tail(self):
        """Yield the requests sent once, after the rounds."""
        if self.workload == "block_chain":
            makers = [lambda r: chain(r, "deep_chain", n_blocks=DEEP_CHAIN_BLOCKS)]
        elif self.workload == "classify_large":
            makers = [
                lambda r: large_chain(r, MID_EDGES),
                lambda r: large_signed(r, MID_EDGES),
                lambda r: large_chain(r, LARGE_EDGES),
            ]
        else:
            makers = []
        for k, make in enumerate(makers):
            model, meta = make(random.Random(f"{self.workload}/{self.seed}/tail/{k}"))
            meta["round"] = "tail"
            yield model, meta


def serialize(model):
    return json.dumps(model, separators=(",", ":"))


def digest(workload, seed, count):
    """sha256 over the first `count` round requests and the first tail request."""
    stream = RequestStream(workload, seed)
    h = hashlib.sha256()
    r = 0
    taken = 0
    while taken < count:
        for model, meta in stream.round(r):
            if taken == count:
                break
            h.update(serialize(model).encode())
            h.update(json.dumps(meta, sort_keys=True).encode())
            taken += 1
        r += 1
    for model, meta in stream.tail():
        h.update(serialize(model).encode())
        h.update(json.dumps(meta, sort_keys=True).encode())
        break
    return h.hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 5 or sys.argv[1] != "--digest":
        sys.exit("usage: workloads.py --digest WORKLOAD SEED COUNT")
    print(digest(sys.argv[2], int(sys.argv[3]), int(sys.argv[4])))
