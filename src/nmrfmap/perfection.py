"""Desk-scale perfect-graph checking and the cycle-to-odd-hole construction.

Perfection is decided through the Strong Perfect Graph Theorem: search for
an induced chordless odd cycle of length >= 5 in the graph and in its
complement. Both searches always run, since a graph read from a file need
not follow the conflict rule that would rule out large odd antiholes. The
search is exhaustive with a hard vertex cap; this is a verification tool,
not a production recognizer.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .errors import TooLargeError
from .model import ASSOCIATIVE, REPULSIVE
from .nmrf import NmrfNode, PrunedNmrf

DEFAULT_MAX_VERTICES = 24


class PlainGraph(NamedTuple):
    n: int
    adj: tuple[frozenset[int], ...]

    @staticmethod
    def from_edges(n: int, edges) -> "PlainGraph":
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        return PlainGraph(n, tuple(frozenset(s) for s in adj))

    def complement(self) -> "PlainGraph":
        full = set(range(self.n))
        return PlainGraph(
            self.n,
            tuple(frozenset(full - self.adj[v] - {v}) for v in range(self.n)),
        )


class PerfectionVerdict(NamedTuple):
    perfect: bool
    witness_kind: Optional[str] = None  # "odd_hole" | "odd_antihole"
    witness: Optional[tuple[int, ...]] = None


def find_odd_hole(graph: PlainGraph, max_vertices: int = DEFAULT_MAX_VERTICES):
    """First induced chordless odd cycle of length >= 5 in a fixed search order:
    from each start in turn, induced paths through larger ids grow depth first,
    neighbours in increasing order, sorted and bit-masked once per graph."""
    if graph.n > max_vertices:
        raise TooLargeError(f"{graph.n} vertices exceeds cap {max_vertices}")
    nbrs = [sorted(a) for a in graph.adj]
    masks = [sum(1 << u for u in a) for a in graph.adj]
    for start, near in enumerate(masks):
        # `blocked` masks the vertices up to `start`, the path's own, and every
        # neighbour of its interior (a chord); a path closes at a start neighbour.
        stack = [([start, v], (2 << start) - 1 | 1 << v) for v in nbrs[start][::-1] if v > start]
        while stack:
            path, blocked = stack.pop()
            tip = path[-1]
            for u in nbrs[tip]:
                if blocked >> u & 1:
                    continue
                if near >> u & 1:
                    if len(path) + 1 >= 5 and (len(path) + 1) % 2 == 1:
                        return tuple(path + [u])
                    continue  # closing early or evenly; a chord blocks extension
                stack.append((path + [u], blocked | 1 << u | masks[tip]))
    return None


def is_perfect_small(
    graph: PlainGraph, max_vertices: int = DEFAULT_MAX_VERTICES
) -> PerfectionVerdict:
    hole = find_odd_hole(graph, max_vertices)
    if hole is not None:
        return PerfectionVerdict(False, "odd_hole", hole)
    antihole = find_odd_hole(graph.complement(), max_vertices)
    if antihole is not None:
        return PerfectionVerdict(False, "odd_antihole", antihole)
    return PerfectionVerdict(True)


def pruned_to_plain(pruned: PrunedNmrf) -> tuple[PlainGraph, tuple[int, ...]]:
    """Induced positive-weight subgraph as a plain graph, with original ids."""
    _, edges, kept = pruned.subgraph()
    return PlainGraph.from_edges(len(kept), edges), kept


def binary_pairwise_perfection(
    pruned: PrunedNmrf, max_vertices: int = DEFAULT_MAX_VERTICES
) -> PerfectionVerdict:
    """Perfection of a pruned NMRF by the full hole and antihole search of
    `is_perfect_small`, with the witness as node ids of `pruned.base`."""
    plain, kept = pruned_to_plain(pruned)
    verdict = is_perfect_small(plain, max_vertices)
    if verdict.perfect:
        return verdict
    return PerfectionVerdict(False, verdict.witness_kind, tuple(kept[i] for i in verdict.witness))


def cycle_to_induced_hole(
    cycle_vertices: Sequence[str],
    signs: Sequence[int],
    forms: Sequence[tuple[int, int]],
) -> tuple[NmrfNode, ...]:
    """Build the induced NMRF cycle generated by a signed MRF cycle.

    `cycle_vertices` lists the cycle in order; edge i joins vertex i to
    vertex i+1 (wrapping), carries `signs[i]`, and its enode assigns
    `forms[i]` to that ordered endpoint pair. Wherever two consecutive
    enodes agree on their shared variable, the snode with the opposite
    setting is inserted. The result has length >= the cycle length and its
    parity equals the repulsive-edge count mod 2.
    """
    L = len(cycle_vertices)
    enodes = []
    for i in range(L):
        u = cycle_vertices[i]
        v = cycle_vertices[(i + 1) % L]
        a, b = forms[i]
        if signs[i] == ASSOCIATIVE and a != b:
            raise ValueError(f"associative edge {u}-{v} needs an equal-setting form")
        if signs[i] == REPULSIVE and a == b:
            raise ValueError(f"repulsive edge {u}-{v} needs an unequal-setting form")
        scope = (u, v) if u < v else (v, u)
        vals = (a, b) if u < v else (b, a)
        enodes.append((NmrfNode(scope, vals, 0.0), a, b))

    hole: list[NmrfNode] = []
    for i in range(L):
        node, _, b = enodes[i]
        hole.append(node)
        shared = cycle_vertices[(i + 1) % L]
        _, a_next, _ = enodes[(i + 1) % L]
        if b == a_next:
            hole.append(NmrfNode((shared,), (1 - b,), 0.0))
    return tuple(hole)
