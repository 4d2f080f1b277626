"""Seeded random model generators for the tests."""

from __future__ import annotations

import numpy as np

from nmrfmap.model import ASSOCIATIVE, Model, Potential, REPULSIVE
from nmrfmap.submodular import HighOrderPotential, is_supermodular


def _names(n: int) -> list[str]:
    return [f"X{i + 1}" for i in range(n)]


def _signed_table(draw, sign: int, floor: float) -> tuple[float, ...]:
    """Redraw 2x2 tables from `draw()` until |associativity| >= floor, then
    swap columns if needed to give the associativity the requested sign."""
    while True:
        t = [float(x) for x in draw()]
        a = t[0] + t[3] - t[1] - t[2]
        if abs(a) >= floor:
            break
    if (a > 0) != (sign == ASSOCIATIVE):
        t = [t[1], t[0], t[3], t[2]]  # swapping columns negates the associativity
    return tuple(t)


def random_edge_table(rng: np.random.Generator, sign: int, scale: float = 2.0):
    """Random 2x2 table whose associativity has the requested sign."""
    return _signed_table(lambda: rng.uniform(-scale, scale, size=4), sign, 1e-3)


def model_from_signed_edges(
    n: int,
    signed_edges,
    rng: np.random.Generator,
    scale: float = 2.0,
    integer: bool = False,
) -> Model:
    """Random tables matching given edge signs, plus random singletons."""
    names = _names(n)
    if integer:
        singles = rng.integers(-3, 4, size=(n, 2)).tolist()
    else:
        singles = rng.uniform(-scale, scale, size=(n, 2)).tolist()
    potentials = [
        Potential((name,), (float(t0), float(t1))) for name, (t0, t1) in zip(names, singles)
    ]
    for u, v, sign in signed_edges:
        if integer:
            # Integer associativities are whole, so |a| >= 0.5 means a != 0.
            table = _signed_table(lambda: rng.integers(-3, 4, size=4), sign, 0.5)
        else:
            table = random_edge_table(rng, sign, scale)
        potentials.append(Potential((names[u], names[v]), table))
    variables = tuple((name, 2) for name in names)
    return Model(variables, tuple(potentials))


def _random_block(rng: np.random.Generator, base: int, max_extra: int):
    """Signed edges of one random tractable block over new vertex ids.

    Returns (edges, vertex count used). Vertex ids start at `base`.
    """
    kind = rng.choice(["K2", "BR", "T", "U"])
    if kind == "K2":
        sign = ASSOCIATIVE if rng.random() < 0.5 else REPULSIVE
        return [(base, base + 1, sign)], 2
    if kind == "BR":
        size = int(rng.integers(3, min(5, max_extra + 1) + 1))
        side = [int(rng.integers(0, 2)) for _ in range(size)]
        edges = []
        # random cycle plus chords, signs forced by the bipartition
        order = list(rng.permutation(size))
        pairs = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:] + order[:1])}
        extra = int(rng.integers(0, size))
        for _ in range(extra):
            a, b = rng.integers(0, size, size=2)
            if a != b:
                pairs.add((min(a, b), max(a, b)))
        for a, b in sorted(pairs):
            sign = REPULSIVE if side[a] != side[b] else ASSOCIATIVE
            edges.append((base + a, base + b, sign))
        return edges, size
    if kind == "T":
        m = int(rng.integers(0, 3))
        n = int(rng.integers(max(1 - m, 0), 3))
        size = 2 + m + n
        s, t = base, base + 1
        edges = [(s, t, REPULSIVE)]
        for i in range(m):
            r = base + 2 + i
            edges += [(s, r, REPULSIVE), (min(t, r), max(t, r), REPULSIVE)]
        for i in range(n):
            a = base + 2 + m + i
            edges += [(s, a, ASSOCIATIVE), (min(t, a), max(t, a), ASSOCIATIVE)]
        return edges, size
    # U
    n = int(rng.integers(1, 4))
    size = 2 + n
    s, t = base, base + 1
    edges = [(s, t, ASSOCIATIVE)]
    for i in range(n):
        v = base + 2 + i
        if rng.random() < 0.5:
            edges += [(s, v, ASSOCIATIVE), (min(t, v), max(t, v), REPULSIVE)]
        else:
            edges += [(s, v, REPULSIVE), (min(t, v), max(t, v), ASSOCIATIVE)]
    return edges, size


def random_tractable_model(
    rng: np.random.Generator, max_vars: int = 8, integer: bool = False
) -> Model:
    """Chain of random tractable blocks glued at cut vertices."""
    if max_vars < 2:
        raise ValueError(f"max_vars must be >= 2 (one edge), not {max_vars}")
    edges = []
    base = 0
    n = 0
    while True:
        block_edges, used = _random_block(rng, base, max_vars - base)
        if base + used > max_vars:
            if n == 0:
                continue  # first block too big for the budget; redraw
            break
        edges += block_edges
        n = base + used
        # next block shares the last vertex as a cut vertex
        base = n - 1
        if n >= max_vars - 1 or rng.random() < 0.3:
            break
    # relabel so edges are (lo, hi)
    edges = [(min(u, v), max(u, v), s) for u, v, s in edges]
    return model_from_signed_edges(n, edges, rng, integer=integer)


def random_signed_model(rng: np.random.Generator, n: int = 6, p: float = 0.5) -> Model:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                sign = ASSOCIATIVE if rng.random() < 0.5 else REPULSIVE
                edges.append((u, v, sign))
    return model_from_signed_edges(n, edges, rng)


def random_supermodular_k3(rng: np.random.Generator, scale: float = 2.0) -> HighOrderPotential:
    """Rejection-sample an order-3 supermodular table."""
    while True:
        table = tuple(float(x) for x in rng.uniform(-scale, scale, size=8))
        psi = HighOrderPotential(("X1", "X2", "X3"), table)
        ok, _ = is_supermodular(psi)
        if ok:
            return psi


def block_chain_model(n_blocks: int, seed: int = 0) -> Model:
    """Deterministic chain of tractable triangle blocks (3 edges per block)."""
    rng = np.random.default_rng(seed)
    names = _names(2 * n_blocks + 1)
    potentials = []
    for i, name in enumerate(names):
        potentials.append(Potential((name,), (0.0, float((i * 7 + 3) % 5) / 4.0)))
    for b in range(n_blocks):
        s = 2 * b
        v = 2 * b + 1
        t = 2 * b + 2
        if b % 2 == 0:
            # U_1 triangle: associative base, mixed spokes
            trip = [
                (s, t, ASSOCIATIVE),
                (s, v, ASSOCIATIVE),
                (v, t, REPULSIVE),
            ]
        else:
            # T_{1,0} triangle: all repulsive
            trip = [(s, t, REPULSIVE), (s, v, REPULSIVE), (v, t, REPULSIVE)]
        for u, w, sign in trip:
            mag = 1.0 + ((u + w) % 3) / 2.0
            if sign == ASSOCIATIVE:
                table = (mag, 0.0, 0.0, mag)
            else:
                table = (0.0, mag, mag, 0.0)
            potentials.append(Potential((names[u], names[w]), table))
    variables = tuple((name, 2) for name in names)
    return Model(variables, tuple(potentials))

