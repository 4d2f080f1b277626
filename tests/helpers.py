"""Code that only the tests call: a variable flip, a scope lookup, a
power-of-two rescaling, two random stable-set instances and the conflict
rule of the NMRF, used as an oracle apart from the code it checks."""

import itertools
from typing import Iterable

import numpy as np

from nmrfmap.errors import NotBinaryPairwiseError, UnknownVariableError
from nmrfmap.model import Model, Potential, is_binary_pairwise, table_index
from nmrfmap.nmrf import NmrfNode


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
