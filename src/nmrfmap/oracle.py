"""Brute-force reference for MAP.

It shares no code with the production solvers on purpose: it enumerates
directly over raw tables and exists to check everything else.
"""

from __future__ import annotations

import itertools
import math

from .errors import TooLargeError
from .model import Model
from .mwss import MapSolution

MAX_CONFIGURATIONS = 1 << 20


def brute_force_map(model: Model) -> MapSolution:
    """Exact MAP by enumeration; ties go to the lexicographically smallest."""
    cards = [c for _, c in model.variables]
    if math.prod(cards) > MAX_CONFIGURATIONS:
        raise TooLargeError("configuration space exceeds 2^20")
    names = [n for n, _ in model.variables]
    positions = {n: i for i, n in enumerate(names)}
    compiled = []
    for p in model.potentials:
        idxs = [positions[n] for n in p.scope]
        scope_cards = [cards[i] for i in idxs]
        compiled.append((idxs, scope_cards, p.table))

    best_val = -math.inf
    best_cfg = None
    for cfg in itertools.product(*(range(c) for c in cards)):
        total = 0.0
        for idxs, scope_cards, table in compiled:
            flat = 0
            for i, card in zip(idxs, scope_cards):
                flat = flat * card + cfg[i]
            total += table[flat]
        if total > best_val:
            best_val = total
            best_cfg = cfg
    assignment = dict(zip(names, best_cfg))
    return MapSolution(assignment, best_val, "brute-force")
