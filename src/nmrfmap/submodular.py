"""Higher-order binary potentials: supermodularity, the alternating sum,
order-3 indicator constructions, and feasibility for k >= 4.

A potential over k binary variables maps to a bipartite pruned NMRF exactly
when it can be written as a constant plus nonnegative all-zeros / all-ones
subset indicators (singleton and constant terms are unconstrained; they are
absorbed by singleton reparameterization before pruning).

scipy is imported inside `representation_feasible`, its one user, so
importing this module (and so the package) loads neither scipy nor numpy.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import BadIndicesError, ModelFormatError, NotSupermodularError, TooLargeError
from .model import DEFAULT_EPS, Model, Potential, _as_floats

MAX_ORDER = 10
MAX_FEASIBILITY_ORDER = 6


class _HighOrderFields(NamedTuple):
    names: tuple[str, ...]
    table: tuple[float, ...]


class HighOrderPotential(_HighOrderFields):
    """Order-k table over binary variables, indexed with the last one fastest."""

    __slots__ = ()

    def __new__(cls, names, table):
        k = len(names)
        if not 2 <= k <= MAX_ORDER:
            # Too few variables is an input error; too many, a resource cap.
            error = ValueError if k < 2 else TooLargeError
            raise error(f"order {k} outside [2, {MAX_ORDER}]")
        if len(set(names)) != k:
            raise ValueError(f"variable names must be distinct: {names!r}")
        if len(table) != 1 << k:
            raise ValueError(f"table must have {1 << k} entries")
        if not all(map(math.isfinite, table)):
            raise ValueError("table entries must be finite")
        return super().__new__(cls, names, table)

    @property
    def k(self) -> int:
        return len(self.names)

    def value(self, bits: Sequence[int]) -> float:
        idx = 0
        for b in bits:
            idx = idx * 2 + b
        return self.table[idx]


class IndicatorRepresentation(NamedTuple):
    """Constant plus weighted all-zeros (Z) / all-ones (A) subset indicators."""

    names: tuple[str, ...]
    constant: float
    zero_weights: dict[frozenset[str], float]
    one_weights: dict[frozenset[str], float]

    def evaluate(self, bits: Sequence[int]) -> float:
        setting = dict(zip(self.names, bits))
        total = self.constant
        for sub, w in self.zero_weights.items():
            if all(setting[n] == 0 for n in sub):
                total += w
        for sub, w in self.one_weights.items():
            if all(setting[n] == 1 for n in sub):
                total += w
        return total


def supermodularity(
    psi: HighOrderPotential, i: int, j: int, rest: Mapping[int, int] | Sequence[int]
) -> float:
    """psi(00) + psi(11) - psi(10) - psi(01) on the (i, j) projection."""
    k = psi.k
    if not (0 <= i < k and 0 <= j < k) or i == j:
        raise BadIndicesError(f"bad pair ({i}, {j}) for order {k}")
    if not isinstance(rest, Mapping):
        others = [x for x in range(k) if x not in (i, j)]
        rest = dict(zip(others, rest))
    bits = [0] * k
    for pos, val in rest.items():
        if pos in (i, j) or not 0 <= pos < k:
            raise BadIndicesError(f"bad rest position {pos}")
        bits[pos] = val
    if len(rest) != k - 2:
        raise BadIndicesError("rest must assign every other variable")

    def at(bi, bj):
        bits[i], bits[j] = bi, bj
        return psi.value(bits)

    return at(0, 0) + at(1, 1) - at(1, 0) - at(0, 1)


def is_supermodular(psi: HighOrderPotential, eps: float = DEFAULT_EPS):
    """(True, None) or (False, (i, j, rest, value)) for a violating projection."""
    k = psi.k
    for i in range(k):
        for j in range(i + 1, k):
            others = [x for x in range(k) if x not in (i, j)]
            for rest_bits in itertools.product((0, 1), repeat=k - 2):
                s = supermodularity(psi, i, j, dict(zip(others, rest_bits)))
                if s < -eps:
                    return False, (i, j, dict(zip(others, rest_bits)), s)
    return True, None


def alpha(psi: HighOrderPotential) -> float:
    """Alternating sum over all settings, signed by the number of ones.

    For k = 2 this equals the supermodularity (and the edge associativity).
    """
    total = 0.0
    for idx, val in enumerate(psi.table):
        total += val if idx.bit_count() % 2 == 0 else -val
    return total


def construct_k3(
    psi: HighOrderPotential, eps: float = DEFAULT_EPS
) -> IndicatorRepresentation:
    """Indicator representation of a supermodular order-3 potential.

    Uses only all-zeros indicators for |Y| >= 2 when the alternating sum is
    nonnegative, else only all-ones indicators; the pair weights are the
    supermodularities with the remaining variable held at 1 (resp. 0).
    Singleton weights may be negative; they are absorbed downstream.
    """
    if psi.k != 3:
        raise ValueError("construct_k3 requires an order-3 potential")
    ok, witness = is_supermodular(psi, eps)
    if not ok:
        raise NotSupermodularError(witness)
    names = psi.names
    a3 = alpha(psi)
    # The background bit `rest` holds every variable outside an indicator:
    # 1 for all-zeros indicators, 0 for all-ones ones.
    rest = 1 if a3 >= 0 else 0
    weights: dict[frozenset[str], float] = {}

    def clamp(w):
        return 0.0 if -eps <= w < 0.0 else w

    constant = psi.value((rest,) * 3)
    weights[frozenset(names)] = clamp(a3 if rest else -a3)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        others = {x: rest for x in range(3) if x not in (i, j)}
        weights[frozenset((names[i], names[j]))] = clamp(supermodularity(psi, i, j, others))
    for i in range(3):
        bits = [rest] * 3
        bits[i] = 1 - rest
        weights[frozenset((names[i],))] = psi.value(bits) - constant
    zero, one = (weights, {}) if rest else ({}, weights)
    return IndicatorRepresentation(names, constant, zero, one)


class FeasibilityVerdict(NamedTuple):
    feasible: bool
    reason: Optional[str] = None  # "not_supermodular" | "negative_alpha" | "lp"
    witness: Optional[object] = None


def representation_feasible(
    psi: HighOrderPotential, eps: float = DEFAULT_EPS
) -> FeasibilityVerdict:
    """Can psi be written with nonnegative indicator weights for |Y| >= 2?

    Singleton and constant terms are unconstrained. Decided by linear
    feasibility over the 2^k evaluation equations, after two fast negative
    checks: a violated supermodularity projection, or (for even k >= 4) a
    negative alternating sum.
    """
    k = psi.k
    if k > MAX_FEASIBILITY_ORDER:
        raise TooLargeError(f"order {k} exceeds feasibility cap {MAX_FEASIBILITY_ORDER}")
    ok, witness = is_supermodular(psi, eps)
    if not ok:
        return FeasibilityVerdict(False, "not_supermodular", witness)
    if k >= 4 and k % 2 == 0:
        a = alpha(psi)
        if a < -eps:
            return FeasibilityVerdict(False, "negative_alpha", a)

    subsets = [
        frozenset(sub)
        for r in range(2, k + 1)
        for sub in itertools.combinations(range(k), r)
    ]
    from scipy.optimize import linprog

    # columns: constant, k linear terms, then (Z_Y, A_Y) per subset
    ncols = 1 + k + 2 * len(subsets)
    rows = []
    for idx in range(1 << k):
        bits = [(idx >> (k - 1 - p)) & 1 for p in range(k)]
        row = [0.0] * ncols
        row[0] = 1.0
        for p in range(k):
            row[1 + p] = float(bits[p])
        for s_i, sub in enumerate(subsets):
            if all(bits[p] == 0 for p in sub):
                row[1 + k + 2 * s_i] = 1.0
            if all(bits[p] == 1 for p in sub):
                row[1 + k + 2 * s_i + 1] = 1.0
        rows.append(row)
    bounds = [(None, None)] * (1 + k) + [(0, None)] * (2 * len(subsets))
    res = linprog(
        c=[0.0] * ncols,
        A_eq=rows,
        b_eq=list(psi.table),
        bounds=bounds,
        method="highs",
    )
    if res.status == 0:
        return FeasibilityVerdict(True)
    return FeasibilityVerdict(False, "lp", None)


def representation_to_model(
    rep: IndicatorRepresentation, eps: float = DEFAULT_EPS
) -> tuple[Model, float]:
    """Model whose potentials realize the representation; returns the constant.

    Indicator weights for |Y| >= 2 become clique-group tables with a single
    nonzero entry; singleton weights (either sign) become singleton tables.
    """
    names = rep.names
    order = {n: i for i, n in enumerate(names)}
    singles = {n: [0.0, 0.0] for n in names}
    tables: dict[tuple[str, ...], list[float]] = {}
    for weights, bit in ((rep.zero_weights, 0), (rep.one_weights, 1)):
        for sub, w in weights.items():
            if len(sub) == 1:
                (n,) = sub
                singles[n][bit] += w
                continue
            if abs(w) <= eps:
                continue
            scope = tuple(sorted(sub, key=order.__getitem__))
            table = tables.setdefault(scope, [0.0] * (1 << len(scope)))
            table[0 if bit == 0 else (1 << len(scope)) - 1] += w
    potentials = [Potential(scope, tuple(tab)) for scope, tab in tables.items()]
    for n in names:
        potentials.append(Potential((n,), tuple(singles[n])))
    variables = tuple((n, 2) for n in names)
    return Model(variables, tuple(potentials)), rep.constant


def potential_from_json(data: Mapping) -> HighOrderPotential:
    """Read {"scope": [names], "table": [numbers]}, checking its shape."""
    if not isinstance(data, Mapping):
        raise ModelFormatError("potential description must be a mapping")
    extra = set(data) - {"scope", "table"}
    if extra:
        raise ValueError(f"unknown keys: {sorted(extra)}")
    for key in ("scope", "table"):
        if key not in data:
            raise ModelFormatError(f"potential description has no key {key!r}")
    scope, table = data["scope"], data["table"]
    names = isinstance(scope, list) and all(isinstance(n, str) for n in scope)
    values = _as_floats(table) if isinstance(table, list) else None
    if not names or len(set(scope)) != len(scope) or values is None:
        raise ModelFormatError("scope must list distinct names and table numbers")
    return HighOrderPotential(tuple(scope), values)


def representation_to_json(rep: IndicatorRepresentation) -> dict:
    def enc(weights):
        return [
            {"subset": sorted(sub), "weight": w}
            for sub, w in sorted(weights.items(), key=lambda kv: sorted(kv[0]))
        ]

    return {
        "constant": rep.constant,
        "zero_indicators": enc(rep.zero_weights),
        "one_indicators": enc(rep.one_weights),
    }


# Order-4 table that is supermodular yet admits no nonnegative indicator
# representation (its alternating sum is -2): 2 at all-zeros, 1 at each
# single-one setting, 0 elsewhere.
SUPERMODULAR_INFEASIBLE_K4 = tuple(
    2.0 if idx == 0 else (1.0 if idx in (0b1000, 0b0100, 0b0010, 0b0001) else 0.0)
    for idx in range(16)
)
