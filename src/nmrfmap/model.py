"""MRF data model: validation, energies, signed views and the tolerance policy.

Tables hold log-potential values; the solver maximizes their sum. A table
over a scope is stored row-major with the last scope variable varying
fastest. Scopes are canonicalized to variable declaration order on load and
duplicate scopes are merged by entrywise sum. A Model built without
validation may still repeat a scope; `_summed_pairwise`, the one reader of
a binary pairwise model's tables, sums such repeats.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Mapping, Sequence
from functools import cached_property
from typing import NamedTuple

from .errors import (
    DuplicateVariableError,
    ModelFormatError,
    NonFiniteEntryError,
    NotBinaryPairwiseError,
    SignMismatchError,
    TableSizeMismatchError,
    UnknownVariableError,
    ZeroAssociativityError,
)

# The tolerance policy, one rule: each threshold is a stated multiple of the
# scale of the tables it decides about, the sum of each one's largest |entry|
# (a region's edge tables, a lone vertex's unary, a model's tables). TIE times
# a region's scale is a rounding tie of its flow; TOLERANCE times it, a tie of
# its pinned labelings; `tolerance`, an accepted error, to which a fold adds
# its `slack` (`oracle_tolerance`). Only the user's `eps` is absolute.
# `solve_map` accepts scales up to 1e300 and refuses overflowing sums.
DEFAULT_EPS = 1e-9
TOLERANCE = 1e-9
TIE = 1e-12

ASSOCIATIVE = 1
REPULSIVE = -1


class Potential(NamedTuple):
    """Log-potential table over an ordered variable scope."""

    scope: tuple[str, ...]
    table: tuple[float, ...]


def _read_only(self, name, *value):
    """`__setattr__` and `__delattr__` of a record that caches derived
    values in its `__dict__`: its fields and every other name stay as built."""
    raise AttributeError(f"cannot assign to field {name!r}")


class _ModelFields(NamedTuple):
    variables: tuple[tuple[str, int], ...]
    potentials: tuple[Potential, ...]


class Model(_ModelFields):
    """Variables with finite label counts plus potentials over scopes."""

    __setattr__ = __delattr__ = _read_only

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, (name, _) in enumerate(self.variables)}

    @cached_property
    def cards(self) -> dict[str, int]:
        return dict(self.variables)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.variables)


def table_index(cards: Sequence[int], values: Sequence[int]) -> int:
    """Row-major flat index, last variable fastest."""
    idx = 0
    for card, val in zip(cards, values):
        idx = idx * card + val
    return idx


def _reorder_table(scope, cards, table, new_scope):
    """Re-express a table under a permutation of its scope."""
    if tuple(new_scope) == tuple(scope):
        return tuple(table)
    pos = {name: i for i, name in enumerate(scope)}
    perm = [pos[name] for name in new_scope]
    new_cards = [cards[p] for p in perm]
    out = [0.0] * len(table)
    for new_vals in itertools.product(*(range(c) for c in new_cards)):
        old_vals = [0] * len(scope)
        for i, p in enumerate(perm):
            old_vals[p] = new_vals[i]
        out[table_index(new_cards, new_vals)] = table[table_index(cards, old_vals)]
    return tuple(out)


_FLOAT = frozenset((float,))


def _bad_entry_index(table) -> int:
    """Index of the first entry that is not a finite int or float (bools excluded)."""
    for i, v in enumerate(table):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            return i
        try:
            if not math.isfinite(v):
                return i
        except OverflowError:  # an int too large for a float
            return i
    raise AssertionError("every entry is a finite number")


def _as_floats(table) -> tuple[float, ...] | None:
    """The entries as a tuple of floats, or None if one is not an int or a
    float (bools excluded); each distinct entry type is checked once.
    `validate_model` copies plain-float tables without calling it."""
    for kind in set(map(type, table)):
        if not issubclass(kind, (int, float)) or issubclass(kind, bool):
            return None
    try:
        return tuple(map(float, table))
    except OverflowError:  # an int too large for a float
        return None


def _scope_error(scope, index) -> ModelFormatError:
    """The fault of a scope whose names failed to look up in `index`."""
    for name in scope:
        if not isinstance(name, str):
            return ModelFormatError(f"scope {list(scope)} holds a non-string name {name!r}")
        if name not in index:
            return UnknownVariableError(name, scope)
    raise AssertionError("every name is a known variable")


def validate_model(raw: Mapping) -> Model:
    """Build a Model from a raw JSON-style description, enforcing invariants.

    `variables` and `potentials` are lists or tuples, empty when absent. A
    scope is a list or tuple of declared variable names, and a table a list
    or tuple of finite ints or floats, one per labeling of the scope.
    Scopes are put in variable declaration order and duplicate scopes are
    merged by entrywise sum, left to right; every merged entry must be finite.
    The potentials come sorted by their scopes' declaration positions,
    compared as tuples: the unary over i, then each pair (i, j) by j, each
    scope (i, j, ...) of three or more variables right after the pair
    (i, j), then the unary over i + 1.
    """
    if not isinstance(raw, Mapping):
        raise ModelFormatError("model description must be a mapping")
    extra = set(raw) - {"variables", "potentials"}
    if extra:
        raise ModelFormatError(f"unknown keys: {sorted(extra)}")

    entries = {key: raw.get(key, []) for key in ("variables", "potentials")}
    for key, value in entries.items():
        if not isinstance(value, (list, tuple)):
            raise ModelFormatError(f"{key} must be a list: {value!r}")

    variables: list[tuple[str, int]] = []
    index: dict[str, int] = {}
    for entry in entries["variables"]:
        # A dict is tested first: isinstance against an ABC costs a Python call.
        if not (
            (type(entry) is dict or isinstance(entry, Mapping))
            and len(entry) == 2 and "name" in entry and "card" in entry
        ):
            raise ModelFormatError(f"bad variable entry: {entry!r}")
        name, card = entry["name"], entry["card"]
        if not isinstance(name, str):
            raise ModelFormatError(f"variable name must be a string: {name!r}")
        if not isinstance(card, int) or isinstance(card, bool) or card < 2:
            raise ModelFormatError(f"cardinality of {name!r} must be an integer >= 2")
        if name in index:
            raise DuplicateVariableError(name)
        index[name] = len(variables)
        variables.append((name, card))
    card_of = [card for _, card in variables]

    # Keyed by the scope's variable positions in declaration order: the int
    # i*(n+1) for a unary over i and i*(n+1) + j + 1 for a pair i < j, which
    # sort like the position tuples (i,) < (i, j) < (i + 1,); a scope of three
    # or more variables is keyed by its sorted position tuple.
    n1 = len(variables) + 1
    merged: dict[int | tuple[int, ...], Potential] = {}
    summed: list[int | tuple[int, ...]] = []
    wide = False  # some key is a tuple
    # tuple.__new__ skips the Python-level NamedTuple constructor.
    new = tuple.__new__
    for entry in entries["potentials"]:
        if not (
            (type(entry) is dict or isinstance(entry, Mapping))
            and len(entry) == 2 and "scope" in entry and "table" in entry
        ):
            raise ModelFormatError(f"bad potential entry: {entry!r}")
        scope, table = entry["scope"], entry["table"]
        if type(scope) is not list and not isinstance(scope, (list, tuple)):
            raise ModelFormatError(f"scope must be a list of variable names: {scope!r}")
        scope = tuple(scope)
        pos = None  # the positions in scope order, when not in declaration order
        try:
            # unrolled for the orders of a pairwise model
            if len(scope) == 2:
                i, j = index[scope[0]], index[scope[1]]
                expected = card_of[i] * card_of[j]
                if i < j:
                    key = i * n1 + j + 1
                elif i > j:
                    key = j * n1 + i + 1
                    pos = (i, j)
                else:
                    raise ModelFormatError(f"scope {list(scope)} repeats a variable")
            elif len(scope) == 1:
                i = index[scope[0]]
                expected = card_of[i]
                key = i * n1
            elif scope:
                pos = tuple(map(index.__getitem__, scope))
                key = tuple(sorted(pos))
                if len(set(key)) != len(key):
                    raise ModelFormatError(f"scope {list(scope)} repeats a variable")
                expected = math.prod([card_of[i] for i in pos])
                wide = True
                if key == pos:
                    pos = None
            else:
                raise ModelFormatError("empty potential scope")
        except (KeyError, TypeError):  # an unknown, non-string or unhashable name
            raise _scope_error(scope, index) from None
        if type(table) is not list and not isinstance(table, (list, tuple)):
            raise TableSizeMismatchError(scope, expected, None)
        if len(table) != expected:
            raise TableSizeMismatchError(scope, expected, len(table))
        # The common all-float table is copied as it is; a finite sum
        # means finite entries.
        if _FLOAT.issuperset(map(type, table)) and math.isfinite(sum(table)):
            values = tuple(table)
        else:
            values = _as_floats(table)
            if values is None or not all(map(math.isfinite, values)):
                raise NonFiniteEntryError(scope, _bad_entry_index(table))
        if pos is not None:
            canon = tuple([variables[i][0] for i in sorted(pos)])
            values = _reorder_table(scope, [card_of[i] for i in pos], values, canon)
            scope = canon
        prev = merged.get(key)
        if prev is None:
            merged[key] = new(Potential, (scope, values))
        else:
            merged[key] = new(Potential, (prev.scope, tuple(map(operator.add, prev.table, values))))
            summed.append(key)
    for key in summed:
        scope, values = merged[key]
        if not all(map(math.isfinite, values)):
            raise NonFiniteEntryError(scope, _bad_entry_index(values))

    if wide:
        def position(key):
            if type(key) is tuple:
                return key
            i, j = divmod(key, n1)
            return (i, j - 1) if j else (i,)

        keys = sorted(merged, key=position)
    else:
        keys = sorted(merged)
    return Model(tuple(variables), tuple([merged[key] for key in keys]))


def model_to_json(model: Model) -> dict:
    return {
        "variables": [{"name": n, "card": c} for n, c in model.variables],
        "potentials": [
            {"scope": list(p.scope), "table": list(p.table)} for p in model.potentials
        ],
    }


def model_from_json_file(path: str) -> Model:
    import json  # the request path takes a parsed document

    with open(path) as fh:
        return validate_model(json.load(fh))


def energy(model: Model, assignment: Mapping[str, int]) -> float:
    """Value of the MAP objective at a full configuration."""
    cards = model.cards
    total = 0.0
    for p in model.potentials:
        idx = 0  # table_index, inline
        for name in p.scope:
            idx = idx * cards[name] + assignment[name]
        total += p.table[idx]
    return total


def associativity(table) -> float:
    """psi00 + psi11 - psi01 - psi10 of a flat or nested 2x2 edge table."""
    if len(table) == 2 and hasattr(table[0], "__len__"):
        try:
            (t00, t01), (t10, t11) = table
        except (TypeError, ValueError):  # a row that is not a pair
            raise ModelFormatError("edge table must be 2x2") from None
    elif len(table) == 4:
        t00, t01, t10, t11 = table
    else:
        raise ModelFormatError("edge table must be 2x2")
    t00, t01, t10, t11 = float(t00), float(t01), float(t10), float(t11)
    return t00 + t11 - t01 - t10


def single_enode(t, i: int, j: int, eps: float):
    """Rewrite of the flat edge table t = (t00, t01, t10, t11) to the single
    enode (i, j) by singleton transformations, as plain floats
    (weight, f_i, row0, row1): the enode weighs |associativity|, the first
    end's unary gains f_i at label i, and the second end's gains row 1 - i
    of t, (row0, row1).
    """
    a = t[0] + t[3] - t[1] - t[2]
    if abs(a) <= eps:
        raise ZeroAssociativityError("edge has zero associativity")
    if (i == j) != (a > 0):
        raise SignMismatchError(
            f"form {i}{j} incompatible with associativity {a:g}"
        )
    # Solve t[2x + y] = f(x) + g(y) for the three zeroed entries, with
    # f(1 - i) = 0 fixed: g is row 1 - i, and the survivor then equals
    # +/- associativity.
    r = 2 - 2 * i
    return abs(a), t[2 * i + 1 - j] - t[r + 1 - j], t[r], t[r + 1]


def tolerance(tables) -> float:
    """TOLERANCE times the scale of `tables`, or TOLERANCE if that is below 1."""
    return TOLERANCE * max(1.0, sum(max(map(abs, t)) for t in tables))


def objective_tolerance(model: Model) -> float:
    """Largest accepted gap between a returned objective and the optimum."""
    return tolerance(p.table for p in model.potentials)


def oracle_tolerance(model: Model, eps: float | None) -> float:
    """`objective_tolerance` plus twice the `slack` of a solve that folded at `eps`."""
    slack = 0.0 if eps is None else pairwise_view(model, eps).slack
    return objective_tolerance(model) + 2 * slack


def is_binary_pairwise(model: Model) -> bool:
    return all(c == 2 for _, c in model.variables) and all(
        len(p.scope) <= 2 for p in model.potentials
    )


class SignedGraph(NamedTuple):
    """Pairwise topology with each edge labeled by the sign of its associativity."""

    names: tuple[str, ...]
    edges: tuple[tuple[int, int, int], ...]  # (u, v, sign) with u < v

    @property
    def n(self) -> int:
        return len(self.names)


class PairwiseView(NamedTuple):
    """A binary pairwise model as read once by `pairwise_view`."""

    graph: SignedGraph  # the names, and every kept edge with its sign
    singles: dict[int, tuple[float, float]]
    edges: dict[tuple[int, int], tuple[float, float, float, float]]  # kept, u < v, as in graph.edges
    constant: float
    # Bound on how far folding near-zero-associativity edges moved any
    # labeling's objective.
    slack: float


def _summed_pairwise(model: Model):
    """The unary tables keyed by variable position i and the pair tables
    keyed (u, v) with u < v, each scope given more than once, in either
    order, summed left to right. Raises NotBinaryPairwiseError as
    `pairwise_view` does."""
    if not all(card == 2 for _, card in model.variables):
        raise NotBinaryPairwiseError("model must be binary pairwise")
    index = model.index
    # Each potential's own table is stored; a repeat stores the sum.
    singles: dict[int, tuple[float, float]] = {}
    edges: dict[tuple[int, int], tuple[float, float, float, float]] = {}
    for p in model.potentials:
        scope, t = p.scope, p.table
        if len(scope) == 2:
            u, v = index[scope[0]], index[scope[1]]
            if u > v:
                u, v, t = v, u, (t[0], t[2], t[1], t[3])
            key = (u, v)
            if key in edges:
                s = edges[key]
                t = (s[0] + t[0], s[1] + t[1], s[2] + t[2], s[3] + t[3])
            edges[key] = t
        elif len(scope) == 1:
            i = index[scope[0]]
            if i in singles:
                s = singles[i]
                t = (s[0] + t[0], s[1] + t[1])
            singles[i] = t
        else:
            raise NotBinaryPairwiseError("model must be binary pairwise")
    return singles, edges


def pairwise_view(model: Model, eps: float = DEFAULT_EPS) -> PairwiseView:
    """Read a binary pairwise model once: sum repeated scopes, given in
    either order, sign each edge by its associativity, and fold each edge
    with |associativity| <= eps into its two ends.

    For every labeling, the singles, the kept edge tables and the constant
    add up to the model's energy within `slack`. Raises
    NotBinaryPairwiseError for a label count other than 2 or a scope of
    more than two variables.
    """
    singles, edges = _summed_pairwise(model)
    signed = []
    folded = []
    constant = slack = 0.0
    for (u, v), (t00, t01, t10, t11) in edges.items():
        a = t00 + t11 - t01 - t10  # associativity
        if abs(a) <= eps:
            # Fold the separable part into the ends; the dropped interaction
            # residual is at most eps/4 per configuration.
            folded.append((u, v))
            c = (t00 + t01 + t10 + t11) / 4.0
            s = singles.get(u, (0.0, 0.0))
            singles[u] = (s[0] + ((t00 + t01) / 2.0 - c), s[1] + ((t10 + t11) / 2.0 - c))
            s = singles.get(v, (0.0, 0.0))
            singles[v] = (s[0] + ((t00 + t10) / 2.0 - c), s[1] + ((t01 + t11) / 2.0 - c))
            constant += c
            slack += abs(a) / 4.0
        else:
            signed.append((u, v, ASSOCIATIVE if a > 0 else REPULSIVE))
    for key in folded:
        del edges[key]
    graph = SignedGraph(model.names, tuple(signed))
    return PairwiseView(graph, singles, edges, constant, slack)


def signed_view(model: Model, eps: float = DEFAULT_EPS) -> SignedGraph:
    """Signed graph of a binary pairwise model; near-zero edges are omitted."""
    return pairwise_view(model, eps).graph

