"""MRF data model: validation, energies, signed views and the tolerance policy.

Tables hold log-potential values; the solver maximizes their sum. A table
over a scope is stored row-major with the last scope variable varying
fastest. Scopes are canonicalized to variable declaration order on load and
duplicate scopes are merged by entrywise sum. A Model built without
validation may still repeat a scope; `_summed_pairs`, the one reader of a
binary pairwise model's pair tables, sums such repeats into flat lists, and
`_summed_pairwise` adds the unaries. `_signs` holds the one fold rule:
`signed_view` keeps only the signs it gives, and `pairwise_view` folds the
edges it leaves unsigned. A validated Model carries the name index that
validation built.
`model_from_json_file`, `validate_model`, `classify_model`, `report_to_json`
and `solve_map` run with the cyclic garbage collector paused
(`_collector_paused`).
"""

from __future__ import annotations

import gc
import itertools
import math
import operator
from collections.abc import Mapping, Sequence
from functools import cached_property, wraps
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
# its pinned labelings; `tolerance`, an accepted error, past which a solve
# may miss the optimum by its own `MapSolution.slack` (twice a fold's
# `PairwiseView.slack`, or bnb's `PrunedNmrf.slack`). Only the user's `eps`
# is absolute.
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
        return tuple([name for name, _ in self.variables])


_BY_KEYWORD = object()  # the first argument came by name, as in solve_map(model=m)


def _collector_paused(fn):
    """`fn` with the cyclic garbage collector paused while it runs.

    The request path builds acyclic data, which reference counting frees,
    so a collection during it only walks the request and its model. A call
    that finds the collector off, turned off by the caller or by another
    thread's call, leaves it alone: if it turned it off anyway, it could do
    so just after that other call turned it back on, and leave it off. The
    pause is process-wide: another thread's collections wait for it. The first
    argument is taken apart from the rest so that a one-argument call
    builds no `*args` tuple, an allocation that could start a collection
    before the pause."""

    @wraps(fn)
    def call(first=_BY_KEYWORD, /, *rest, **kwargs):
        enabled = gc.isenabled()
        if enabled:
            gc.disable()
        try:
            if first is _BY_KEYWORD:
                return fn(*rest, **kwargs)
            return fn(first, *rest, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return call


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


@_collector_paused
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
        if not (type(entry) is dict or isinstance(entry, Mapping)) or len(entry) != 2:
            raise ModelFormatError(f"bad variable entry: {entry!r}")
        try:  # cheaper than testing for both keys first
            name, card = entry["name"], entry["card"]
        except KeyError:
            raise ModelFormatError(f"bad variable entry: {entry!r}") from None
        # Exact types first: an identity test costs less than an isinstance call.
        if type(name) is not str and not isinstance(name, str):
            raise ModelFormatError(f"variable name must be a string: {name!r}")
        if (
            type(card) is not int and (not isinstance(card, int) or isinstance(card, bool))
            or card < 2
        ):
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
        if not (type(entry) is dict or isinstance(entry, Mapping)) or len(entry) != 2:
            raise ModelFormatError(f"bad potential entry: {entry!r}")
        try:  # cheaper than testing for both keys first
            scope, table = entry["scope"], entry["table"]
        except KeyError:
            raise ModelFormatError(f"bad potential entry: {entry!r}") from None
        if type(scope) is not list and not isinstance(scope, (list, tuple)):
            raise ModelFormatError(f"scope must be a list of variable names: {scope!r}")
        scope = tuple(scope)
        order = len(scope)
        pos = None  # the positions in scope order, when not in declaration order
        try:
            # unrolled for the orders of a pairwise model
            if order == 2:
                i, j = index[scope[0]], index[scope[1]]
                expected = card_of[i] * card_of[j]
                if i < j:
                    key = i * n1 + j + 1
                elif i > j:
                    key = j * n1 + i + 1
                    pos = (i, j)
                else:
                    raise ModelFormatError(f"scope {list(scope)} repeats a variable")
            elif order == 1:
                i = index[scope[0]]
                expected = card_of[i]
                key = i * n1
            elif order:
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
        potential = new(Potential, (scope, values))
        prev = merged.setdefault(key, potential)
        if prev is not potential:
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
    model = Model(tuple(variables), tuple(map(merged.__getitem__, keys)))
    vars(model)["index"] = index  # the cached `Model.index`, built here already
    return model


def model_to_json(model: Model) -> dict:
    return {
        "variables": [{"name": n, "card": c} for n, c in model.variables],
        "potentials": [
            {"scope": list(p.scope), "table": list(p.table)} for p in model.potentials
        ],
    }


@_collector_paused
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
    u0: list[float]  # each variable's unary for label 0, folded edges' parts added
    u1: list[float]  # and for label 1
    tables: list[tuple[float, float, float, float]]  # each kept edge's summed table, as graph.edges
    scales: list[float]  # each kept table's largest |entry|, as graph.edges
    constant: float
    # Bound on how far folding near-zero-associativity edges moved any
    # labeling's objective.
    slack: float


def _summed_pairs(model: Model):
    """Flat lists (us, vs, tables): each pair table over (us[k], vs[k]),
    us[k] < vs[k], in the order the scopes first appear, a repeat in either
    order summed in, left to right. Raises NotBinaryPairwiseError as
    `pairwise_view` does. No pair is keyed until one repeats or comes with
    a smaller u than the last, as a validated model's never do."""
    if not {card for _, card in model.variables} <= {2}:
        raise NotBinaryPairwiseError("model must be binary pairwise")
    index = model.index
    n = len(index)
    us, vs, tables = [], [], []
    at = None  # the position in `tables` of pair (u, v), by u * n + v, once keyed
    lu, last_u = -1, [-1] * n  # the last pair's u, and the last u paired with each v
    for scope, t in model.potentials:
        if len(scope) == 2:
            u, v = index[scope[0]], index[scope[1]]
            if u > v:
                u, v, t = v, u, (t[0], t[2], t[1], t[3])
            if at is None and u >= lu and last_u[v] != u:
                lu = last_u[v] = u
            else:
                if at is None:
                    at = {x * n + y: k for k, (x, y) in enumerate(zip(us, vs))}
                k = at.setdefault(u * n + v, len(tables))
                if k < len(tables):
                    tables[k] = tuple(map(operator.add, tables[k], t))
                    continue
            us.append(u)
            vs.append(v)
            tables.append(t)
        elif len(scope) != 1:
            raise NotBinaryPairwiseError("model must be binary pairwise")
    return us, vs, tables


def _summed_pairwise(model: Model):
    """Flat lists (u0, u1, us, vs, tables): the unaries of each variable for
    labels 0 and 1, summed left to right, a lone one stored as given, and
    the summed pairs of `_summed_pairs`."""
    us, vs, tables = _summed_pairs(model)
    index = model.index
    n = len(index)
    u0, u1 = [0.0] * n, [0.0] * n
    given = bytearray(n)  # 1 once a variable's unary is stored
    for scope, t in model.potentials:
        if len(scope) == 1:
            i = index[scope[0]]
            if given[i]:
                t = (u0[i] + t[0], u1[i] + t[1])
            given[i] = 1
            u0[i], u1[i] = t
    return u0, u1, us, vs, tables


def _signs(tables, eps: float) -> list[int]:
    """The sign of each summed pair table's associativity, or 0 where the
    view folds the edge: the one fold rule, |associativity| <= eps."""
    return [
        0 if abs(a) <= eps else ASSOCIATIVE if a > 0 else REPULSIVE
        for a in [t00 + t11 - t01 - t10 for t00, t01, t10, t11 in tables]
    ]


_SIGN = operator.itemgetter(2)


def pairwise_view(model: Model, eps: float = DEFAULT_EPS) -> PairwiseView:
    """Read a binary pairwise model once: sum repeated scopes, given in
    either order, sign each edge by its associativity, and fold each edge
    with |associativity| <= eps into its two ends.

    Each summed table is unpacked once more, to fold it or for its scale.
    For every labeling, the unaries, kept tables and constant add up to the
    energy within `slack`. Raises NotBinaryPairwiseError for a label count
    other than 2 or a scope of more than two variables.
    """
    u0, u1, us, vs, tables = _summed_pairwise(model)
    signs = _signs(tables, eps)
    kept, scales = [], []
    constant = slack = 0.0
    for u, v, t, sign in zip(us, vs, tables, signs):
        t00, t01, t10, t11 = t
        if not sign:
            # Fold the separable part into the ends; the dropped interaction
            # residual is at most eps/4 per configuration.
            c = (t00 + t01 + t10 + t11) / 4.0
            u0[u] += (t00 + t01) / 2.0 - c
            u1[u] += (t10 + t11) / 2.0 - c
            u0[v] += (t00 + t10) / 2.0 - c
            u1[v] += (t01 + t11) / 2.0 - c
            constant += c
            slack += abs(t00 + t11 - t01 - t10) / 4.0
        else:
            kept.append(t)
            # max |entry| by comparisons: abs and max calls cost three times as much
            hi = t00 if t00 > t01 else t01
            lo = t00 if t00 < t01 else t01
            hi2 = t10 if t10 > t11 else t11
            lo2 = t10 if t10 < t11 else t11
            hi, lo = (hi if hi > hi2 else hi2), (lo if lo < lo2 else lo2)
            scales.append(hi if hi > -lo else -lo)
    graph = SignedGraph(model.names, tuple(filter(_SIGN, zip(us, vs, signs))))
    return PairwiseView(graph, u0, u1, kept, scales, constant, slack)


def signed_view(model: Model, eps: float = DEFAULT_EPS) -> SignedGraph:
    """Signed graph of a binary pairwise model; near-zero edges are omitted.
    It reads the summed pair tables' signs only, by the fold rule of
    `pairwise_view`, and neither folds nor keeps a table."""
    us, vs, tables = _summed_pairs(model)
    return SignedGraph(model.names, tuple(filter(_SIGN, zip(us, vs, _signs(tables, eps)))))
