import gc
import inspect
import itertools
import json
import math
import sys
import threading
import time
import types
from collections.abc import Mapping

import numpy as np
import pytest

import nmrfmap.mwss
import nmrfmap.structure
from generators import block_chain_model, random_signed_model
from helpers import flip_variables, potential_for
from nmrfmap.errors import (
    DuplicateVariableError,
    IntractableTopologyError,
    ModelFormatError,
    NmrfmapError,
    NonFiniteEntryError,
    NotBinaryPairwiseError,
    TableSizeMismatchError,
    UnknownVariableError,
)
from nmrfmap.model import (
    ASSOCIATIVE,
    REPULSIVE,
    Model,
    Potential,
    associativity,
    energy,
    is_binary_pairwise,
    model_from_json_file,
    model_to_json,
    pairwise_view,
    signed_view,
    table_index,
    validate_model,
)
from nmrfmap.mwss import solve_map
from nmrfmap.nmrf import compile_pairwise
from nmrfmap.structure import classify_model, enode_forms, report_to_json


def two_var_raw():
    return {
        "variables": [{"name": "A", "card": 2}, {"name": "B", "card": 2}],
        "potentials": [
            {"scope": ["A"], "table": [0.0, 1.0]},
            {"scope": ["A", "B"], "table": [2.0, 0.0, 0.0, 3.0]},
        ],
    }


def test_validate_round_trip():
    model = validate_model(two_var_raw())
    assert model.names == ("A", "B")
    assert validate_model(model_to_json(model)) == model


def test_scope_canonicalized_to_declaration_order():
    raw = two_var_raw()
    # same table expressed over the reversed scope
    raw["potentials"][1] = {"scope": ["B", "A"], "table": [2.0, 0.0, 0.0, 3.0]}
    model = validate_model(raw)
    p = potential_for(model, ("A", "B"))
    assert p.scope == ("A", "B")
    assert p.table == (2.0, 0.0, 0.0, 3.0)  # symmetric table is unchanged

    raw["potentials"][1] = {"scope": ["B", "A"], "table": [0.0, 5.0, 1.0, 0.0]}
    p = potential_for(validate_model(raw), ("A", "B"))
    # entry (B=0, A=1) = 5 must land at (A=1, B=0)
    assert p.table == (0.0, 1.0, 5.0, 0.0)


def test_duplicate_scopes_merge_by_sum():
    raw = two_var_raw()
    raw["potentials"].append({"scope": ["B", "A"], "table": [1.0, 1.0, 1.0, 1.0]})
    model = validate_model(raw)
    assert len(model.potentials) == 2
    assert potential_for(model, ("A", "B")).table == (3.0, 1.0, 1.0, 4.0)


def test_validate_rejects_unknown_keys():
    raw = two_var_raw()
    raw["metadata"] = {}
    with pytest.raises(ModelFormatError):
        validate_model(raw)
    raw = two_var_raw()
    raw["potentials"][0]["comment"] = "hi"
    with pytest.raises(ModelFormatError):
        validate_model(raw)
    for bad_entry in ({"scope": ["A"]}, {"table": [0.0, 1.0]}, ["A", [0.0, 1.0]], {}):
        raw = two_var_raw()
        raw["potentials"][0] = bad_entry
        with pytest.raises(ModelFormatError):
            validate_model(raw)
    for bad_entry in ({"name": "A"}, {"name": "A", "card": 2, "x": 0}, ("A", 2)):
        raw = two_var_raw()
        raw["variables"][0] = bad_entry
        with pytest.raises(ModelFormatError):
            validate_model(raw)


def test_validate_rejects_bad_variables():
    with pytest.raises(DuplicateVariableError):
        validate_model(
            {"variables": [{"name": "A", "card": 2}, {"name": "A", "card": 2}],
             "potentials": []}
        )
    with pytest.raises(ModelFormatError):
        validate_model({"variables": [{"name": "A", "card": 1}], "potentials": []})
    for card in (True, 2.0, "2", None):
        with pytest.raises(ModelFormatError):
            validate_model({"variables": [{"name": "A", "card": card}], "potentials": []})
    with pytest.raises(ModelFormatError):
        validate_model({"variables": [{"name": 1, "card": 2}], "potentials": []})


def test_validate_rejects_bad_potentials():
    raw = two_var_raw()
    raw["potentials"][0]["scope"] = ["Z"]
    with pytest.raises(UnknownVariableError):
        validate_model(raw)

    raw = two_var_raw()
    raw["potentials"][1]["table"] = [1.0, 2.0]
    with pytest.raises(TableSizeMismatchError):
        validate_model(raw)

    raw = two_var_raw()
    raw["potentials"][0]["table"] = [0.0, math.inf]
    with pytest.raises(NonFiniteEntryError):
        validate_model(raw)

    raw = two_var_raw()
    raw["potentials"][1]["scope"] = ["A", "A"]
    with pytest.raises(ModelFormatError):
        validate_model(raw)

    for table in ("ab", {0: 0.0, 1: 1.0}, 7, None, iter([0.0, 1.0])):
        raw = two_var_raw()
        raw["potentials"][0]["table"] = table
        with pytest.raises(TableSizeMismatchError) as info:
            validate_model(raw)
        assert info.value.got is None
        assert str(info.value) == "table for scope ['A'] is not a list of 2 entries"

    for bad in (True, False, "1.0", None, math.nan, -math.inf, np.int64(1), [0.0]):
        raw = two_var_raw()
        raw["potentials"][1]["table"] = [0.0, 1.0, bad, 2.0]
        with pytest.raises(NonFiniteEntryError) as info:
            validate_model(raw)
        assert info.value.index == 2


def test_validate_rejects_malformed_scopes():
    """A scope that is not a list or tuple of names, or holds a non-string
    or unhashable name, is a format error whose message names the fault, as
    the reference validator says."""
    cases = [
        (5, "scope must be a list of variable names: 5"),
        (None, "scope must be a list of variable names: None"),
        ("AB", "scope must be a list of variable names: 'AB'"),
        ({"A": 0}, "scope must be a list of variable names: {'A': 0}"),
        ([["A"]], "scope [['A']] holds a non-string name ['A']"),
        (["A", 1], "scope ['A', 1] holds a non-string name 1"),
        ([("A",)], "scope [('A',)] holds a non-string name ('A',)"),
    ]
    for scope, message in cases:
        raw = two_var_raw()
        raw["potentials"][1]["scope"] = scope
        with pytest.raises(ModelFormatError) as info:
            validate_model(raw)
        assert type(info.value) is ModelFormatError and str(info.value) == message
        assert _outcome(validate_model, raw) == _outcome(reference_validate_model, raw)
    # The first bad name decides, as in the reference.
    raw = two_var_raw()
    raw["potentials"][1]["scope"] = ["Z", ["A"]]
    with pytest.raises(UnknownVariableError):
        validate_model(raw)


def test_table_index_last_fastest():
    assert table_index([2, 3], [1, 2]) == 5
    assert table_index([2, 2, 2], [1, 0, 1]) == 5


def test_energy_matches_manual_sum():
    model = validate_model(two_var_raw())
    assert energy(model, {"A": 0, "B": 0}) == 2.0
    assert energy(model, {"A": 1, "B": 1}) == 1.0 + 3.0
    assert energy(model, {"A": 1, "B": 0}) == 1.0


def test_associativity_sign():
    assert associativity((1.0, 0.0, 0.0, 1.0)) == 2.0
    assert associativity((0.0, 1.0, 1.0, 0.0)) == -2.0
    assert associativity([[1.0, 0.0], [0.0, 1.0]]) == 2.0


@pytest.mark.parametrize("table", [
    [1, 2, 3],
    [[1, 2, 3], [4, 5, 6]],
    [[1, 2], [3]],
    [[1, 2], 3],
])
def test_associativity_rejects_tables_that_are_not_2x2(table):
    with pytest.raises(ModelFormatError, match="edge table must be 2x2"):
        associativity(table)


def test_is_binary_pairwise():
    model = validate_model(two_var_raw())
    assert is_binary_pairwise(model)
    raw = {
        "variables": [{"name": "A", "card": 3}],
        "potentials": [{"scope": ["A"], "table": [0.0, 1.0, 2.0]}],
    }
    assert not is_binary_pairwise(validate_model(raw))


def test_signed_view_drops_near_zero_edges():
    raw = two_var_raw()
    raw["potentials"].append(
        {"scope": ["A"], "table": [0.0, 0.0]}
    )
    model = validate_model(raw)
    g = signed_view(model)
    assert g.edges == ((0, 1, ASSOCIATIVE),)

    raw = two_var_raw()
    raw["potentials"][1]["table"] = [1.0, 1.0, 2.0, 2.0]  # separable, a = 0
    assert signed_view(validate_model(raw)).edges == ()


def _repeated_scope_model(rng):
    """Random edges, each split into two or three parts over the scope in
    either order; some sum to a table of zero or near-zero associativity.
    Singleton scopes repeat too."""
    n = int(rng.integers(2, 6))
    names = [f"X{i}" for i in range(n)]
    potentials = []
    for i in range(n):
        for _ in range(int(rng.integers(0, 3))):
            potentials.append(Potential((names[i],), tuple(rng.normal(size=2))))
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < 0.3:
            continue
        kind = rng.integers(3)
        if kind == 0:
            a = 0.0
        elif kind == 1:
            a = float(rng.uniform(-1e-9, 1e-9))  # within DEFAULT_EPS
        else:
            a = float(rng.normal())
        # A separable table f(x) + g(y) plus a on the (1, 1) entry.
        f, g = rng.normal(size=2), rng.normal(size=2)
        rest = [f[x] + g[y] for x in (0, 1) for y in (0, 1)]
        rest[3] += a
        for _ in range(int(rng.integers(1, 3))):
            part = rng.normal(scale=3.0, size=4)
            rest = [r - p for r, p in zip(rest, part)]
            potentials.append(_oriented(names[u], names[v], part, rng))
        potentials.append(_oriented(names[u], names[v], rest, rng))
    order = rng.permutation(len(potentials))
    return Model(
        tuple((name, 2) for name in names), tuple(potentials[i] for i in order)
    )


def _oriented(u, v, t, rng):
    t = [float(x) for x in t]
    if rng.random() < 0.5:
        return Potential((v, u), (t[0], t[2], t[1], t[3]))
    return Potential((u, v), tuple(t))


def test_pairwise_view_adds_up_to_the_energy():
    rng = np.random.default_rng(41)
    folded = 0
    for _ in range(60):
        model = _repeated_scope_model(rng)
        view = pairwise_view(model)
        assert len(view.tables) == len(view.scales) == len(view.graph.edges)
        assert len(view.u0) == len(view.u1) == len(model.variables)
        ends = [(u, v) for u, v, _ in view.graph.edges]
        assert len(set(ends)) == len(ends)
        for (u, v, sign), t, scale in zip(view.graph.edges, view.tables, view.scales):
            a = associativity(t)
            assert u < v and abs(a) > 1e-9
            assert sign == (ASSOCIATIVE if a > 0 else REPULSIVE)
            assert scale == max(map(abs, t))
        folded += view.slack > 0
        rounding = 1e-12 * sum(max(map(abs, p.table)) for p in model.potentials)
        for labels in itertools.product((0, 1), repeat=len(model.variables)):
            x = dict(zip(model.names, labels))
            value = view.constant
            value += sum((view.u1 if y else view.u0)[i] for i, y in enumerate(labels))
            value += sum(
                t[2 * labels[u] + labels[v]] for (u, v, _), t in zip(view.graph.edges, view.tables)
            )
            assert abs(value - energy(model, x)) <= view.slack + rounding
    assert folded > 10


def test_enode_rewrite_sums_repeated_scopes_and_keeps_the_energy():
    """`compile_pairwise`, a reader of the view, on scopes repeated in both
    orders with folded and near-zero edges: one clique group per variable
    and per summed pair scope that the view keeps, none for one it folds, a
    single enode on each planned edge, and every labeling's energy, up to
    the weights of at most eps that are not written and the view's own
    `slack` for the folded edges, read off the written nodes that agree
    with it."""
    rng = np.random.default_rng(43)
    planned = folded = 0
    for _ in range(60):
        model = _repeated_scope_model(rng)
        nmrf, report = compile_pairwise(model)
        names = model.names
        pairs = {frozenset(p.scope) for p in model.potentials if len(p.scope) == 2}
        kept = {frozenset((names[u], names[v])) for u, v, _ in report.graph.edges}
        folded += len(pairs - kept)
        scopes = list(nmrf.groups)
        assert [s for s in scopes if len(s) == 1] == [(name,) for name in names]
        assert len(set(scopes)) == len(scopes) == len(model.variables) + len(kept)
        assert {frozenset(s) for s in scopes if len(s) == 2} == kept <= pairs
        for (u, v, _), form in zip(report.graph.edges, enode_forms(report)):
            planned += 1
            ids = nmrf.groups[names[u], names[v]]
            assert [nmrf.nodes[i].assignment for i in ids] == [form]
        rounding = 1e-12 * sum(max(map(abs, p.table)) for p in model.potentials)
        unwritten = 1e-9 * len(scopes)
        slack = pairwise_view(model).slack
        for labels in itertools.product((0, 1), repeat=len(model.variables)):
            x = dict(zip(names, labels))
            value = nmrf.constant + sum(
                node.weight for node in nmrf.nodes
                if all(x[name] == val for name, val in zip(node.scope, node.assignment))
            )
            assert abs(value - energy(model, x)) <= rounding + unwritten + slack
    assert planned > 40 and folded > 10


def test_pairwise_view_refuses_other_models():
    for raw in (
        {"variables": [{"name": "A", "card": 3}], "potentials": []},
        {
            "variables": [{"name": n, "card": 2} for n in "ABC"],
            "potentials": [{"scope": ["A", "B", "C"], "table": [0.0] * 8}],
        },
    ):
        with pytest.raises(NotBinaryPairwiseError):
            pairwise_view(validate_model(raw))


def test_flip_preserves_energy_and_negates_cut_signs():
    rng = np.random.default_rng(3)
    raw = {
        "variables": [{"name": n, "card": 2} for n in "ABC"],
        "potentials": [
            {"scope": ["A", "B"], "table": list(rng.normal(size=4))},
            {"scope": ["B", "C"], "table": list(rng.normal(size=4))},
            {"scope": ["A"], "table": list(rng.normal(size=2))},
        ],
    }
    model = validate_model(raw)
    flipped = flip_variables(model, ["B"])
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                cfg = {"A": a, "B": b, "C": c}
                mirrored = {"A": a, "B": 1 - b, "C": c}
                assert energy(model, cfg) == pytest.approx(energy(flipped, mirrored))
    before = {(u, v): s for u, v, s in signed_view(model).edges}
    after = {(u, v): s for u, v, s in signed_view(flipped).edges}
    # every edge touches B exactly once, so every sign flips
    assert all(after[e] == -before[e] for e in before)


def test_huge_int_entry_is_non_finite():
    raw = two_var_raw()
    raw["potentials"][0]["table"] = [10 ** 400, 0]
    with pytest.raises(NonFiniteEntryError) as info:
        validate_model(raw)
    assert info.value.index == 0


def test_merged_duplicate_scopes_must_stay_finite():
    raw = two_var_raw()
    raw["potentials"] = [
        {"scope": ["A"], "table": [1.5e308, 0]},
        {"scope": ["A"], "table": [1.5e308, 0]},
    ]
    with pytest.raises(NonFiniteEntryError) as info:
        validate_model(raw)
    assert info.value.index == 0 and info.value.scope == ("A",)

    raw["potentials"][1]["table"] = [-1.5e308, 0]
    assert validate_model(raw).potentials == (Potential(("A",), (0.0, 0.0)),)


# ---------------------------------------------------------------------------
# golden comparison with the reference algorithm below, a copy of the
# straightforward per-entry validator this package started from


def _reference_reorder_table(scope, cards, table, new_scope):
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


def reference_validate_model(raw):
    if not isinstance(raw, Mapping):
        raise ModelFormatError("model description must be a mapping")
    extra = set(raw) - {"variables", "potentials"}
    if extra:
        raise ModelFormatError(f"unknown keys: {sorted(extra)}")

    variables = []
    seen = set()
    for entry in raw.get("variables", []):
        if not isinstance(entry, Mapping) or set(entry) != {"name", "card"}:
            raise ModelFormatError(f"bad variable entry: {entry!r}")
        name, card = entry["name"], entry["card"]
        if not isinstance(name, str):
            raise ModelFormatError(f"variable name must be a string: {name!r}")
        if not isinstance(card, int) or isinstance(card, bool) or card < 2:
            raise ModelFormatError(f"cardinality of {name!r} must be an integer >= 2")
        if name in seen:
            raise DuplicateVariableError(name)
        seen.add(name)
        variables.append((name, card))

    index = {name: i for i, (name, _) in enumerate(variables)}
    cards = dict(variables)

    merged = {}
    for entry in raw.get("potentials", []):
        if not isinstance(entry, Mapping) or set(entry) != {"scope", "table"}:
            raise ModelFormatError(f"bad potential entry: {entry!r}")
        scope = entry["scope"]
        if not isinstance(scope, (list, tuple)):
            raise ModelFormatError(f"scope must be a list of variable names: {scope!r}")
        scope = tuple(scope)
        if not scope:
            raise ModelFormatError("empty potential scope")
        for name in scope:
            if not isinstance(name, str):
                raise ModelFormatError(f"scope {list(scope)} holds a non-string name {name!r}")
            if name not in index:
                raise UnknownVariableError(name, scope)
        if len(set(scope)) != len(scope):
            raise ModelFormatError(f"scope {list(scope)} repeats a variable")
        table = entry["table"]
        scope_cards = [cards[name] for name in scope]
        expected = math.prod(scope_cards)
        if not isinstance(table, (list, tuple)):
            raise TableSizeMismatchError(scope, expected, None)
        if len(table) != expected:
            raise TableSizeMismatchError(scope, expected, len(table))
        values = []
        for i, v in enumerate(table):
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise NonFiniteEntryError(scope, i)
            values.append(float(v))
        canon = tuple(sorted(scope, key=index.__getitem__))
        values = list(_reference_reorder_table(scope, scope_cards, values, canon))
        if canon in merged:
            merged[canon] = [a + b for a, b in zip(merged[canon], values)]
        else:
            merged[canon] = values

    potentials = tuple(
        Potential(scope, tuple(tab))
        for scope, tab in sorted(merged.items(), key=lambda kv: tuple(index[n] for n in kv[0]))
    )
    return Model(tuple(variables), potentials)


def random_raw_model(rng):
    """Raw model with shuffled declaration order, 2- and 3-label variables,
    scopes of order 1 to 3 in any order, repeated scopes, int and float
    entries, lists and tuples, and dict or read-only mapping entries."""
    n = int(rng.integers(2, 7))
    names = [f"V{k}" for k in rng.permutation(n)]
    cards = {name: int(rng.choice([2, 2, 3])) for name in names}

    def mapping(doc):
        return types.MappingProxyType(doc) if rng.random() < 0.3 else doc

    potentials = []
    scopes = []
    for _ in range(int(rng.integers(1, 14))):
        if scopes and rng.random() < 0.3:
            scope = list(scopes[int(rng.integers(len(scopes)))])
            scope = [scope[i] for i in rng.permutation(len(scope))]
        else:
            order = int(rng.integers(1, min(3, n) + 1))
            scope = [names[i] for i in rng.choice(n, size=order, replace=False)]
        scopes.append(scope)
        size = math.prod(cards[name] for name in scope)
        if rng.random() < 0.3:
            table = [int(x) for x in rng.integers(-5, 6, size=size)]
        else:
            table = [float(x) for x in rng.uniform(-3, 3, size=size)]
            table[0] = int(rng.integers(-2, 3))
        if rng.random() < 0.3:
            table = tuple(table)
        potentials.append(mapping({"scope": scope, "table": table}))
    variables = [mapping({"name": name, "card": cards[name]}) for name in names]
    return {"variables": variables, "potentials": potentials}


def _outcome(validate, raw):
    try:
        return validate(raw)
    except Exception as exc:
        return type(exc), str(exc)


def _corrupt(raw, rng):
    """A copy of `raw` with one potential's entry, scope or table made invalid."""
    potentials = [dict(p) for p in raw["potentials"]]
    p = potentials[int(rng.integers(len(potentials)))]
    kind = int(rng.integers(4))
    if kind == 0:
        table = list(p["table"])
        bad = (True, "1", None, math.nan, math.inf, np.int64(2), [1.0])
        table[int(rng.integers(len(table)))] = bad[int(rng.integers(len(bad)))]
        p["table"] = table
    elif kind == 1:
        p["scope"] = list(p["scope"]) + [("Z", p["scope"][0], ["unhashable"])[int(rng.integers(3))]]
    elif kind == 2:
        p["table"] = list(p["table"])[:-1]
    else:
        p["scope"] = []
    return {"variables": raw["variables"], "potentials": potentials}


def test_validate_matches_reference_algorithm():
    rng = np.random.default_rng(20261018)
    for _ in range(400):
        raw = random_raw_model(rng)
        model = validate_model(raw)
        assert model == reference_validate_model(raw)
        assert all(
            type(p.table) is tuple and all(type(x) is float for x in p.table)
            for p in model.potentials
        )
        assert all(type(p.scope) is tuple for p in model.potentials)
        bad = _corrupt(raw, rng)
        assert _outcome(validate_model, bad) == _outcome(reference_validate_model, bad)


def test_potential_order_is_the_position_tuple_order():
    """Potentials come sorted by their variables' declaration positions, as
    tuples, whatever the scope orders mixed in one model: a unary over i
    comes before every pair (i, j), a pair (i, n - 1) before the unary over
    i + 1, and a triple (i, j, k) between the pairs (i, j) and (i, j + 1)."""
    rng = np.random.default_rng(20261019)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        names = [f"V{k}" for k in rng.permutation(n)]
        potentials = []
        for _ in range(int(rng.integers(1, 16))):
            order = int(rng.integers(1, min(4, n) + 1))
            scope = [names[i] for i in rng.choice(n, size=order, replace=False)]
            potentials.append({"scope": scope, "table": [0.0] * 2 ** order})
        potentials.append({"scope": [names[-1], names[0]], "table": [0.0] * 4})
        if n > 2:
            potentials.append({"scope": [names[1]], "table": [0.0] * 2})
        raw = {"variables": [{"name": nm, "card": 2} for nm in names], "potentials": potentials}
        model = validate_model(raw)
        index = model.index
        got = [tuple(index[name] for name in p.scope) for p in model.potentials]
        expected = sorted({tuple(sorted(index[name] for name in p["scope"])) for p in potentials})
        assert got == expected
        assert model == reference_validate_model(raw)


def _pairs_doc(names, pairs, unaries=()):
    return {
        "variables": [{"name": n, "card": 2} for n in names],
        "potentials": [{"scope": list(scope), "table": list(t)} for scope, t in pairs]
        + [{"scope": [name], "table": list(t)} for name, t in unaries],
    }


# A 4-cycle with one repulsive edge: refused by solve_map, reported
# intractable by classify_model.
_ATTRACT, _REPEL = (1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0)
_FRUSTRATED = _pairs_doc("ABCD", [(("A", "B"), _REPEL), (("B", "C"), _ATTRACT),
                                  (("C", "D"), _ATTRACT), (("A", "D"), _ATTRACT)])
_ORDER_3 = {
    "variables": [{"name": n, "card": 2} for n in "ABC"],
    "potentials": [{"scope": ["A", "B", "C"], "table": [0.0] * 8}],
}


def _request_round():
    """Documents of every kind a request brings: tractable, refused,
    near-tie, folded-edge, repeated-scope, higher-order and malformed."""
    rng = np.random.default_rng(30)
    near_tie = _pairs_doc(
        [f"X{i}" for i in range(12)], [(("X3", "X7"), (1.5, 0.0, 0.0, 0.5))],
        [(f"X{i}", (0.0, float(rng.uniform(2e-8, 1e-7)))) for i in range(12)],
    )
    # (C, D) has associativity 1e-12 and is folded into its ends.
    folded = _pairs_doc("ABCD", [(("B", "A"), (1.0, 0.0, 0.0, 2.0)), (("B", "C"), (0.0, 1.0, 1.0, 2.0)),
                                 (("C", "D"), (1.0, 2.0, 3.0, 4.0 + 1e-12))], [("A", (0.0, 0.5))])
    repeated = _pairs_doc("AB", [(("A", "B"), (2.0, 0.0, 0.0, 2.0)), (("B", "A"), _REPEL)])
    malformed = [
        {"variables": [], "junk": 1},
        _pairs_doc("AB", [(("A", "Z"), (0.0,) * 4)]),
        _pairs_doc("AB", [(("A", "B"), (0.0, math.nan, 0.0, 0.0))]),
        _pairs_doc("AB", [(("A", "B"), (0.0,) * 3)]),
        [1, 2],
    ]
    return [
        model_to_json(block_chain_model(40)),
        *(model_to_json(random_signed_model(rng, n=8)) for _ in range(6)),
        _FRUSTRATED, near_tie, folded, repeated, _ORDER_3, *malformed,
    ]


def _set_collector(enabled):
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_entry_points_leave_the_collector_as_they_found_it(enabled, tmp_path):
    """model_from_json_file, validate_model, classify_model, report_to_json
    and solve_map pause the cyclic collector while they run; each returns or
    raises with it as the caller left it, and never turns on one the caller
    turned off."""
    model = validate_model(two_var_raw())
    path = tmp_path / "model.json"
    path.write_text(json.dumps(two_var_raw()))
    calls = [
        (model_from_json_file, str(path), None),
        (validate_model, two_var_raw(), None),
        (classify_model, model, None),
        (report_to_json, classify_model(model), None),
        (solve_map, model, None),
        (validate_model, {"variables": [], "junk": 1}, ModelFormatError),
        (classify_model, validate_model(_ORDER_3), NotBinaryPairwiseError),
        (solve_map, validate_model(_FRUSTRATED), IntractableTopologyError),
    ]
    was = gc.isenabled()
    try:
        for fn, arg, error in calls:
            _set_collector(enabled)
            if error is None:
                fn(arg)
            else:
                with pytest.raises(error):
                    fn(arg)
            assert gc.isenabled() is enabled, fn.__name__
    finally:
        _set_collector(was)


def test_threads_leave_the_collector_on():
    """Calls from many threads at once: one that finds the collector off,
    because another thread's call paused it, must not turn it off itself,
    or the collector stays off after that other call turns it back on."""

    def work(stop):
        while not stop.is_set():
            validate_model({})

    assert gc.isenabled()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            stop = threading.Event()
            threads = [threading.Thread(target=work, args=(stop,)) for _ in range(8)]
            for thread in threads:
                thread.start()
            time.sleep(0.25)
            stop.set()
            for thread in threads:
                thread.join(10)
            assert not any(thread.is_alive() for thread in threads)
            assert gc.isenabled()
    finally:
        sys.setswitchinterval(interval)
        gc.enable()


def test_entry_points_run_with_the_collector_paused(monkeypatch, tmp_path):
    seen = []

    def spy(module, name):
        inner = getattr(module, name)

        def call(*args):
            seen.append((name, gc.isenabled()))
            return inner(*args)

        monkeypatch.setattr(module, name, call)

    class Raw(dict):
        def get(self, *args):
            seen.append(("validate_model", gc.isenabled()))
            return super().get(*args)

    path = tmp_path / "model.json"
    path.write_text(json.dumps(two_var_raw()))
    spy(json, "load")
    spy(nmrfmap.structure, "signed_view")
    spy(nmrfmap.structure, "enode_forms")
    spy(nmrfmap.mwss, "pairwise_view")
    assert gc.isenabled()
    model_from_json_file(str(path))
    model = validate_model(Raw(two_var_raw()))
    report_to_json(classify_model(model))
    solve_map(model)
    assert seen == [("load", False)] + [("validate_model", False)] * 2 + [
        ("signed_view", False), ("enode_forms", False), ("pairwise_view", False)]
    assert gc.isenabled()


def test_entry_points_keep_their_signatures_and_docs():
    expected = {
        validate_model: ("(raw: 'Mapping') -> 'Model'", "Build a Model from a raw JSON-style"),
        classify_model: ("(model: 'Model', eps: 'float' = 1e-09) -> 'TractabilityReport'",
                         "Per-block classification and overall verdict"),
        report_to_json: ("(report: 'TractabilityReport') -> 'dict'",
                         "The report as JSON-ready names"),
        solve_map: ("(model: 'Model', eps: 'float' = 1e-09) -> 'MapSolution'",
                    "Exact MAP inference on a binary pairwise model"),
    }
    for fn, (signature, doc) in expected.items():
        assert str(inspect.signature(fn)) == signature
        assert fn.__doc__.startswith(doc) and fn.__doc__ == fn.__wrapped__.__doc__
    assert classify_model(validate_model(two_var_raw()), eps=0.5).tractable
    assert solve_map(model=validate_model(two_var_raw()), eps=0.5).objective == 4.0


def test_request_path_makes_no_reference_cycles():
    """The premise of the pause: a round of every kind of request, through
    validate -> classify -> report_to_json and validate -> solve_map with
    the collector off, leaves nothing for a collection to free, so
    reference counting alone frees everything the request path builds."""
    docs = _request_round()
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        outcomes = []
        for doc in docs:
            try:
                outcomes.append(report_to_json(classify_model(validate_model(doc)))["tractable"])
            except NmrfmapError as exc:
                outcomes.append(type(exc).__name__)
            try:
                outcomes.append(solve_map(validate_model(doc)).method)
            except NmrfmapError as exc:
                outcomes.append(type(exc).__name__)
        unreachable = gc.collect()
    finally:
        _set_collector(was)
    assert unreachable == 0
    assert {True, False, "blocks", "IntractableTopologyError", "NotBinaryPairwiseError",
            "ModelFormatError", "UnknownVariableError", "NonFiniteEntryError",
            "TableSizeMismatchError"} <= set(outcomes)
