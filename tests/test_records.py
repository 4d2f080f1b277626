"""The package's record types: immutable, with a `Name(field=value, ...)`
repr, their defaults, and derived values computed once per instance."""

import math

import pytest

import nmrfmap.structure
from nmrfmap.errors import TooLargeError
from nmrfmap.model import Model, Potential, PairwiseView, SignedGraph, pairwise_view, validate_model
from nmrfmap.mwss import MapSolution, StableSetSolution, solve_map
from nmrfmap.nmrf import Nmrf, PrunedNmrf, build_nmrf, prune
from nmrfmap.perfection import PerfectionVerdict, PlainGraph, is_perfect_small
from nmrfmap.structure import Block, BlockClass, BlockTree, TractabilityReport, classify_model
from nmrfmap.submodular import (
    FeasibilityVerdict,
    HighOrderPotential,
    IndicatorRepresentation,
    construct_k3,
)

_DOC = {
    "variables": [{"name": n, "card": 2} for n in "ABCD"],
    "potentials": [
        {"scope": ["A", "B"], "table": [2.0, 0.0, 0.0, 2.0]},
        {"scope": ["B", "C"], "table": [0.0, 1.0, 1.0, 0.0]},
        {"scope": ["A", "C"], "table": [1.0, 0.0, 0.0, 1.5]},
        {"scope": ["C", "D"], "table": [0.0, 1.0, 1.0, 0.0]},
        {"scope": ["A"], "table": [0.0, 0.5]},
    ],
}
_PSI = HighOrderPotential(("A", "B", "C"), (0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 5.0))


def _model():
    return validate_model(_DOC)


# Each record type, its fields in order, and one instance as the package builds it.
RECORDS = [
    (Model, ("variables", "potentials"), _model),
    (SignedGraph, ("names", "edges"), lambda: pairwise_view(_model()).graph),
    (PairwiseView, ("graph", "u0", "u1", "tables", "scales", "constant", "slack"),
     lambda: pairwise_view(_model())),
    (Block, ("vertices", "edges"), lambda: classify_model(_model()).tree.blocks[-1]),
    (BlockTree, ("blocks", "cut_vertices", "attach", "edge_block"),
     lambda: classify_model(_model()).tree),
    (BlockClass, ("kind", "sides", "hubs", "witness"), lambda: classify_model(_model()).classes[-1]),
    (TractabilityReport, ("tractable", "graph", "tree", "classes"),
     lambda: classify_model(_model())),
    (StableSetSolution, ("nodes", "weight"), lambda: StableSetSolution((0, 2), 1.5)),
    (MapSolution, ("assignment", "objective", "method", "slack"), lambda: solve_map(_model())),
    (Nmrf, ("nodes", "adj", "groups", "constant"), lambda: build_nmrf(_model())),
    (PrunedNmrf, ("base", "kept", "weights", "edges", "slack"),
     lambda: prune(build_nmrf(_model()))),
    (PlainGraph, ("n", "adj"), lambda: PlainGraph.from_edges(3, [(0, 1), (1, 2)])),
    (PerfectionVerdict, ("perfect", "witness_kind", "witness"),
     lambda: is_perfect_small(PlainGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]))),
    (HighOrderPotential, ("names", "table"), lambda: _PSI),
    (IndicatorRepresentation, ("names", "constant", "zero_weights", "one_weights"),
     lambda: construct_k3(_PSI)),
    (FeasibilityVerdict, ("feasible", "reason", "witness"),
     lambda: FeasibilityVerdict(False, "negative_alpha")),
]


@pytest.mark.parametrize("cls, fields, make", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_with_a_field_repr(cls, fields, make):
    record = make()
    assert type(record) is cls
    values = [getattr(record, field) for field in fields]
    expected = ", ".join(f"{field}={value!r}" for field, value in zip(fields, values))
    assert repr(record) == f"{cls.__name__}({expected})"
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert [getattr(record, field) for field in fields] == values
    assert cls(*values) == record


def test_record_defaults():
    assert BlockClass("INTRACTABLE").witness is None
    assert BlockClass("INTRACTABLE").sides is None
    assert BlockClass("BR", (0,)).hubs is None
    assert PerfectionVerdict(True) == PerfectionVerdict(True, None, None)
    assert MapSolution({"A": 0}, 0.0, "bnb") == MapSolution({"A": 0}, 0.0, "bnb", 0.0)
    assert FeasibilityVerdict(True) == FeasibilityVerdict(True, None, None)


@pytest.mark.parametrize("names, table, error", [
    (("A",), (0.0, 1.0), ValueError),
    (tuple(f"X{i}" for i in range(11)), (0.0,) * 2048, TooLargeError),
    (("A", "A"), (0.0,) * 4, ValueError),
    (("A", "B"), (0.0,) * 3, ValueError),
    (("A", "B"), (0.0, 0.0, math.inf, 0.0), ValueError),
    (("A", "B"), (0.0, math.nan, 0.0, 0.0), ValueError),
])
def test_high_order_potential_rejects_bad_orders_names_and_tables(names, table, error):
    with pytest.raises(error):
        HighOrderPotential(names, table)
    with pytest.raises(error):
        HighOrderPotential(names=names, table=table)


def test_cached_values_are_computed_once_per_instance(monkeypatch):
    model = _model()
    assert model.index is model.index and model.cards is model.cards
    assert model.index == {"A": 0, "B": 1, "C": 2, "D": 3}
    assert model.cards == dict.fromkeys("ABCD", 2)
    other = _model()
    assert other == model and other.index is not model.index

    calls = []
    forms_of = nmrfmap.structure.enode_forms

    def counted(report):
        calls.append(report)
        return forms_of(report)

    monkeypatch.setattr(nmrfmap.structure, "enode_forms", counted)
    report = classify_model(model)
    assert calls == []  # built by its readers only
    doc = nmrfmap.structure.report_to_json(report)
    assert calls == [report]
    assert len(doc["enode_plan"]) == len(report.graph.edges)
