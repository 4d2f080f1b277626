"""Mutated documents and options through every pipeline verb.

Each example takes a valid document (a model, a compiled NMRF or a
higher-order potential), applies a few random edits (a value replaced, an
entry deleted, duplicated or added, the text cut short) and runs the verbs
that read it with drawn `--eps` and `--max-nodes` values. Every run must end
with a documented exit code, 0 to 3, with no internal error or traceback on
stderr, and print JSON when it succeeds. The examples are derandomized, so
the test is the same on every run.
"""

import contextlib
import copy
import io
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nmrfmap.cli import main
from nmrfmap.model import validate_model
from nmrfmap.nmrf import build_nmrf, nmrf_to_json

_CHAIN = {
    "variables": [{"name": n, "card": 2} for n in "ABC"],
    "potentials": [
        {"scope": ["A", "B"], "table": [2.0, 0.0, 0.0, 2.0]},
        {"scope": ["B", "C"], "table": [0.0, 1.0, 1.0, 0.0]},
        {"scope": ["A"], "table": [0.0, 0.5]},
    ],
}
# A scope in reverse order, a separable edge, a variable in no potential.
_FOLDED = {
    "variables": [{"name": n, "card": 2} for n in "ABCD"],
    "potentials": [
        {"scope": ["B", "A"], "table": [1.0, 0.0, 0.0, 2.0]},
        {"scope": ["B", "C"], "table": [0.0, 1.0, 1.0, 2.0]},
        {"scope": ["A"], "table": [0.0, 0.5]},
    ],
}
# A frustrated triangle (a T block) with a pendant edge.
_TRIANGLE = {
    "variables": [{"name": n, "card": 2} for n in "ABCD"],
    "potentials": [
        {"scope": ["A", "B"], "table": [0.0, 1.0, 1.0, 0.0]},
        {"scope": ["B", "C"], "table": [0.0, 2.0, 1.0, 0.0]},
        {"scope": ["A", "C"], "table": [0.0, 1.0, 3.0, 0.0]},
        {"scope": ["C", "D"], "table": [1.0, 0.0, 0.0, 1.0]},
    ],
}
# Three labels and an order-3 potential: only the compiler and bnb take it.
_WIDE = {
    "variables": [{"name": "A", "card": 3}, {"name": "B", "card": 2}, {"name": "C", "card": 2}],
    "potentials": [
        {"scope": ["B", "A"], "table": [1.0, 0.0, 2.0, 0.0, 3.0, 1.0]},
        {"scope": ["A", "B", "C"], "table": [float(i % 5) for i in range(12)]},
    ],
}
_MODELS = (_CHAIN, _FOLDED, _TRIANGLE, _WIDE)
_NMRF = nmrf_to_json(build_nmrf(validate_model(_CHAIN)))
_PSIS = (
    {"scope": ["A", "B", "C"], "table": [0, 0, 0, 1, 0, 1, 1, 5]},
    {"scope": ["A", "B", "C"], "table": [0, 1, 0, 0, 0, 0, 1, 0]},
    {"scope": ["A", "B", "C", "D"], "table": [0.0] * 15 + [2.0]},
)

# What an edit puts in place of a number, or of any value. Cardinalities
# stay small or are far past every cap, so that no example builds a large
# graph.
_NUMBERS = st.one_of(
    st.integers(-3, 6),
    st.floats(-10.0, 10.0),
    st.floats(-1e-9, 1e-9),
    st.sampled_from([0.5, -0.0, 1e-320, 1e300, 1e308, -1e308, 10**30, 2**40, math.inf, math.nan]),
)
_VALUES = st.one_of(
    _NUMBERS,
    st.none(),
    st.booleans(),
    st.sampled_from(["", "A", "B", "C", "D", "X1", "card"]),
    st.lists(st.integers(-2, 3), max_size=5),
    st.just({}),
)
_EPS = st.sampled_from(["0", "1e-9", "1e-9", "0.5", "3", "1e300", "1e-320", "-1", "nan", "x"])
_MAX_NODES = st.sampled_from(["0", "1", "5", "24", "40", "-1", "2.5", "x"])
_ALLOWED = (0, 1, 2, 3)


def _places(doc):
    """Every place in a JSON tree as a (container, key) pair, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield doc, key
        yield from _places(value)


def _mutate(data, doc):
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(0, 2))):
        places = list(_places(doc))
        numbers = [(c, k) for c, k in places if type(c[k]) in (int, float)]
        edit = data.draw(st.sampled_from(["number"] * 4 + ["replace", "delete", "duplicate", "add"]))
        if edit == "number" and numbers:
            container, key = data.draw(st.sampled_from(numbers))
            container[key] = data.draw(_NUMBERS)
            continue
        if not places:
            break
        container, key = data.draw(st.sampled_from(places))
        if edit == "replace":
            container[key] = data.draw(_VALUES)
        elif edit == "delete":
            del container[key]
        elif edit == "duplicate" and isinstance(container, list):
            container.append(copy.deepcopy(container[key]))
        elif isinstance(container, dict):
            container["extra"] = data.draw(_VALUES)
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in _ALLOWED, (argv, code, err)
    assert "internal error" not in err and "Traceback" not in err, (argv, err)
    if code == 0:
        json.loads(out)


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_mutated_inputs_end_in_documented_exits(data, tmp_path_factory):
    kind = data.draw(st.sampled_from(["model", "model", "model", "nmrf", "potential"]))
    if kind == "model":
        doc = data.draw(st.sampled_from(_MODELS))
    elif kind == "nmrf":
        doc = _NMRF
    else:
        doc = data.draw(st.sampled_from(_PSIS))
    text = json.dumps(_mutate(data, doc))
    if data.draw(st.integers(0, 9)) == 9:
        text = text[: data.draw(st.integers(0, len(text) - 1))]
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(text)
    path = str(path)
    eps = ["--eps", data.draw(_EPS)]
    if kind == "model":
        runs = [
            ["validate", path],
            ["classify", path, *eps],
            ["compile", path, *eps],
            ["solve", path, *eps],
            ["solve", path, "--oracle-check", *eps],
            ["solve", path, "--method", "bnb", "--max-nodes", data.draw(_MAX_NODES), *eps],
            ["solve", path, "--method", "bnb", "--oracle-check", *eps],
        ]
    elif kind == "nmrf":
        runs = [["perfect", path, "--max-nodes", data.draw(_MAX_NODES), *eps]]
    else:
        runs = [["submodular", path, *eps]]
    for argv in runs:
        _run(argv)
