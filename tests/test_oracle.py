import itertools

import numpy as np
import pytest

from helpers import brute_force_mwss, random_weighted_graph
from nmrfmap.errors import TooLargeError
from nmrfmap.model import validate_model
from nmrfmap.oracle import brute_force_map


def test_brute_force_map_hand_case():
    model = validate_model(
        {
            "variables": [{"name": "A", "card": 2}, {"name": "B", "card": 3}],
            "potentials": [
                {"scope": ["A", "B"], "table": [0.0, 4.0, 0.0, 1.0, 0.0, 3.0]},
                {"scope": ["B"], "table": [0.0, 0.0, 2.0]},
            ],
        }
    )
    sol = brute_force_map(model)
    assert sol.assignment == {"A": 1, "B": 2}
    assert sol.objective == 5.0
    assert sol.method == "brute-force"


def test_brute_force_map_lex_tie_break():
    model = validate_model(
        {
            "variables": [{"name": "A", "card": 2}, {"name": "B", "card": 2}],
            "potentials": [{"scope": ["A"], "table": [1.0, 1.0]}],
        }
    )
    assert brute_force_map(model).assignment == {"A": 0, "B": 0}


def test_brute_force_map_cap():
    model = validate_model(
        {
            "variables": [{"name": f"X{i}", "card": 4} for i in range(11)],
            "potentials": [],
        }
    )
    with pytest.raises(TooLargeError):
        brute_force_map(model)


def test_brute_force_mwss_exhaustive_check():
    rng = np.random.default_rng(109)
    for _ in range(25):
        n = int(rng.integers(1, 10))
        weights, edges = random_weighted_graph(rng, n)
        sol = brute_force_mwss(weights, edges)
        adj = {(u, v) for u, v in edges} | {(v, u) for u, v in edges}
        best = 0.0
        for r in range(n + 1):
            for sub in itertools.combinations(range(n), r):
                if any((u, v) in adj for u, v in itertools.combinations(sub, 2)):
                    continue
                best = max(best, sum(weights[i] for i in sub))
        assert sol.weight == pytest.approx(best)


def test_brute_force_mwss_cap():
    with pytest.raises(TooLargeError):
        brute_force_mwss([1.0] * 25, [])
