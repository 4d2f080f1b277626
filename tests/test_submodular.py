import itertools

import networkx as nx
import numpy as np
import pytest
from scipy.optimize import nnls

from generators import random_supermodular_k3
from helpers import lp_refused_table

from nmrfmap.errors import BadIndicesError, ModelFormatError, NotSupermodularError, TooLargeError
from nmrfmap.model import energy
from nmrfmap.nmrf import build_nmrf, prune
from nmrfmap.submodular import (
    SUPERMODULAR_INFEASIBLE_K4,
    HighOrderPotential,
    alpha,
    construct_k3,
    is_supermodular,
    potential_from_json,
    representation_feasible,
    representation_to_json,
    representation_to_model,
    supermodularity,
)


def ones_indicator(k):
    """1 at the all-ones setting, 0 elsewhere."""
    table = [0.0] * (1 << k)
    table[-1] = 1.0
    return HighOrderPotential(tuple(f"X{i}" for i in range(k)), tuple(table))


def test_supermodularity_projection_values():
    psi = ones_indicator(3)
    # fixing the third variable to 1 leaves a supermodular pair table
    assert supermodularity(psi, 0, 1, {2: 1}) == 1.0
    assert supermodularity(psi, 0, 1, {2: 0}) == 0.0
    # rest may also be given positionally
    assert supermodularity(psi, 0, 2, [1]) == 1.0


def test_supermodularity_bad_indices():
    psi = ones_indicator(3)
    with pytest.raises(BadIndicesError):
        supermodularity(psi, 0, 0, {1: 0, 2: 0})
    with pytest.raises(BadIndicesError):
        supermodularity(psi, 0, 3, {1: 0, 2: 0})
    with pytest.raises(BadIndicesError):
        supermodularity(psi, 0, 1, {})


def test_is_supermodular_detects_violations():
    ok, witness = is_supermodular(ones_indicator(4))
    assert ok and witness is None

    table = [0.0] * 8
    table[0b011] = 1.0  # reward for disagreement makes a submodular pair
    psi = HighOrderPotential(("A", "B", "C"), tuple(table))
    ok, witness = is_supermodular(psi)
    assert not ok
    i, j, rest, value = witness
    assert value < 0
    assert supermodularity(psi, i, j, rest) == value


def test_alpha_conventions():
    # order 2: the alternating sum is the associativity
    psi = HighOrderPotential(("A", "B"), (1.0, 0.0, 0.0, 1.0))
    assert alpha(psi) == 2.0
    # all-ones indicator of odd order contributes -1, even order +1
    assert alpha(ones_indicator(3)) == -1.0
    assert alpha(ones_indicator(4)) == 1.0
    # all-zeros indicator always contributes +1
    z = [0.0] * 8
    z[0] = 1.0
    assert alpha(HighOrderPotential(("A", "B", "C"), tuple(z))) == 1.0


def test_order_bounds():
    with pytest.raises(TooLargeError):
        HighOrderPotential(tuple(f"X{i}" for i in range(11)), tuple([0.0] * 2048))
    with pytest.raises(ValueError):
        HighOrderPotential(("A", "B"), (0.0, 0.0))


def test_repeated_variable_is_rejected():
    # ab + bc + ac + 2abc: with names (A, A, B) the two A's would merge into
    # one indicator member, and construct_k3 would evaluate (1, 0, 1) to 0.0
    # where the table holds 1.0.
    table = tuple(
        float(a * b + b * c + a * c + 2 * a * b * c)
        for a, b, c in itertools.product((0, 1), repeat=3)
    )
    for names in (("A", "A", "B"), ("A", "B", "A"), ("A", "A")):
        with pytest.raises(ValueError, match="distinct"):
            HighOrderPotential(names, table[: 1 << len(names)])


def test_construct_k3_reconstructs_table():
    rng = np.random.default_rng(97)
    for _ in range(80):
        psi = random_supermodular_k3(rng)
        rep = construct_k3(psi)
        for bits in itertools.product((0, 1), repeat=3):
            assert rep.evaluate(bits) == pytest.approx(psi.value(bits), abs=1e-9)
        for weights in (rep.zero_weights, rep.one_weights):
            for sub, w in weights.items():
                if len(sub) >= 2:
                    assert w >= 0.0


def test_construct_k3_rejects_non_supermodular():
    table = [0.0] * 8
    table[0b011] = 1.0
    with pytest.raises(NotSupermodularError):
        construct_k3(HighOrderPotential(("A", "B", "C"), tuple(table)))


def test_construct_k3_uses_one_indicator_family():
    rng = np.random.default_rng(101)
    for _ in range(40):
        psi = random_supermodular_k3(rng)
        rep = construct_k3(psi)
        big_zero = [s for s, w in rep.zero_weights.items()
                    if len(s) >= 2 and w > 0]
        big_one = [s for s, w in rep.one_weights.items()
                   if len(s) >= 2 and w > 0]
        assert not (big_zero and big_one)
        if alpha(psi) >= 0:
            assert not big_one
        else:
            assert not big_zero


def test_representation_model_round_trip_and_bipartite():
    rng = np.random.default_rng(103)
    for _ in range(20):
        psi = random_supermodular_k3(rng)
        rep = construct_k3(psi)
        model, constant = representation_to_model(rep)
        for bits in itertools.product((0, 1), repeat=3):
            cfg = dict(zip(rep.names, bits))
            assert energy(model, cfg) + constant == pytest.approx(
                psi.value(bits), abs=1e-9
            )
        pruned = prune(build_nmrf(model))
        assert nx.is_bipartite(nx.Graph(pruned.edges))


def test_feasibility_fast_and_lp_paths():
    # supermodular but unrepresentable order-4 table
    psi = HighOrderPotential(("A", "B", "C", "D"), SUPERMODULAR_INFEASIBLE_K4)
    ok, witness = is_supermodular(psi)
    assert ok
    assert alpha(psi) == -2.0
    verdict = representation_feasible(psi)
    assert not verdict.feasible
    assert verdict.reason == "negative_alpha"

    # a plain sum of nonnegative indicators is feasible
    table = [0.0] * 16
    for idx in range(16):
        bits = [(idx >> (3 - p)) & 1 for p in range(4)]
        table[idx] = 2.0 * all(bits) + 1.5 * (not any(bits)) + 0.25 * bits[0]
    feasible = HighOrderPotential(("A", "B", "C", "D"), tuple(table))
    assert representation_feasible(feasible).feasible

    # non-supermodular short-circuits with a witness
    bad = [0.0] * 16
    bad[0b0110] = 1.0
    verdict = representation_feasible(HighOrderPotential(("A", "B", "C", "D"),
                                                         tuple(bad)))
    assert not verdict.feasible
    assert verdict.reason == "not_supermodular"
    assert verdict.witness is not None


def _indicator_residual(table, k):
    """Least-squares residual of `table` over a constant, k linear terms of
    any sign (split into two nonnegative columns each) and nonnegative
    weights on the all-zeros and all-ones indicator of every subset of two
    or more variables, by scipy's nnls rather than the library's LP."""
    subsets = [s for r in range(2, k + 1) for s in itertools.combinations(range(k), r)]
    rows = []
    for idx in range(1 << k):
        bits = [(idx >> (k - 1 - p)) & 1 for p in range(k)]
        free = [1.0, *map(float, bits)]
        rows.append(free + [-x for x in free] + [
            float(all(bits[p] == x for p in sub)) for sub in subsets for x in (0, 1)
        ])
    return nnls(np.array(rows), np.array(table))[1]


def test_lp_refuses_what_the_fast_checks_pass():
    """A supermodular order-5 table with alternating sum 0: neither fast
    check fires, and the LP finds no nonnegative indicator weights, as
    nnls on the same equations confirms (residual 0.5)."""
    table = lp_refused_table()
    psi = HighOrderPotential(tuple("ABCDE"), table)
    assert is_supermodular(psi) == (True, None)
    assert alpha(psi) == 0.0
    assert representation_feasible(psi) == (False, "lp", None)
    assert _indicator_residual(table, 5) == pytest.approx(0.5)
    # The oracle itself: a sum of indicators with a signed linear part fits.
    fitted = [
        3.0 - 2.0 * a + 0.5 * e + 2.0 * (a and b and c) + 1.0 * (not (b or d))
        for a, b, c, d, e in itertools.product((0, 1), repeat=5)
    ]
    assert _indicator_residual(fitted, 5) < 1e-9
    assert representation_feasible(HighOrderPotential(tuple("ABCDE"), tuple(fitted))).feasible


def test_feasibility_matches_construction_for_k3():
    rng = np.random.default_rng(107)
    for _ in range(20):
        psi = random_supermodular_k3(rng)
        assert representation_feasible(psi).feasible


def test_feasibility_order_cap():
    k = 7
    with pytest.raises(TooLargeError):
        representation_feasible(
            HighOrderPotential(tuple(f"X{i}" for i in range(k)),
                               tuple([0.0] * (1 << k)))
        )


def test_potential_json():
    doc = {"scope": ["A", "B", "C"], "table": [0] * 8}
    psi = potential_from_json(doc)
    assert psi.k == 3
    with pytest.raises(ModelFormatError, match=r"^unknown keys: \['x'\]$"):
        potential_from_json({"scope": ["A", "B"], "table": [0] * 4, "x": 1})
    rep = construct_k3(random_supermodular_k3(np.random.default_rng(1)))
    enc = representation_to_json(rep)
    assert set(enc) == {"constant", "zero_indicators", "one_indicators"}
