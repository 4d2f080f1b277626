"""Self-checks of the benchmark, run at the start of every benchmark run.

- A deliberately wrong objective counts as a failure.
- A failure ranks above every success in the percentiles.
- The same seed regenerates byte-identical inputs in a fresh interpreter
  with another hash seed, and another seed gives other inputs.
- The exact references (enumeration, variable elimination, min cut) agree
  with each other on small seeded models, and the verdict and witness
  checks accept and reject what they should.

Run alone with: python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys

import checks
import reference
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))


def _best_and_worse(model):
    """The optimum and a strictly worse assignment, by plain enumeration."""
    names = [v["name"] for v in model["variables"]]
    scored = sorted(
        (reference.energy(model, dict(zip(names, bits))), bits)
        for bits in itertools.product((0, 1), repeat=len(names))
    )
    (worse, wbits), (best, bbits) = scored[0], scored[-1]
    return (best, dict(zip(names, bbits))), (worse, dict(zip(names, wbits)))


def check_wrong_answers_fail():
    model, meta = W.random_tractable(random.Random("selfcheck/wrong"), max_vars=6)
    (best, arg), (worse, warg) = _best_and_worse(model)
    refs = checks.References()
    cases = {
        "right answer": ({"status": "ok", "objective": best, "assignment": arg}, False),
        "objective off by 1e-6": ({"status": "ok", "objective": best - 1e-6, "assignment": arg}, True),
        "suboptimal assignment": ({"status": "ok", "objective": worse, "assignment": warg}, True),
        "refusal of a tractable model": ({"status": "refused", "witness": list(arg)[:3]}, True),
    }
    problems = []
    for label, (reply, should_fail) in cases.items():
        reply["latency_s"] = 0.001
        outcome = checks.check_solve(label, model, meta, reply, refs)
        if outcome.failed != should_fail:
            problems.append(f"{label}: failed={outcome.failed}, expected {should_fail}")
    return problems


def check_failures_rank_last():
    fast_failure = checks.Outcome("x", "error:E", True, False, None, 1e-6)
    successes = [checks.Outcome("x", "ok", False, False, None, t) for t in (0.3, 0.1, 0.2)]
    outcomes = successes + [fast_failure]
    problems = []
    if checks.ranked_quantile(outcomes, 1.0) != checks.TIMEOUT_S:
        problems.append("a failure does not rank above every success")
    if checks.ranked_quantile(outcomes, 0.0) != 0.1:
        problems.append("the fastest success is not the lowest rank")
    if checks.ranked_quantile(outcomes, 0.5) <= checks.ranked_quantile(successes, 0.5):
        problems.append("a fast failure lowers the median")
    return problems


def check_inputs_reproducible(workload, seed, count=1):
    # The fresh interpreter runs while this one computes its own digests.
    env = dict(os.environ, PYTHONHASHSEED=str(seed + 12345))
    fresh = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "workloads.py"), "--digest", workload, str(seed), str(count)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
    )
    try:
        first = W.digest(workload, seed, count)
        other = W.digest(workload, seed + 1, count)
        out, _ = fresh.communicate(timeout=120)
    finally:
        if fresh.poll() is None:
            fresh.kill()
            fresh.wait()
    problems = []
    if fresh.returncode != 0 or out.strip() != first:
        problems.append("a fresh interpreter generated different inputs")
    if other == first:
        problems.append("another seed generated the same inputs")
    return problems


def check_references_agree():
    problems = []

    def compare(label, model, methods):
        values = {name: fn(model) for name, fn in methods.items()}
        tol = reference.tolerance(model)
        lo, hi = min(values.values()), max(values.values())
        if hi - lo > tol:
            problems.append(f"{label}: references disagree {values}")

    three = {
        "brute force": reference.brute_force_max,
        "elimination": reference.elimination_max,
        "min cut": reference.mincut_max,
    }
    two = {k: three[k] for k in ("brute force", "elimination")}
    for k in range(4):
        rng = random.Random(f"selfcheck/br/{k}")
        n = 10 + k
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        side = [rng.randrange(2) for _ in range(n)]
        edges = [(u, v, W.REPULSIVE if side[u] != side[v] else W.ASSOCIATIVE)
                 for u, v in rng.sample(pairs, 2 * n)]
        compare(f"BR model {k}", W._model(n, edges, rng), three)
    for k in range(4):
        rng = random.Random(f"selfcheck/chain/{k}")
        edges, n, _ = W._chain_edges(rng, n_blocks=5)
        if n <= reference.BRUTE_FORCE_MAX_VARS:
            compare(f"chain {k}", W._model(n, edges, rng), two)
        model, _ = W.hub(rng, 8 + k)
        compare(f"hub {k}", model, two)
        model, _ = W.near_tie(random.Random(f"selfcheck/tie/{k}"))
        if len(model["variables"]) <= reference.BRUTE_FORCE_MAX_VARS:
            compare(f"near tie {k}", model, two)

    rng = random.Random("selfcheck/verdict")
    square = W._model(4, [(0, 1, W.REPULSIVE), (1, 2, W.ASSOCIATIVE),
                          (2, 3, W.ASSOCIATIVE), (0, 3, W.ASSOCIATIVE)], rng)
    if reference.tractable_verdict(square):
        problems.append("a frustrated 4-cycle passed as tractable")
    if not reference.witness_ok(square, ["X1", "X2", "X3", "X4"]):
        problems.append("a frustrated 4-cycle was rejected as a witness")
    if reference.witness_ok(square, ["X1", "X2", "X3"]):
        problems.append("a walk along a missing edge passed as a witness")
    if reference.certifies_intractable(["X1", "X2", "X3"]):
        problems.append("a frustrated triangle was taken as proof of intractability")
    # Models the generators mark tractable must be tractable.
    makers = {
        "dense_br": W.dense_br,
        "chain": lambda r: W.chain(r, "chain", n_blocks=8),
        "random_tractable": W.random_tractable,
        "hub": lambda r: W.hub(r, r.randint(*W.HUB_SPOKES)),
        "near_tie": W.near_tie,
        "large_chain": lambda r: W.large_chain(r, 300),
    }
    for name, make in makers.items():
        for k in range(3):
            model, meta = make(random.Random(f"selfcheck/{name}/{k}"))
            if not (meta["tractable"] and reference.tractable_verdict(model)):
                problems.append(f"generated {name} model {k} is not tractable")
    return problems


def run(workload, seed):
    """Names of failed self-checks (empty when all pass)."""
    problems = []
    for name, fn in (
        ("wrong answers fail", check_wrong_answers_fail),
        ("failures rank last", check_failures_rank_last),
        ("inputs reproducible", lambda: check_inputs_reproducible(workload, seed)),
        ("references agree", check_references_agree),
    ):
        problems += [f"{name}: {p}" for p in fn()]
    return problems


if __name__ == "__main__":
    found = []
    for wl in W.WORKLOADS:
        found += run(wl, 0)
    for p in dict.fromkeys(found):
        print("FAIL", p)
    print("self-checks:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
