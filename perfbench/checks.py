"""Answer checks, failure attribution and latency ranking.

A request fails when it raises anything other than a correct intractability
refusal, times out, returns an objective that differs from the reference
optimum by more than float rounding (`reference.tolerance`), returns an
assignment whose energy differs from the returned objective, or returns a
wrong verdict, witness or enode plan.

Failures that match a defect documented for the seed commit are attributed
to it; the attribution only labels a failure, it never removes one:
  (a) RecursionError on a chain deeper than Python's recursion limit;
  (b) TooLargeError on a tractable T/U hub block: from 14 spokes on, and
      at 13 spokes for some tables, the pruned graph passes the 40-node
      branch-and-bound cap;
  (c) on a near-tie model, an objective below the optimum by no more than
      the sum of the unary gaps (self-reduction tie drift).
A wrong answer that matches none of them makes the run incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import reference

# Per-request limit; a failed request is ranked at this latency, slower than
# every success.
TIMEOUT_S = 30.0

DEFECTS = {
    "a": "block-tree recursion depth (RecursionError on deep chains)",
    "b": "branch-and-bound cap on tractable T/U blocks (TooLargeError)",
    "c": "self-reduction tie drift (objective below the optimum)",
}


@dataclass
class Outcome:
    cls: str
    status: str  # "ok", "refused", or the failure kind
    failed: bool
    wrong: bool  # a wrong answer, as opposed to a missing one
    defect: Optional[str]
    latency_s: float
    traced: bool = False
    # Factor from this host's speed at the time of the request to the
    # reference speed (see run.py); 1 leaves the time as measured.
    speed: float = 1.0

    def ranked_latency(self, scaled=True):
        if self.failed:
            return TIMEOUT_S
        return self.latency_s * self.speed if scaled else self.latency_s


class References:
    """Reference answers, computed once per request."""

    def __init__(self):
        self._optimum = {}
        self._verdict = {}

    def optimum(self, key, model, meta):
        if key not in self._optimum:
            if meta["class"] == "dense_br":
                value = reference.mincut_max(model)
            elif len(model["variables"]) <= reference.BRUTE_FORCE_MAX_VARS:
                value = reference.brute_force_max(model)
            else:
                value = reference.elimination_max(model)
            self._optimum[key] = value
        return self._optimum[key]

    def tractable(self, key, model, meta, witnesses=()):
        """The true verdict: known for models built from tractable blocks
        only, certified by the program's own witnesses when they are long
        enough, else computed by block decomposition."""
        if meta.get("tractable"):
            return True
        if any(reference.certifies_intractable(w) for w in witnesses):
            return False
        if key not in self._verdict:
            self._verdict[key] = reference.tractable_verdict(model)
        return self._verdict[key]


def _failure(meta, reply, kind, wrong, defect=None):
    return Outcome(meta["class"], kind, True, wrong, defect, reply["latency_s"])


def check_solve(key, model, meta, reply, refs):
    status = reply["status"]
    if status == "error":
        error = reply["error"]
        defect = None
        if meta["class"] == "deep_chain" and error == "RecursionError":
            defect = "a"
        elif meta["class"].startswith("hub_") and error == "TooLargeError":
            defect = "b"
        kind = "timeout" if error == "RequestTimeout" else f"error:{error}"
        return _failure(meta, reply, kind, False, defect)
    if status == "refused":
        witness = reply["witness"]
        if not reference.witness_ok(model, witness):
            return _failure(meta, reply, "witness", True)
        if refs.tractable(key, model, meta, [witness]):
            return _failure(meta, reply, "verdict", True)
        return Outcome(meta["class"], "refused", False, False, None, reply["latency_s"])
    assignment = reply["assignment"]
    names = [v["name"] for v in model["variables"]]
    if sorted(assignment) != sorted(names) or set(assignment.values()) - {0, 1}:
        return _failure(meta, reply, "assignment", True)
    tol = reference.tolerance(model)
    objective = reply["objective"]
    if abs(reference.energy(model, assignment) - objective) > tol:
        return _failure(meta, reply, "energy", True)
    gap = refs.optimum(key, model, meta) - objective
    if abs(gap) > tol:
        drift = meta["class"] == "near_tie" and 0 < gap <= meta["gap_sum"] + tol
        return _failure(meta, reply, "objective", True, "c" if drift else None)
    return Outcome(meta["class"], "ok", False, False, None, reply["latency_s"])


def check_classify(key, model, meta, reply, refs):
    if reply["status"] != "ok":
        return _failure(meta, reply, f"error:{reply.get('error', reply['status'])}", False)
    doc = reply["report"]
    witnesses = []
    if not doc["tractable"]:
        witnesses = [b.get("witness") for b in doc["blocks"] if b["class"] == "INTRACTABLE"]
        signs = reference.edge_signs(model)
        if not witnesses or not all(w and reference.witness_ok(model, w, signs) for w in witnesses):
            return _failure(meta, reply, "witness", True)
    if doc["tractable"] != refs.tractable(key, model, meta, witnesses):
        return _failure(meta, reply, "verdict", True)
    if doc["tractable"] and not reference.plan_ok(model, doc["enode_plan"]):
        return _failure(meta, reply, "plan", True)
    return Outcome(meta["class"], "ok", False, False, None, reply["latency_s"])


def ranked_quantile(outcomes, q, scaled=True):
    """Quantile of latencies with every failure ranked above every success
    (linear interpolation between the two nearest ranks), at reference
    speed unless `scaled` is false."""
    values = sorted(o.ranked_latency(scaled) for o in outcomes)
    pos = q * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def p90_supported(n):
    """At least ten samples lie beyond the 90th percentile."""
    return n - math.ceil(0.9 * n) >= 10
