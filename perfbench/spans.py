"""Span recorder for the traced benchmark run.

Wrappers are installed around the package functions at the names the
pipeline resolves them by, so internal calls are seen too. Each call records
a span (name, start, end, parent span, request id, error type); spans stay
in memory and are written out when the run ends. A layer's self time is its
spans' duration minus the duration of their direct child spans.

Wrappers are installed only around traced requests; untraced requests run
the unmodified functions.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


def _nmrf_size(nmrf):
    return len(nmrf.nodes), sum(len(a) for a in nmrf.adj) // 2


def _pruned_size(pruned):
    return len(pruned.kept), len(pruned.base.nodes)


# (span name, module, attribute, size probe on the return value)
TARGETS = (
    ("model.validate_model", "nmrfmap", "validate_model", None),
    ("structure.classify", "nmrfmap", "classify_model", None),
    ("structure.report_to_json", "nmrfmap", "report_to_json", None),
    ("mwss.solve_map", "nmrfmap", "solve_map", None),
    ("structure.classify", "nmrfmap.mwss", "classify_graph", None),
    ("nmrf.apply_enode_plan", "nmrfmap.mwss", "apply_enode_plan", None),
    ("nmrf.build_nmrf", "nmrfmap.mwss", "build_nmrf", _nmrf_size),
    ("nmrf.prune", "nmrfmap.mwss", "prune", _pruned_size),
    ("mwss.mwss_bipartite", "nmrfmap.mwss", "mwss_bipartite", None),
    ("mwss.mwss_branch_bound", "nmrfmap.mwss", "mwss_branch_bound", None),
)
LAYERS = tuple(dict.fromkeys(name for name, *_ in TARGETS))

NAME, START, END, PARENT, REQUEST, ERROR, SIZE = range(7)


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._request = None
        self._installed = []
        self.traced_requests = 0

    def _wrap(self, name, fn, probe):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._request, type(exc).__name__, None)
                raise
            end = time.perf_counter()
            stack.pop()
            size = probe(result) if probe is not None else None
            spans[idx] = (name, start, end, parent, self._request, None, size)
            return result

        return traced

    def begin(self, request_id):
        """Install the wrappers and open the request's root span."""
        self.traced_requests += 1
        self._request = request_id
        self._stack.clear()
        for name, module_name, attr, probe in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:  # a later layout may not have this name
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, probe))
        self._stack.append(len(self.spans))
        self.spans.append(("request", time.perf_counter(), None, -1, request_id, None, None))

    def end(self):
        """Close the root span and restore the original functions."""
        root = self._stack[0]
        name, start, _, parent, req, _, _ = self.spans[root]
        self.spans[root] = (name, start, time.perf_counter(), parent, req, None, None)
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()
        self._stack.clear()
        self._request = None

    def layer_metrics(self):
        """Per-layer metrics averaged over the traced requests."""
        spans = [s for s in self.spans if s is not None and s[END] is not None]
        child_time = defaultdict(float)
        for s in self.spans:
            if s is not None and s[END] is not None and s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        self_s = defaultdict(float)
        calls = defaultdict(int)
        errors = defaultdict(int)
        too_large = 0
        built_nodes = built_edges = kept = candidates = 0
        for idx, s in enumerate(self.spans):
            if s is None or s[END] is None:
                continue
            name = s[NAME]
            self_s[name] += s[END] - s[START] - child_time[idx]
            calls[name] += 1
            if s[ERROR] is not None:
                errors[name] += 1
                if name == "mwss.mwss_branch_bound" and s[ERROR] == "TooLargeError":
                    too_large += 1
            if s[SIZE] is not None:
                if name == "nmrf.build_nmrf":
                    built_nodes += s[SIZE][0]
                    built_edges += s[SIZE][1]
                elif name == "nmrf.prune":
                    kept += s[SIZE][0]
                    candidates += s[SIZE][1]
        per = max(self.traced_requests, 1)
        builds = calls["nmrf.build_nmrf"]
        m = {}

        def put(name, value, unit):
            m[name] = (value, unit)

        for layer in LAYERS:
            put(f"{layer}.self_s", self_s[layer] / per, "s")
        put("structure.classify.calls_per_solve", calls["structure.classify"] / per, "calls/solve")
        put("nmrf.build_nmrf.calls_per_solve", builds / per, "calls/solve")
        put("nmrf.build_nmrf.nodes_per_call", built_nodes / builds if builds else 0.0, "nodes/call")
        put("nmrf.build_nmrf.edges_per_call", built_edges / builds if builds else 0.0, "edges/call")
        put("nmrf.prune.kept_ratio", kept / candidates if candidates else 0.0, "ratio")
        for layer in ("mwss.mwss_bipartite", "mwss.mwss_branch_bound"):
            put(f"{layer}.calls_per_solve", calls[layer] / per, "calls/solve")
        put("mwss.mwss_branch_bound.too_large", too_large, "count")
        for layer in LAYERS:
            put(f"{layer}.errors", errors[layer], "count")
        requests = sum(s[END] - s[START] for s in spans if s[NAME] == "request")
        put("trace.request_s", requests / per, "s")
        put("trace.spans", len(spans), "count")
        return m

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\trequest\terror\n")
            for s in self.spans:
                if s is None:
                    continue
                fh.write(f"{s[NAME]}\t{s[START]!r}\t{s[END]!r}\t{s[PARENT]}\t{s[REQUEST]}\t{s[ERROR] or ''}\n")
