"""Seeded solve/classify benchmark for nmrfmap.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload dense_br --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

Each workload runs as a closed loop with one client: this process sends a
request to a fresh worker process (perfbench/worker.py, which imports the
package from the checkout's src/) and sends the next one only after the
reply. The requests come from perfbench/workloads.py and depend only on the
seed: a run sends round(--seconds / ROUND_S) rounds of them, about --seconds
of request time at the seed commit; block_chain then sends one chain deeper
than Python's recursion limit. Every reply is checked against an
independent reference (perfbench/reference.py, perfbench/checks.py).

--trace 0 prints the end-to-end metrics:
  latency_p50_s  median time of validate -> solve (or classify) per request,
                 a failed request ranked slower than every success, each
                 time scaled to a reference host speed by calibrations run
                 around it (see CALIBRATION_REF_S); the report also prints
                 it as measured;
  setup_s        median, over fresh interpreters, of the time from spawning
                 one to nmrfmap being imported and the first request
                 sendable, each scaled to the reference speed by bare
                 interpreter probes around it (see BASE_REF_S);
  peak_rss_mb    peak resident memory of the worker process.
--trace 1 sends every request twice, untraced and traced in alternating
order, and prints the per-layer metrics of perfbench/spans.py plus
trace.overhead_s, the traced total minus the untraced total. Spans are
written to .perfbench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. `correct` is false when a self-check
fails or a request returns a wrong answer that no documented seed defect
explains; every failed request, explained or not, is counted in `failed`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import checks
import selfcheck
import workloads as W
from worker import read_frame, write_frame

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 3
# Set-up time moves with the host as well, by a third within a minute. Each
# probe is scaled by BASE_REF_S over the mean time of a bare probe just
# before and just after it: an interpreter that imports the package's
# third-party dependencies at the seed commit, but not the package. Scaled,
# the median of three probes moved by 4 % instead of 12 %.
BASE_REF_S = 0.5
BASE_PROBE = "import numpy, scipy.optimize; print('ready', flush=True)"
# The host's speed drifts by up to 1.7x within a second. Latency is reported
# at a reference speed: each request's time is multiplied by
# CALIBRATION_REF_S over the mean time of a fixed calibration kernel
# (worker.calibration_s) run in the worker just before and just after the
# request. The kernel runs before a request once CALIBRATE_EVERY_S of
# request time has passed since it last ran, and once more at the end.
CALIBRATION_REF_S = 0.0035
CALIBRATE_EVERY_S = 0.05
# Seconds one round of requests takes at the seed commit on the host the
# benchmark was built on. A run sends round(--seconds / ROUND_S) rounds (half
# as many when tracing, which serves each request twice), so the same seed
# and --seconds always send the same requests.
ROUND_S = {"dense_br": 1.1, "block_chain": 0.75, "small_mix": 0.3, "classify_large": 1.0}
# A run stops sending after this much wall time in its loop; the requests
# it did not send count as failed.
LOOP_LIMIT_S = 100.0

def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


class Worker:
    """The program's process, spoken to one frame per request."""

    def __init__(self):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), ROOT, str(checks.TIMEOUT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        if self.proc.stdout.readline() != b"ready\n":
            self.close()
            raise RuntimeError("worker did not start")
        self.setup_s = time.perf_counter() - t0

    def call(self, msg):
        write_frame(self.proc.stdin, msg)
        reply = read_frame(self.proc.stdout)
        if reply is None:
            raise RuntimeError("worker exited during a request")
        return reply

    def close(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def base_probe_s():
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", BASE_PROBE], stdout=subprocess.PIPE)
    try:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait()
    if ready != b"ready\n":
        raise RuntimeError("base probe did not start")
    return elapsed


def measure_setup():
    """(scaled, as measured) set-up times of SETUP_PROBES fresh workers."""
    samples = []
    before = base_probe_s()
    for _ in range(SETUP_PROBES):
        probe = Worker()
        probe.close()
        after = base_probe_s()
        samples.append((probe.setup_s * BASE_REF_S / ((before + after) / 2), probe.setup_s))
        before = after
    return samples


def run_loop(worker, stream, rounds, trace):
    """Closed loop over the seeded rounds, then the tail; every reply is
    checked as it arrives. Untraced runs calibrate the host's speed in the
    worker between requests and give each outcome its speed factor.
    Returns (outcomes, distinct requests sent, calibration times)."""
    refs = checks.References()
    check = checks.check_classify if stream.kind == "classify" else checks.check_solve
    outcomes = []
    calibrations = []
    before = []  # index of the last calibration before each outcome
    since_calibration = math.inf
    sent = 0
    deadline = time.monotonic() + LOOP_LIMIT_S

    def calibrate():
        nonlocal since_calibration
        calibrations.append(worker.call({"op": "calibrate"})["calibration_s"])
        since_calibration = 0.0

    def send(model, meta):
        nonlocal since_calibration, sent
        if time.monotonic() > deadline:
            outcomes.append(checks.Outcome(meta["class"], "not_sent", True, False, None, checks.TIMEOUT_S))
            before.append(len(calibrations) - 1)
            sent += 1
            return
        msg = {"id": sent, "kind": stream.kind, "request": model}
        # In traced runs each request is served untraced and traced, the
        # order alternating so warm-up favours neither.
        modes = ((False, True) if sent % 2 == 0 else (True, False)) if trace else (False,)
        for traced in modes:
            if not trace and since_calibration >= CALIBRATE_EVERY_S:
                calibrate()
            t0 = time.perf_counter()
            reply = worker.call(dict(msg, trace=traced))
            since_calibration += time.perf_counter() - t0
            outcome = check(sent, model, meta, reply, refs)
            outcome.traced = traced
            outcomes.append(outcome)
            before.append(len(calibrations) - 1)
        sent += 1

    for r in range(rounds):
        for model, meta in stream.round(r):
            send(model, meta)
    for model, meta in stream.tail():
        send(model, meta)
    if not trace:
        calibrate()
        for o, i in zip(outcomes, before):
            o.speed = CALIBRATION_REF_S / ((calibrations[i] + calibrations[i + 1]) / 2)
    return outcomes, sent, calibrations


def run_workload(workload, seed, seconds, trace):
    stream = W.RequestStream(workload, seed)
    rounds = max(1, round(seconds / ROUND_S[workload] / (2 if trace else 1)))
    problems = selfcheck.run(workload, seed)
    setup = measure_setup()
    worker = Worker()
    try:
        outcomes, sent, calibrations = run_loop(worker, stream, rounds, trace)
        end = {"op": "end"}
        if trace:
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            end["spans_path"] = os.path.join(out_dir, f"spans-{workload}-{seed}.tsv")
        final = worker.call(end)
    finally:
        worker.close()

    unexplained = [o for o in outcomes if o.failed and o.wrong and o.defect is None]
    result = {
        "workload": workload,
        "seed": seed,
        "requests": sent,
        "outcomes": outcomes,
        "problems": problems + [f"wrong answer ({o.status}) on {o.cls}" for o in unexplained],
        "setup": setup,
        "calibrations": calibrations,
    }
    if trace:
        traced = sum(o.latency_s for o in outcomes if o.traced)
        untraced = sum(o.latency_s for o in outcomes if not o.traced)
        layers = dict(final["layers"])
        layers["trace.overhead_s"] = (traced - untraced, "s")
        result["metrics"] = layers
    else:
        result["metrics"] = {
            "latency_p50_s": (checks.ranked_quantile(outcomes, 0.5), "s"),
            "setup_s": (statistics.median(scaled for scaled, _ in setup), "s"),
            "peak_rss_mb": (final["peak_rss_kb"] / 1024.0, "MB"),
        }
    return result


def summarize(res, trace):
    """Human-readable report of one workload (every line before the JSON)."""
    outcomes = res["outcomes"]
    n = len(outcomes)
    lines = [
        f"== {res['workload']} seed={res['seed']}: {n} requests "
        f"({res['requests']} distinct), closed loop, 1 client"
        + (", each served untraced and traced" if trace else "")
    ]
    for name, (value, unit) in res["metrics"].items():
        lines.append(f"  {name:40s} {value:.6g} {unit}")
    if not trace:
        lines.append(f"  {'latency_p50_s over':40s} {n} requests, at reference speed")
        if checks.p90_supported(n):
            p90 = checks.ranked_quantile(outcomes, 0.9)
            lines.append(f"  {'latency_p90_s':40s} {p90:.6g} s")
        else:
            lines.append(f"  {'latency_p90_s':40s} not reported (<10 samples beyond p90)")
        lines.append(
            f"  {'as measured: p50':40s} {checks.ranked_quantile(outcomes, 0.5, scaled=False):.6g} s; "
            f"calibration median {statistics.median(res['calibrations']):.6g} s "
            f"(median factor x{statistics.median(o.speed for o in outcomes):.4f} to reference, "
            f"{len(res['calibrations'])} samples)"
        )
        lines.append(
            "  setup_s samples, scaled/as measured "
            + " ".join(f"{scaled:.4f}/{raw:.4f}" for scaled, raw in res["setup"])
        )
    failed = sum(o.failed for o in outcomes)
    lines.append(f"  {'fail_share':40s} {failed / n:.6g} ({failed}/{n})")
    by_class = defaultdict(Counter)
    for o in outcomes:
        by_class[o.cls]["attempted"] += 1
        by_class[o.cls][o.status if not o.failed else "failed"] += 1
    lines.append("  class              attempted       ok  refused   failed")
    for cls, c in sorted(by_class.items()):
        lines.append(f"  {cls:18s} {c['attempted']:9d} {c['ok']:8d} {c['refused']:8d} {c['failed']:8d}")
    causes = Counter((o.cls, o.status, o.defect) for o in outcomes if o.failed)
    for (cls, status, defect), count in sorted(causes.items(), key=str):
        why = f"defect ({defect}): {checks.DEFECTS[defect]}" if defect else "unattributed"
        lines.append(f"  failure {cls}/{status} x{count} -> {why}")
    for p in res["problems"]:
        lines.append(f"  PROBLEM {p}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "nmrfmap", "__init__.py")):
        return _fail(f"no nmrfmap sources under {os.path.join(ROOT, 'src')}")
    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in W.WORKLOADS for name in names):
        return _fail(f"unknown workload {args.workload!r}; choose from {W.WORKLOADS} or all")

    results = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    for res in results:
        print("\n".join(summarize(res, args.trace)))

    def metric_name(res, name):
        return name if len(results) == 1 else f"{res['workload']}.{name}"

    print(json.dumps({
        "correct": not any(res["problems"] for res in results),
        "attempted": sum(len(res["outcomes"]) for res in results),
        "failed": sum(sum(o.failed for o in res["outcomes"]) for res in results),
        "metrics": {
            metric_name(res, name): {"value": value, "unit": unit}
            for res in results
            for name, (value, unit) in res["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
