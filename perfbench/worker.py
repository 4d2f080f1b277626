"""Program-side process of the benchmark.

Imports `nmrfmap` from the checkout's `src/`, prints `ready`, then serves
one request per input frame and answers each with one output frame, so the
caller can run a closed loop. A frame is an 8-byte big-endian length and a
pickle; pickle moves the 10^5-edge models of classify_large several times
faster than JSON, and none of it is inside the timed span. The timed span of a request covers exactly
validate -> solve (or validate -> classify -> report_to_json); decoding the
request and encoding the reply are outside it. A request that runs longer
than the timeout is interrupted and reported as a timeout.

Usage: python3 perfbench/worker.py ROOT TIMEOUT_S
"""

from __future__ import annotations

import os
import pickle
import resource
import signal
import sys
import time


def write_frame(stream, obj):
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(len(data).to_bytes(8, "big"))
    stream.write(data)
    stream.flush()


def read_frame(stream):
    """The next object on the stream, or None at its end."""
    head = stream.read(8)
    if len(head) < 8:
        return None
    data = stream.read(int.from_bytes(head, "big"))
    return pickle.loads(data)


class RequestTimeout(Exception):
    pass


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise RequestTimeout("request exceeded the benchmark's per-request limit")


def calibration_s():
    """Time of a fixed piece of interpreter work (tuple keys, dict of sets,
    nested comparisons), independent of the package; it tracks the speed the
    host gives this process at the moment."""
    t0 = time.perf_counter()
    groups = {}
    for i in range(4000):
        groups.setdefault((i % 97, i % 13), set()).add(i)
    keys = list(groups)
    hits = 0
    for a in keys:
        for b in keys[:40]:
            if a[0] != b[0] and a[1] == b[1]:
                hits += 1
    return time.perf_counter() - t0


def serve(nmrfmap, msg, timeout_s, recorder):
    global _armed
    request = msg["request"]
    if msg.get("trace"):
        recorder.begin(msg["id"])
    reply = {"id": msg["id"]}
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    _armed = True
    t0 = time.perf_counter()
    try:
        model = nmrfmap.validate_model(request)
        if msg["kind"] == "solve":
            sol = nmrfmap.solve_map(model)
            t1 = time.perf_counter()
            _armed = False
            reply.update(status="ok", objective=sol.objective, assignment=dict(sol.assignment))
        else:
            doc = nmrfmap.report_to_json(nmrfmap.classify_model(model))
            t1 = time.perf_counter()
            _armed = False
            reply.update(status="ok", report=doc)
    except nmrfmap.IntractableTopologyError as exc:
        t1 = time.perf_counter()
        _armed = False
        reply.update(status="refused", witness=list(exc.witness))
    except Exception as exc:  # every failure is reported, never fatal
        t1 = time.perf_counter()
        _armed = False
        reply.update(status="error", error=type(exc).__name__, message=str(exc)[:300])
    finally:
        _armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        if msg.get("trace"):
            recorder.end()
    reply["latency_s"] = t1 - t0
    return reply


def main(argv):
    root, timeout_s = argv[1], float(argv[2])
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import nmrfmap

    if not os.path.abspath(nmrfmap.__file__).startswith(src + os.sep):
        print(f"nmrfmap was imported from {nmrfmap.__file__}, not from {src}", file=sys.stderr)
        return 3
    out = os.fdopen(os.dup(1), "wb")
    sys.stdout = sys.stderr  # library output must not mix with replies
    out.write(b"ready\n")
    out.flush()
    signal.signal(signal.SIGALRM, _on_alarm)
    recorder = None
    while (msg := read_frame(sys.stdin.buffer)) is not None:
        if msg.get("op") == "end":
            final = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            if recorder is not None:
                final["layers"] = recorder.layer_metrics()
                recorder.write(msg["spans_path"])
            write_frame(out, final)
            break
        if msg.get("op") == "calibrate":
            write_frame(out, {"calibration_s": calibration_s()})
            continue
        if msg.get("trace") and recorder is None:
            from spans import SpanRecorder

            recorder = SpanRecorder()
        write_frame(out, serve(nmrfmap, msg, timeout_s, recorder))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
