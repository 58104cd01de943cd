"""The serving process: one warm interpreter that answers benchmark requests.

Usage: python3 perfbench/server.py SRC_DIR TRACE SPANS_PATH

Reads one JSON request per line on stdin and answers each with one JSON line
on stdout: the exit code, the output (CLI stdout, or the library results as
numbers), the time spent serving and, when one was taken just before the
request, a machine-speed sample (see calib.py).  An empty line ends the run; the
reply to it carries the peak resident set and, when tracing, the per-layer
aggregates.  With TRACE 1, requests of odd-numbered blocks run traced.
"""
import contextlib
import importlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import calib

CALIBRATE_EVERY_S = 0.05  # of serving time, and at the start of every block
STATE_FIELDS = ("ell", "alpha", "beta", "M", "A")


def load(src):
    sys.path.insert(0, src)
    pkg = importlib.import_module("gelsolve")
    if Path(pkg.__file__).resolve().parent != (Path(src) / "gelsolve").resolve():
        raise ImportError(f"imported gelsolve from {pkg.__file__}, not from {src}")
    for name in ("measures", "characteristics", "series", "models", "oracle", "cli"):
        importlib.import_module(f"gelsolve.{name}")
    return pkg


def serve(pkg, req):
    """Answer one request: (exit code, CLI stdout or list of library results)."""
    if req["call"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = pkg.cli.main(req["argv"])
        return rc, out.getvalue()
    spec = req["measure"]
    if spec["type"] == "arm-law":
        measure = pkg.measures.arm_measure_from_config(spec)
    else:
        measure = pkg.measures.mass_measure_from_config(spec)
    model = pkg.models.make_model(req["model"], measure)
    results = []
    for method, t, x in req["queries"]:
        fn = getattr(model, method)
        results.append(fn(t) if x is None else fn(t, x))
    return 0, results


def peak_rss_mb():
    """High-water resident set of this process's own address space.

    VmHWM starts afresh at exec; ru_maxrss does not (Linux carries the
    spawning client's peak into it), so it is only the fallback."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def plain(value):
    """Library results as JSON numbers (a SolutionState as a dict)."""
    if hasattr(value, "alpha"):
        return {f: float(getattr(value, f)) for f in STATE_FIELDS}
    return float(value)


def main():
    src, trace, spans_path = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    reply = sys.stdout
    pkg = load(src)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(pkg)
    reply.write("ready\n")
    reply.flush()
    since, block = 0.0, None
    for line in sys.stdin:
        if not line.strip():
            break
        req = json.loads(line)
        speed = None
        if req["block"] != block or since >= CALIBRATE_EVERY_S:
            speed, since, block = calib.sample(), 0.0, req["block"]
        start = time.perf_counter()
        try:
            if tracer is not None and req["block"] % 2 == 1:
                rc, result = tracer.run(req["id"], lambda: serve(pkg, req))
            else:
                rc, result = serve(pkg, req)
            latency = time.perf_counter() - start
            answer = {"rc": rc, "latency": latency,
                      "out": result if isinstance(result, str) else [plain(v) for v in result]}
        except Exception as exc:  # a request that raises is a failed request
            latency = time.perf_counter() - start
            answer = {"rc": None, "latency": latency, "error": f"{type(exc).__name__}: {exc}"}
        since += latency
        answer["calib_s"] = speed
        reply.write(json.dumps(answer) + "\n")
        reply.flush()
    summary = {"peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.write(spans_path)
        summary.update(calls=tracer.calls, self_s=tracer.self_s, total_s=tracer.total_s,
                       evals=tracer.evals)
    reply.write(json.dumps(summary) + "\n")
    reply.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
