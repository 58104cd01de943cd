"""gelsolve benchmark: a seeded request stream served by one warm process.

Run from the repository root:

    python3 perfbench/run.py --workload classic --seed 1 --seconds 15 --trace 0

This process is the client.  It builds the stream and every reference value,
times the set-up in fresh interpreters, then sends the requests one at a time
to a serving process (perfbench/server.py) and checks each answer before it
sends the next: a closed loop with one client and one request in flight.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  See perfbench/README.md for the design.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import calib
import checks
import streams

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
MODULES = ("measures", "characteristics", "series", "models", "oracle", "cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env():
    """Environment of the serving and probe processes: single-threaded
    numerics, no GELSOLVE_THREADS pool, and nothing on PYTHONPATH."""
    env = dict(os.environ)
    env.pop("GELSOLVE_THREADS", None)
    env.pop("PYTHONPATH", None)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def provenance():
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gelsolve").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def probe(spec_path, importtime=False):
    """Wall time of one fresh interpreter that imports gelsolve.cli and builds
    the run's measures; with importtime, also each module's import time."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(HERE / "probe.py"), str(SRC), str(spec_path)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    modules = {}
    for line in proc.stderr.splitlines():
        # "import time: self [us] | cumulative | imported package"
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            name = parts[2].strip()
            if name.startswith("gelsolve.") and name[9:] in MODULES:
                modules[name[9:]] = int(parts[1]) * 1e-6
    return elapsed, modules


def run_stream(stream, expected, trace, spans_path):
    """Serve the stream in one server process; returns latencies, failed-check
    counts, the number of failed requests and the server's closing summary.
    Latencies come back twice: as measured, and in reference seconds."""
    server = subprocess.Popen(
        [sys.executable, str(HERE / "server.py"), str(SRC), str(int(trace)), str(spans_path)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), text=True, cwd=HERE)
    try:
        if server.stdout.readline().strip() != "ready":
            raise RuntimeError("serving process did not start")
        latencies, failed_checks, failed = [], Counter(), 0
        speeds = [[] for _ in range(streams.BLOCKS)]
        for req, exp in zip(stream, expected):
            server.stdin.write(json.dumps(req) + "\n")
            server.stdin.flush()
            answer = json.loads(server.stdout.readline())
            latencies.append(answer["latency"])
            if answer["calib_s"] is not None:
                speeds[req["block"]].append(answer["calib_s"])
            if "error" in answer:
                names = ["raised"]
                print(f"# request {req['id']} raised {answer['error']}", file=sys.stderr)
            else:
                try:
                    names = checks.failures(exp, checks.observe(req, answer["rc"], answer["out"]))
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    names = ["unparsable_output"]
                    print(f"# request {req['id']}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed_checks.update(names)
            failed += bool(names)
        server.stdin.write("\n")
        server.stdin.flush()
        summary = json.loads(server.stdout.readline())
        server.wait(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    # each block's latencies in reference seconds, at its median speed sample
    scale = [calib.REFERENCE_S / statistics.median(v) for v in speeds]
    scaled = [t * scale[req["block"]] for req, t in zip(stream, latencies)]
    return latencies, scaled, failed_checks, failed, summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=streams.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gelsolve" / "__init__.py").is_file():
        print(f"perfbench: no gelsolve sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{'trace' if args.trace else 'e2e'}"
    env = provenance()

    # The stream and every reference value exist before any timing starts.
    phase = time.perf_counter()
    stream = streams.build(args.workload, args.seed, args.seconds)
    expected = [checks.expect(req) for req in stream]
    refs_s = time.perf_counter() - phase
    spec_path = OUT / f"specs-{tag}.json"
    spec_path.write_text(json.dumps([req["measure"] for req in stream]))

    probe(spec_path)  # untimed: leaves bytecode caches warm for the timed probes
    probes = [probe(spec_path, importtime=bool(args.trace)) for _ in range(SETUP_PROBES)]

    spans_path = OUT / f"spans-{tag}.json"
    latencies, scaled, failed_checks, failed, summary = run_stream(
        stream, expected, args.trace, spans_path)
    unknown = sorted(set(failed_checks) - set(checks.KNOWN_DEFECTS))

    raw = {
        "setup_s": statistics.median(p[0] for p in probes),
        "wall_s": sum(latencies),
        "request_p50_s": float(np.percentile(latencies, 50)),
        "request_p90_s": float(np.percentile(latencies, 90)),
    }
    if args.trace:
        metrics = layer_metrics(stream, latencies, scaled, summary, probes)
    else:
        # times in reference seconds (calib.py); the raw seconds go to the record
        metrics = {
            # set-up at the machine speed the serving measured just after it:
            # one probe's speed sample is too noisy for a 1 s import
            "setup_s": (raw["setup_s"] * sum(scaled) / sum(latencies), "s"),
            "wall_s": (sum(scaled), "s"),
            "request_p50_s": (float(np.percentile(scaled, 50)), "s"),
            "request_p90_s": (float(np.percentile(scaled, 90)), "s"),
            "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
            "ok_frac": ((len(stream) - failed) / len(stream), "frac"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    kinds = dict(Counter(req["kind"] for req in stream))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "requests": kinds,
        "failed_checks": dict(failed_checks), "unknown_failures": unknown,
        "known_defects": {k: v for k, v in checks.KNOWN_DEFECTS.items() if k in failed_checks},
        "metrics": metrics, "raw_seconds": raw,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# {len(stream)} requests {kinds}; references took {refs_s:.1f} s")
    print("# raw seconds " + json.dumps(raw))
    for name, count in sorted(failed_checks.items()):
        note = checks.KNOWN_DEFECTS.get(name, "UNEXPECTED")
        print(f"# failed check {name}: {count} requests ({note})")
    print(json.dumps({"correct": not unknown, "attempted": len(stream),
                      "failed": failed, "metrics": metrics}))
    return 0


def odd_even(stream, latencies):
    """Summed latency of the even (untraced) and odd (traced) blocks."""
    sums = [0.0, 0.0]
    for req, t in zip(stream, latencies):
        sums[req["block"] % 2] += t
    return sums


def layer_metrics(stream, latencies, scaled, summary, probes):
    """Per-layer metrics of a traced run; spans cover the odd blocks.  Span
    times are raw seconds; the overhead compares reference seconds, so a
    change of machine speed between blocks does not enter it."""
    traced = odd_even(stream, latencies)[1]
    untraced_ref, traced_ref = odd_even(stream, scaled)
    calls, self_s = Counter(summary["calls"]), Counter(summary["self_s"])
    out = {}
    for m in MODULES:
        out[f"import.{m}_s"] = (statistics.median(p[1].get(m, 0.0) for p in probes), "s")
    for name in ("measures.g0", "measures.k0", "measures.conv_power",
                 "characteristics.bisect", "characteristics.flow.state", "models.h_inverse",
                 "series.ps_revert", "series.arms_mass", "oracle.rhs"):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    out["characteristics.bisect.evals"] = (summary["evals"], "count")
    out["characteristics.flow.build.calls"] = (calls["characteristics.flow.build"], "count")
    # inclusive: how much of the traced blocks' time the flow accounts for
    out["characteristics.flow.state.total_s"] = (
        summary["total_s"].get("characteristics.flow.state", 0.0), "s")
    out["trace.traced_wall_s"] = (traced, "s")
    for name in ("characteristics.ell_smolu", "characteristics.l_flory", "models.gen_fun",
                 "models.state", "models.second_moment", "models.mass", "series.ps_compose",
                 "series.ps_exp", "series.concentrations", "series.arms_concentrations",
                 "series.limiting_concentrations", "oracle.integrate", "oracle.compare",
                 "cli.main"):
        out[f"{name}.self_s"] = (self_s[name], "s")
    # traced blocks over untraced blocks; stratification makes their work equal
    out["trace.overhead_frac"] = (traced_ref / untraced_ref - 1.0, "frac")
    return out


if __name__ == "__main__":
    sys.exit(main())
