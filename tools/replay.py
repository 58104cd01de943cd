"""Replay a benchmark workload's seeded request stream in-process.

Run from the repository root:

    python3 tools/replay.py --workload classic --seed 1 --src src > new.jsonl
    python3 tools/replay.py --workload classic --seed 1 --src ../old/src > old.jsonl
    python3 tools/replay.py --compare old.jsonl new.jsonl

The stream comes from perfbench/streams.py and each request is answered by
perfbench/server.py's `serve`, in one interpreter that imports gelsolve from
--src; both are only read.  Each request gives one JSON line: its id, the
exit code and the output (CLI stdout as text, library results with every
float written as its repr), or the exception it raised.  Two replays agree
bit for bit exactly when `cmp` finds the files equal.  --compare reports how
many requests and values differ and the largest relative difference.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# a number standing alone, so the digits and "inf" inside keys such as M0 or
# M_inf are not counted
NUMBER = re.compile(r"(?<![\w.])-?(?:inf|nan|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?!\w)")


def _exact(value):
    """Library results with each float as its repr (a SolutionState as a dict)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_exact(v) for v in value]
    return value


def replay(workload, seed, seconds, src, stream):
    sys.path.insert(0, str(PERFBENCH))
    import server
    import streams

    pkg = server.load(str(Path(src).resolve()))
    for req in streams.build(workload, seed, seconds):
        line = {"id": req["id"]}
        try:
            rc, result = server.serve(pkg, req)
        except Exception as exc:  # recorded, so both sides can be compared
            line["error"] = f"{type(exc).__name__}: {exc}"
        else:
            line["rc"] = rc
            if isinstance(result, str):
                line["out"] = result
            else:
                line["out"] = _exact([server.plain(v) for v in result])
        stream.write(json.dumps(line, sort_keys=True) + "\n")


def _values(line):
    """Every number in a replayed answer, in order."""
    out = line.get("out")
    if isinstance(out, str):
        return [float(tok) for tok in NUMBER.findall(out)]
    found = []

    def walk(v):
        if isinstance(v, dict):
            for k in sorted(v):
                walk(v[k])
        elif isinstance(v, list):
            for x in v:
                walk(x)
        elif isinstance(v, str):
            found.append(float(v))

    walk(out)
    return found


def _rel(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(path_a, path_b, stream):
    with open(path_a) as fa, open(path_b) as fb:
        lines_a = [json.loads(l) for l in fa]
        lines_b = [json.loads(l) for l in fb]
    if len(lines_a) != len(lines_b):
        stream.write(f"request counts differ: {len(lines_a)} vs {len(lines_b)}\n")
        return 1
    requests = values = differing = 0
    worst, worst_id = 0.0, None
    for a, b in zip(lines_a, lines_b):
        if a == b:
            values += len(_values(a))
            continue
        requests += 1
        va, vb = _values(a), _values(b)
        if a.get("rc") != b.get("rc") or "error" in a or "error" in b or len(va) != len(vb):
            stream.write(f"request {a['id']}: {a.get('rc', a.get('error'))!r} vs "
                         f"{b.get('rc', b.get('error'))!r}, {len(va)} vs {len(vb)} values\n")
            worst, worst_id = math.inf, a["id"]
            continue
        for x, y in zip(va, vb):
            values += 1
            r = _rel(x, y)
            differing += r > 0.0
            if r > worst:
                worst, worst_id = r, a["id"]
    stream.write(json.dumps({
        "requests": len(lines_a), "values": values,
        "differing_requests": requests, "differing_values": differing,
        "max_rel_diff": worst, "worst_request": worst_id,
    }) + "\n")
    return 0 if requests == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--src", default="src", help="directory holding gelsolve/")
    parser.add_argument("--output", help="write here instead of stdout")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, sys.stdout)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if args.output:
        with open(args.output, "w") as f:
            replay(args.workload, args.seed, args.seconds, args.src, f)
    else:
        replay(args.workload, args.seed, args.seconds, args.src, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
