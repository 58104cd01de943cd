"""Replay a benchmark workload's seeded request stream in-process.

Run from the repository root:

    python3 tools/replay.py --workload classic --seed 1 --src src > new.jsonl
    python3 tools/replay.py --workload classic --seed 1 --src ../old/src > old.jsonl
    python3 tools/replay.py --compare old.jsonl new.jsonl

The stream comes from perfbench/streams.py and each request is answered by
perfbench/server.py's `serve`, in one interpreter that imports gelsolve from
--src; both are only read.  Each request gives one JSON line: its id, the
kind (mass, concentrations, limits, ...), the model it names (null if none),
the exit code and the output (CLI stdout as text, library results with every
float written as its repr), or the exception it raised.  Two replays agree
bit for bit exactly when `cmp` finds the files equal.  --compare reports how
many requests and values differ, how many requests of each kind and of each
model differ, and the largest relative difference, overall and under each
name: a column of a CSV answer, a key of a JSON answer or a field of a library
state (values of one name pooled over every request that gives them).  It
also gives the largest absolute difference under each name, since a value
that moves off 0, such as an error of 0 that becomes 1e-16, is a relative
difference of 1.

--timing also writes to stderr, for each (kind, model, measure type) of the
stream, the number of requests and the in-process seconds spent serving
them, one JSON line each, then their total; stdout is the same with or
without it:

    python3 tools/replay.py --workload validate --seed 1 --timing > /dev/null
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# a number standing alone, so the digits and "inf" inside keys such as M0 or
# M_inf are not counted
NUMBER = re.compile(r"(?<![\w.])-?(?:inf|nan|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?!\w)")
NAME = re.compile(r"[A-Za-z_]\w*")


def _exact(value):
    """Library results with each float as its repr (a SolutionState as a dict)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_exact(v) for v in value]
    return value


def _model(req):
    """The model a request names: a library batch's, or its CLI --model, else None."""
    if req["call"] == "lib":
        return req["model"]
    argv = req["argv"]
    return argv[argv.index("--model") + 1] if "--model" in argv else None


def replay(workload, seed, seconds, src, stream, timing=None):
    """Write one line per request to stream; add each request's serving time to timing.

    timing, when given, is a dict from (kind, model, measure type) to
    [requests, seconds].
    """
    sys.path.insert(0, str(PERFBENCH))
    import server
    import streams

    pkg = server.load(str(Path(src).resolve()))
    for req in streams.build(workload, seed, seconds):
        line = {"id": req["id"], "kind": req["kind"], "model": _model(req)}
        start = time.perf_counter()
        try:
            rc, result = server.serve(pkg, req)
        except Exception as exc:  # recorded, so both sides can be compared
            line["error"] = f"{type(exc).__name__}: {exc}"
        if timing is not None:
            key = (req["kind"], line["model"], req["measure"]["type"])
            group = timing.setdefault(key, [0, 0.0])
            group[0] += 1
            group[1] += time.perf_counter() - start
        if "error" not in line:
            line["rc"] = rc
            if isinstance(result, str):
                line["out"] = result
            else:
                line["out"] = _exact([server.plain(v) for v in result])
        stream.write(json.dumps(line, sort_keys=True) + "\n")


def _leaves(value, name=None):
    """(key, leaf) for each leaf of a JSON value, its keys in sorted order.

    A leaf in a list takes the list's key; one under no key has the key None.
    """
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], key)
    elif isinstance(value, list):
        for v in value:
            yield from _leaves(v, name)
    else:
        yield name, value


def _values(line):
    """Every number in a replayed answer, in order."""
    out = line.get("out")
    if isinstance(out, str):
        return [float(tok) for tok in NUMBER.findall(out)]
    return [float(v) for _, v in _leaves(out) if isinstance(v, str)]


def _named(value):
    """The numbers in a JSON value under their keys as {key: values}.

    A number under no key (a library result that is a bare float) and a
    boolean are left out.
    """
    found = {}
    for name, v in _leaves(value):
        if name is not None and not isinstance(v, bool):
            try:
                found.setdefault(name, []).append(float(v))
            except (TypeError, ValueError):
                pass
    return found


def _columns(line):
    """An answer's named values as {name: values}, else None.

    A CSV answer (a header of names, then rows of numbers) gives its columns,
    a JSON answer its keys and a library answer the fields of its states.
    """
    out = line.get("out")
    if isinstance(out, list):
        return _named(out)
    if not isinstance(out, str) or not out:
        return None
    if out.startswith("{"):
        try:
            return _named(json.loads(out))
        except ValueError:
            return None
    header, *rows = out.splitlines()
    names = header.split(",")
    if not all(NAME.fullmatch(name) for name in names):
        return None
    try:
        table = [[float(x) for x in row.split(",")] for row in rows]
    except ValueError:
        return None
    if any(len(row) != len(names) for row in table):
        return None
    return {name: [row[i] for row in table] for i, name in enumerate(names)}


def _abs(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b)


def _rel(a, b):
    d = _abs(a, b)
    return d if d in (0.0, math.inf) else d / max(abs(a), abs(b))


def compare(path_a, path_b, stream):
    with open(path_a) as fa, open(path_b) as fb:
        lines_a = [json.loads(l) for l in fa]
        lines_b = [json.loads(l) for l in fb]
    if len(lines_a) != len(lines_b):
        stream.write(f"request counts differ: {len(lines_a)} vs {len(lines_b)}\n")
        return 1
    requests = values = differing = 0
    worst, worst_id = 0.0, None
    by_kind = {}  # differing requests of each kind, over the lines that carry one
    by_model = {}  # the same for the model a request names
    by_column = {}  # largest relative difference under each name (`_columns`)
    abs_by_column = {}  # largest absolute difference under each name
    for a, b in zip(lines_a, lines_b):
        if "kind" in a:
            by_kind[a["kind"]] = by_kind.get(a["kind"], 0) + (a != b)
        if "model" in a:
            by_model[a["model"]] = by_model.get(a["model"], 0) + (a != b)
        cols_a, cols_b = _columns(a), _columns(b)
        if a == b:
            values += len(_values(a))
            for name in cols_a or ():
                by_column.setdefault(name, 0.0)
                abs_by_column.setdefault(name, 0.0)
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
        if cols_a is not None and cols_b is not None and cols_a.keys() == cols_b.keys():
            for name, col in cols_a.items():
                r = max(map(_rel, col, cols_b[name]), default=0.0)
                by_column[name] = max(by_column.get(name, 0.0), r)
                d = max(map(_abs, col, cols_b[name]), default=0.0)
                abs_by_column[name] = max(abs_by_column.get(name, 0.0), d)
    stream.write(json.dumps({
        "requests": len(lines_a), "values": values,
        "differing_requests": requests, "differing_values": differing,
        "differing_by_kind": by_kind, "differing_by_model": by_model,
        "max_rel_diff": worst, "worst_request": worst_id,
        "max_rel_diff_by_column": by_column, "max_abs_diff_by_column": abs_by_column,
    }) + "\n")
    return 0 if requests == 0 else 1


def write_timing(timing, stream):
    """One JSON line per (kind, model, measure type), sorted, then the total over all."""
    total = sum(seconds for _, seconds in timing.values())
    for (kind, model, measure), (requests, seconds) in sorted(
        timing.items(), key=lambda item: (item[0][0], item[0][1] or "", item[0][2])
    ):
        stream.write(json.dumps({
            "kind": kind, "model": model, "measure": measure,
            "requests": requests, "seconds": seconds,
        }) + "\n")
    stream.write(json.dumps({
        "requests": sum(requests for requests, _ in timing.values()), "seconds": total,
    }) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--src", default="src", help="directory holding gelsolve/")
    parser.add_argument("--output", help="write here instead of stdout")
    parser.add_argument("--timing", action="store_true",
                        help="write requests and seconds per (kind, model, measure "
                             "type) to stderr")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, sys.stdout)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    timing = {} if args.timing else None
    if args.output:
        with open(args.output, "w") as f:
            replay(args.workload, args.seed, args.seconds, args.src, f, timing)
    else:
        replay(args.workload, args.seed, args.seconds, args.src, sys.stdout, timing)
    if timing is not None:
        write_timing(timing, sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
