"""tools/replay.py --compare counts the values two replays disagree on.

Output claims rest on this comparison, so it is checked here on small
hand-written replay files.  --timing is checked on a short replay: it must not
change what the replay writes.
"""
import importlib.util
import json
import math
from pathlib import Path

import pytest

REPLAY = Path(__file__).resolve().parents[1] / "tools" / "replay.py"
# one CLI answer and one library answer, floats written as their repr
LINES = [
    {"id": 0, "rc": 0, "out": "t,M\n0,1\n0.5,0.75\n"},
    {"id": 1, "rc": 0, "out": [{"ell": "0.25", "alpha": "inf"}, ["1.5", "2.0"]]},
]


def _replay_module():
    spec = importlib.util.spec_from_file_location("gelsolve_replay", REPLAY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compare(tmp_path, capsys, lines_a, lines_b):
    paths = []
    for name, lines in (("a.jsonl", lines_a), ("b.jsonl", lines_b)):
        path = tmp_path / name
        path.write_text("".join(json.dumps(l, sort_keys=True) + "\n" for l in lines))
        paths.append(str(path))
    code = _replay_module().main(["--compare", *paths])
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


def test_identical_files_agree(tmp_path, capsys):
    code, report = _compare(tmp_path, capsys, LINES, LINES)
    assert code == 0
    assert report["values"] == 8
    assert report["differing_requests"] == report["differing_values"] == 0
    assert report["max_rel_diff"] == 0.0


def test_one_perturbed_float_is_one_differing_value(tmp_path, capsys):
    moved = json.loads(json.dumps(LINES))
    moved[1]["out"][1][0] = "1.5000000003"
    code, report = _compare(tmp_path, capsys, LINES, moved)
    assert code == 1
    assert report["differing_requests"] == report["differing_values"] == 1
    assert report["max_rel_diff"] == (1.5000000003 - 1.5) / 1.5000000003
    assert report["worst_request"] == 1


def test_changed_exit_code_is_an_infinite_difference(tmp_path, capsys):
    failed = json.loads(json.dumps(LINES))
    failed[0]["rc"] = 1
    code, report = _compare(tmp_path, capsys, LINES, failed)
    assert code == 1
    assert report["differing_requests"] == 1
    assert math.isinf(report["max_rel_diff"])
    assert report["worst_request"] == 0


def test_differing_requests_are_counted_by_kind(tmp_path, capsys):
    kinds = [dict(line, kind=kind) for line, kind in zip(LINES, ("trajectory", "batch"))]
    moved = json.loads(json.dumps(kinds))
    moved[1]["out"][0]["ell"] = "0.2500000001"
    code, report = _compare(tmp_path, capsys, kinds, moved)
    assert code == 1
    assert report["differing_by_kind"] == {"trajectory": 0, "batch": 1}
    # replays written without kinds still compare, with no breakdown
    code, report = _compare(tmp_path, capsys, LINES, LINES)
    assert code == 0 and report["differing_by_kind"] == {}


def test_differing_requests_are_counted_by_model(tmp_path, capsys):
    # a request that names no model is counted under null
    named = [dict(LINES[0], kind="batch", model="flory-arms"),
             dict(LINES[1], kind="batch", model="flory"),
             dict(LINES[1], id=2, kind="batch", model=None)]
    moved = json.loads(json.dumps(named))
    moved[0]["out"] = "t,M\n0,1\n0.5,0.7500000001\n"
    code, report = _compare(tmp_path, capsys, named, moved)
    assert code == 1
    assert report["differing_by_model"] == {"flory-arms": 1, "flory": 0, "null": 0}
    assert report["differing_by_kind"] == {"batch": 1}
    # replays written without models still compare, with no breakdown
    code, report = _compare(tmp_path, capsys, LINES, LINES)
    assert code == 0 and report["differing_by_model"] == {}


def test_csv_answers_report_each_column(tmp_path, capsys):
    # an oracle value one ulp off moves abs_error from 0: a relative
    # difference of 1 in that column alone
    csv = [{"id": 0, "rc": 0, "out": "t,analytic,oracle,abs_error\n0,1,1,0\n0.5,0.75,0.75,0\n"}]
    moved = [{"id": 0, "rc": 0, "out": "t,analytic,oracle,abs_error\n"
              "0,1,1,0\n0.5,0.75,0.75000000000000011,1.1102230246251565e-16\n"}]
    code, report = _compare(tmp_path, capsys, csv + LINES[1:], moved + LINES[1:])
    assert code == 1
    assert report["differing_values"] == 2
    assert report["max_rel_diff"] == 1.0
    assert report["max_rel_diff_by_column"] == {
        "t": 0.0, "analytic": 0.0,
        "oracle": (0.75000000000000011 - 0.75) / 0.75000000000000011, "abs_error": 1.0,
    }
    # unchanged CSV answers list their columns at 0; library answers add none
    code, report = _compare(tmp_path, capsys, LINES, LINES)
    assert report["max_rel_diff_by_column"] == {"t": 0.0, "M": 0.0}


def test_timing_goes_to_stderr_and_leaves_stdout_alone(capsys):
    # the smallest classic stream, replayed with and without it
    import gelsolve

    src = str(Path(gelsolve.__file__).resolve().parent.parent)
    args = ["--workload", "classic", "--seed", "1", "--seconds", "0", "--src", src]
    replay = _replay_module()
    assert replay.main(args) == 0
    plain = capsys.readouterr()
    assert replay.main(args + ["--timing"]) == 0
    timed = capsys.readouterr()
    assert timed.out == plain.out and plain.err == ""
    assert {json.loads(line)["model"] for line in plain.out.splitlines()} >= {
        "smoluchowski", "flory", None}
    *groups, total = [json.loads(line) for line in timed.err.splitlines()]
    assert total["requests"] == len(plain.out.splitlines())
    assert sum(g["requests"] for g in groups) == total["requests"]
    assert sum(g["seconds"] for g in groups) == pytest.approx(total["seconds"])
    assert {(g["kind"], g["model"], g["measure"]) for g in groups} >= {
        ("trajectory", "smoluchowski", "monodisperse"), ("trajectory", "flory", "discrete"),
        ("concentrations", "flory", "monodisperse"),
        ("concentrations", "smoluchowski", "discrete"), ("moments", None, "powerlaw"),
    }
