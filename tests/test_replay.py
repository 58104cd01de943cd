"""tools/replay.py --compare counts the values two replays disagree on.

Output claims rest on this comparison, so it is checked here on small
hand-written replay files.
"""
import importlib.util
import json
import math
from pathlib import Path

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
