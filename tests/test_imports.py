"""The library needs numpy only: no scipy in its source, and none loaded by the CLI.

The oracle stays independent of the solver: it imports no module with its formulas.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import gelsolve

SCRIPT = r"""
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import gelsolve.cli

after_import = scipy_modules()
ARMS = '{"type":"arm-law","mu":{"0":0.5,"1":0.25,"3":0.25}}'  # T_gel = 2
model = ("--model", "smoluchowski-arms", "--measure", ARMS)
codes = []
for argv in (
    ("trajectory", *model, "--t-end", "6", "--count", "4"),
    ("concentrations", *model, "--t", "3", "--amax", "6", "--mmax", "6"),
    ("limits", *model, "--mmax", "8"),
    ("validate", *model, "--t-end", "3", "--amax", "20", "--mmax", "20",
     "--dt", "0.01", "--tol", "1"),
):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(gelsolve.cli.main(list(argv)))
print(json.dumps({"import": after_import, "served": scipy_modules(), "codes": codes}))
"""


def test_cli_loads_no_scipy():
    src = str(Path(gelsolve.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    result = json.loads(proc.stdout)
    assert result["import"] == []
    assert result["served"] == []
    assert result["codes"] == [0, 0, 0, 0]


def test_source_mentions_no_scipy():
    src = Path(gelsolve.__file__).resolve().parent
    assert [p.name for p in sorted(src.glob("*.py")) if "scipy" in p.read_text()] == []


def _imported_modules(path):
    """The modules a source file imports, its relative imports read inside gelsolve."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["gelsolve" if node.level else None, node.module]))
            if module == "gelsolve":
                # from . import x, from gelsolve import x: x may be a module
                names.update(f"gelsolve.{alias.name}" for alias in node.names)
            else:
                names.add(module)
    return names


def test_oracle_imports_no_solver_module():
    # its docstring promises that the oracle shares no formulas with the solver
    oracle = Path(gelsolve.__file__).resolve().parent / "oracle.py"
    ours = {m for m in _imported_modules(oracle) if m.split(".")[0] == "gelsolve"}
    assert ours <= {"gelsolve.errors", "gelsolve.measures"}
