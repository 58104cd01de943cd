"""The library needs numpy only: no scipy in its source, and none loaded by the CLI.

numpy itself is imported at the first array operation, not at `import
gelsolve`: until then `gelsolve.measures.np` is a private stand-in that
imports numpy at its first attribute read and puts nothing in sys.modules, so
building measures, `moments`, linear `trajectory` and the gel-inert arms flow
past T_gel load no numpy module.  With numpy imported first, `np` is numpy
itself.

The oracle stays independent of the solver: it imports no module with its formulas.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import gelsolve
from gelsolve.characteristics import _GL_NODES, _GL_WEIGHTS

SCRIPT = r"""
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import gelsolve.cli

after_import = scipy_modules()
numpy_after_import = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
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
print(json.dumps({
    "import": after_import, "numpy_import": numpy_after_import,
    "served": scipy_modules(), "codes": codes,
}))
"""


def _run(script):
    """The JSON that script prints, run in a fresh interpreter on this gelsolve."""
    src = str(Path(gelsolve.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    return json.loads(proc.stdout)


def test_cli_loads_no_scipy():
    result = _run(SCRIPT)
    assert result["import"] == []
    assert result["numpy_import"] == []
    assert result["served"] == []
    assert result["codes"] == [0, 0, 0, 0]


SCALAR_SCRIPT = r"""
import contextlib, io, json, sys

def numpy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "numpy")

import gelsolve.cli
from gelsolve.measures import arm_measure_from_config, mass_measure_from_config
from gelsolve.models import SmoluchowskiArms

MASS = [
    {"type": "monodisperse"}, {"type": "exponential"},
    {"type": "powerlaw", "p": 1.5}, {"type": "discrete", "atoms": [[1, 0.5], [3, 0.5]]},
]
ARMS = [
    {"type": "arm-law", "mu": {"0": 0.5, "1": 0.25, "3": 0.25}},  # T_gel = 2
    {"type": "arms", "triples": [[1, 1, 0.5], [3, 2, 0.5]]},
]
for spec in MASS:
    mass_measure_from_config(spec)
for spec in ARMS:
    arm_measure_from_config(spec)
built = numpy_modules()

def trajectory(model, spec, t_end):
    return ("trajectory", "--model", model, "--measure", json.dumps(spec),
            "--t-end", str(t_end), "--count", "5")

codes = []
for argv in (
    *[("moments", "--measure", json.dumps(spec)) for spec in MASS + ARMS],
    trajectory("smoluchowski", MASS[0], 3),
    trajectory("smoluchowski", MASS[1], 3),
    trajectory("smoluchowski", MASS[2], 3),
    trajectory("flory", MASS[0], 3),
    trajectory("flory", MASS[3], 3),
    trajectory("flory-arms", ARMS[0], 6),
    trajectory("smoluchowski-arms", ARMS[0], 1.5),
    trajectory("smoluchowski-arms", ARMS[0], 6),  # the gel-inert flow past T_gel
):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(gelsolve.cli.main(list(argv)))
gel_inert = SmoluchowskiArms(arm_measure_from_config(ARMS[0]))
gel_inert.state(3.0)
gel_inert.limit()
served = numpy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    arrays = gelsolve.cli.main(["concentrations", "--model", "flory", "--measure",
                                json.dumps(MASS[0]), "--t", "2", "--order", "8"])
import numpy
print(json.dumps({
    "built": built, "served": served, "codes": codes, "arrays": arrays,
    "numpy_works": int(numpy.arange(4).sum()),
    "same_numpy": gelsolve.measures.np.ndarray is numpy.ndarray,
}))
"""


def test_scalar_commands_load_no_numpy():
    result = _run(SCALAR_SCRIPT)
    assert result["built"] == []
    assert result["served"] == []
    assert result["codes"] == [0] * 14
    # the first array operation imports numpy, which then works as numpy
    assert result["arrays"] == 0
    assert result["numpy_works"] == 6
    assert result["same_numpy"]


def test_cli_import_loads_no_dataclasses():
    # the records are named tuples: dataclasses would bring inspect, ast and dis
    result = _run(
        "import json, sys, gelsolve.cli\n"
        "print(json.dumps([m for m in ('dataclasses', 'inspect') if m in sys.modules]))"
    )
    assert result == []


def test_cli_import_loads_no_argparse():
    # the command line is read from cli's option table; argparse brings gettext
    result = _run(
        "import json, sys, gelsolve.cli\n"
        "print(json.dumps([m for m in ('argparse', 'gettext') if m in sys.modules]))"
    )
    assert result == []


def test_numpy_imported_first_is_bound_as_is():
    # how a host that already uses numpy sees it: no lazy module in between
    result = _run(
        "import json, sys, types, numpy, gelsolve.cli, gelsolve.measures\n"
        "np = gelsolve.measures.np\n"
        "print(json.dumps([np is sys.modules['numpy'], type(np) is types.ModuleType]))"
    )
    assert result == [True, True]


THREADS_SCRIPT = r"""
import json, sys, threading
import gelsolve.measures

assert "numpy" not in sys.modules
barrier = threading.Barrier(3)
errors, sums = [], []

def through_gelsolve():
    barrier.wait()
    sums.append(int(gelsolve.measures.np.arange(5).sum()))

def through_import():
    barrier.wait()
    import numpy
    sums.append(int(numpy.arange(5).sum()))

def run(target):
    try:
        target()
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=run, args=(f,))
           for f in (through_gelsolve, through_gelsolve, through_import)]
for t in threads:
    t.start()
for t in threads:
    t.join()
import numpy
print(json.dumps({
    "errors": errors, "sums": sums, "file": bool(getattr(numpy, "__file__", None)),
    "same": gelsolve.measures.np.arange is numpy.arange,
}))
"""


def test_first_numpy_reads_from_two_threads_see_all_of_numpy():
    # gelsolve's np and a plain `import numpy` touch numpy first at once
    result = _run(THREADS_SCRIPT)
    assert result == {"errors": [], "sums": [10, 10, 10], "file": True, "same": True}


def test_missing_numpy_is_an_import_error():
    result = _run(
        "import json, sys\n"
        "sys.modules['numpy'] = None  # blocks the import, as if numpy were not installed\n"
        "try:\n"
        "    import gelsolve.measures\n"
        "except ImportError as exc:\n"
        "    print(json.dumps([type(exc).__name__, exc.name]))\n"
    )
    assert result == ["ModuleNotFoundError", "numpy"]


def test_gauss_legendre_literals_are_leggauss_to_the_bit():
    nodes, weights = np.polynomial.legendre.leggauss(12)
    assert [x.hex() for x in _GL_NODES] == [x.hex() for x in (0.5 * (nodes + 1.0)).tolist()]
    assert [w.hex() for w in _GL_WEIGHTS] == [w.hex() for w in (0.5 * weights).tolist()]


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
