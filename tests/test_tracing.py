"""The benchmark tracer still finds every gelsolve function it wraps.

perfbench/tracing.py looks each target up by name in the gelsolve modules at
start-up, so deleting or renaming a traced function breaks
`perfbench/run.py --trace 1` before it serves a request.
"""
import importlib.util
from pathlib import Path

import gelsolve
import gelsolve.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
ARMS = '{"type":"arm-law","mu":{"0":0.5,"1":0.25,"3":0.25}}'


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_site_names_a_gelsolve_attribute():
    # a site that no longer resolves is a KeyError that stops every traced run
    tracing = _tracing_module()
    missing = []
    for _, _, sites in tracing.TARGETS:
        for module, owner, attr in sites:
            holder = getattr(gelsolve, module, None)
            if owner is not None:
                holder = getattr(holder, owner, None)
            if holder is None or attr not in vars(holder):
                missing.append((module, owner, attr))
    assert missing == []
    tracing.Tracer(gelsolve)


def test_every_target_resolves_and_a_traced_request_runs(capsys):
    tracer = _tracing_module().Tracer(gelsolve)
    argv = ["concentrations", "--model", "flory-arms", "--measure", ARMS,
            "--t", "1", "--amax", "3", "--mmax", "3"]
    code = tracer.run(1, lambda: gelsolve.cli.main(argv))
    assert code == 0
    assert capsys.readouterr().out.startswith("a,m,c\n")
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["series.arms_concentrations"] == 1
    assert tracer.calls["measures.conv_power"] == 1
    # the wrappers come off when the request ends
    assert not hasattr(gelsolve.cli.main, "__wrapped__")
    assert not hasattr(gelsolve.series.conv_power, "__wrapped__")


def test_a_traced_validate_counts_four_right_hand_sides_per_step(capsys):
    # t_end = 1 at dt = 0.05 is two RK4 steps for each of the 10 grid intervals
    tracer = _tracing_module().Tracer(gelsolve)
    argv = ["validate", "--model", "flory", "--measure", '{"type":"monodisperse"}',
            "--t-end", "1", "--dt", "0.05", "--mmax", "20", "--tol", "1"]
    assert tracer.run(1, lambda: gelsolve.cli.main(argv)) == 0
    assert capsys.readouterr().out.startswith("t,analytic,oracle,abs_error\n")
    assert tracer.calls["oracle.integrate"] == 1
    assert tracer.calls["oracle.rhs"] == 4 * 20
