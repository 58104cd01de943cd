"""Tests of the benchmark itself: streams, references and checks.

None of these import gelsolve; they run in a few seconds.
"""
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import refs  # noqa: E402
import streams  # noqa: E402

SECONDS = 1  # the smallest stream: MIN_REQUESTS requests


def model_of(req):
    if req["call"] == "lib":
        return req["model"]
    argv = req["argv"]
    return argv[argv.index("--model") + 1] if "--model" in argv else None


def mix(stream):
    return Counter((r["kind"], model_of(r), r["measure"]["type"]) for r in stream)


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_same_seed_same_stream(workload):
    a = streams.build(workload, 7, SECONDS)
    b = streams.build(workload, 7, SECONDS)
    assert json.dumps(a) == json.dumps(b)


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_other_seed_other_stream_same_mix(workload):
    a = streams.build(workload, 1, SECONDS)
    b = streams.build(workload, 2, SECONDS)
    keys_a = {streams.request_key(r) for r in a}
    keys_b = {streams.request_key(r) for r in b}
    shared = keys_a & keys_b
    # only the fixed README example may recur across seeds
    assert len(shared) <= 1
    assert mix(a) == mix(b)
    assert Counter(r["block"] for r in a) == Counter(r["block"] for r in b)


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_no_request_repeats_within_a_run(workload):
    stream = streams.build(workload, 3, 15)
    keys = [streams.request_key(r) for r in stream]
    assert len(keys) == len(set(keys))
    assert len(stream) >= streams.MIN_REQUESTS
    assert [r["block"] for r in stream] == sorted(r["block"] for r in stream)


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_blocks_carry_the_same_mix(workload):
    stream = streams.build(workload, 4, 1)
    per_block = [mix(r for r in stream if r["block"] == b and r["kind"] != "readme")
                 for b in range(streams.BLOCKS)]
    assert all(m == per_block[0] for m in per_block)


def perturbed(value, check, entry):
    """A value just outside the tolerance of its check."""
    if check == "exit_code":
        return 1.0
    if math.isnan(value):
        return 0.0
    if math.isinf(value):
        return 1e300
    rtol, atol = entry[2:] if len(entry) > 2 else checks.TOL[check]
    step = 100.0 * (atol + rtol * abs(value))
    return value + max(step, 1e-6 * abs(value), 1e-300)


def synthetic_output(exp):
    """What a correct program would output: the expected values themselves."""
    obs = {k: v[1] for k, v in exp.items()}
    for key, entry in exp.items():
        if entry[0] == "validate_abs_error":
            i = key.split(".")[0]
            obs[key] = abs(obs[f"{i}.analytic"] - obs[f"{i}.oracle"])
    return obs


def test_every_check_rejects_a_perturbed_output():
    seen = set()
    for workload in streams.WORKLOADS:
        for req in streams.build(workload, 5, SECONDS):
            exp = checks.expect(req)
            obs = synthetic_output(exp)
            assert checks.failures(exp, obs) == [], req
            first_key = {}
            for key, entry in exp.items():
                first_key.setdefault(entry[0], key)
            for check, key in first_key.items():
                bad = dict(obs)
                bad[key] = perturbed(obs[key], check, exp[key])
                assert check in checks.failures(exp, bad), (check, key, req)
                seen.add(check)
            missing = dict(obs)
            missing.pop(next(iter(k for k in obs if k != "exit_code")))
            assert "output_shape" in checks.failures(exp, missing)
    assert seen >= set(checks.TOL) - {"not_carried_is_nan"} | {"validate_oracle"}
    assert "not_carried_is_nan" in seen


def test_observe_parses_cli_output():
    req = {"call": "cli", "argv": ["trajectory"]}
    text = "t,M,A,ell,alpha,beta,second_moment\n0.5,1,nan,1,nan,nan,2\n1,1,nan,1,nan,nan,inf\n"
    obs = checks.observe(req, 0, text)
    assert obs["1.second_moment"] == math.inf and math.isnan(obs["0.A"])
    req = {"call": "cli", "argv": ["concentrations", "--model", "flory-arms"]}
    obs = checks.observe(req, 0, "a,m,c\n0,1,0.5\n3,2,0.125\n")
    assert obs == {"exit_code": 0.0, "0,1": 0.5, "3,2": 0.125}
    req = {"call": "cli", "argv": ["limits"]}
    text = json.dumps({"T_gel": 2.0, "c_inf": [0.1, 0.2], "degenerate": False})
    obs = checks.observe(req, 0, text)
    assert obs == {"exit_code": 0.0, "T_gel": 2.0, "c_inf.0": 0.1, "c_inf.1": 0.2,
                   "degenerate": 0.0}


@pytest.mark.parametrize("spec", [{"type": "exponential"}, {"type": "powerlaw", "p": 1.4}])
def test_closed_form_g0_matches_quadrature(spec):
    meas = refs.Classic(spec)
    density = (lambda m: math.exp(-m)) if spec["type"] == "exponential" else (
        lambda m: m ** -spec["p"])
    for x in (0.1, 0.5, 0.9):
        val, _ = quad(lambda m: m * x**m * density(m), 0.0, math.inf, limit=200)
        assert meas.g0(x) == pytest.approx(val, rel=1e-8)


def test_lattice_cauchy_matches_series_lagrange():
    spec = {"type": "discrete", "atoms": [[1, 0.3], [2, 0.2], [5, 0.06]]}
    n, t = 30, 0.4
    model = refs.ClassicModel("flory", spec, t)
    got = model.concentrations(n)
    g0 = np.zeros(n + 1)
    for m, w in spec["atoms"]:
        g0[m] = m * w
    g0p = np.array([(k + 1) * g0[k + 1] for k in range(n)])
    for m in range(1, n + 1):
        # [z^(m-1)] g0'(z) exp(m t g0(z)) by truncated series arithmetic
        e = np.zeros(n)
        e[0] = 1.0
        term = e.copy()
        for j in range(1, n):
            term = np.convolve(term, m * t * g0[:n])[:n] / j
            e += term
        coeff = np.convolve(g0p, e)[m - 1]
        assert got[m] == pytest.approx(math.exp(-m * t * model.meas.M0) / m**2 * coeff,
                                       rel=1e-9)


def test_arms_flow_matches_quadrature_of_alpha():
    arms = refs.Arms({"type": "arm-law", "mu": {"0": 0.5, "1": 0.25, "3": 0.25}})
    t = arms.t_gel + 0.7
    ell, alpha, beta = refs.smolu_arms_flow(arms, [t])[t]

    def h_of(u):  # right inverse of G by brentq
        return refs.root(lambda x: arms.G(x) - u, 1e-12, 1.0 - 1e-15)

    a_gel = 1.0 + arms.A0 * arms.t_gel
    elapsed, _ = quad(lambda r: 1.0 / arms.k0(h_of(1.0 / r)), a_gel, alpha,
                      epsabs=1e-13, epsrel=1e-12)
    assert elapsed == pytest.approx(0.7, rel=1e-9)
    assert arms.G(ell) == pytest.approx(1.0 / alpha, rel=1e-12)


def test_arms_mass_identity_matches_summed_concentrations():
    arms = refs.Arms({"type": "arm-law", "mu": {"0": 0.5, "1": 0.25, "3": 0.25}})
    model = refs.ArmsModel("flory-arms", arms, 3.0 * arms.t_gel)
    m_max = 400
    c = model.concentrations(a_max=m_max + 2, m_max=m_max)
    c[:, 1] = [arms.mu.get(a, 0.0) * model.alpha**-a for a in range(m_max + 3)]
    total = float((c * np.arange(m_max + 1)).sum())
    assert total == pytest.approx(model.M, rel=1e-10)


def test_readme_example_is_seven_sixtieths():
    arms = refs.Arms({"type": "arm-law", "mu": {"0": 0.5, "1": 0.25, "3": 0.25}})
    assert refs.ArmsModel("flory-arms", arms, 4.0).A == pytest.approx(7.0 / 60.0, rel=1e-12)
