"""Expected outputs per request, and the comparison that names failed checks.

`expect` runs before timing starts and uses only `refs` (no gelsolve).
`observe` turns a CLI stdout or a library result into the same flat
{key: value} shape, and `failures` compares the two.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import refs

# check name -> (rtol, atol); every expected value names the check it feeds
TOL = {
    "exit_code": (0.0, 0.0),
    "time_grid": (0.0, 0.0),
    "not_carried_is_nan": (0.0, 0.0),
    "moments_closed_form": (1e-12, 0.0),
    "mass_closed_form": (1e-9, 1e-12),
    "smol_mass_1_over_t": (1e-9, 0.0),
    "mass_brentq": (1e-9, 1e-12),
    "ell_closed_form": (1e-12, 0.0),
    "ell_brentq": (1e-9, 1e-12),
    "second_moment_K_over_1_minus_tK": (1e-9, 0.0),
    "second_moment_brentq": (1e-8, 0.0),
    "h_inverse_brentq": (1e-9, 1e-12),
    "gen_fun_brentq": (1e-9, 1e-12),
    "borel_concentrations": (1e-7, 1e-14),
    "lattice_concentrations_cauchy": (1e-7, 1e-14),
    "arms_pregel_closed_form": (1e-12, 1e-15),
    "arms_flow_dop853": (1e-9, 1e-12),
    "arms_count_brentq": (1e-9, 1e-12),
    "arms_second_moment": (1e-8, 0.0),
    "arms_mass": (1e-9, 0.0),
    "arms_concentrations_closed_form": (1e-8, 1e-200),
    "arms_limits_brentq": (1e-9, 1e-14),
    "readme_7_over_60": (1e-12, 0.0),
    "validate_analytic": (1e-9, 1e-12),
    "validate_abs_error": (1e-12, 0.0),
    # "validate_oracle": absolute, to the --tol the request passes (set per entry)
}

# Checks that fail because of a documented gelsolve defect.  They
# stay counted in `failed`; only failures outside this list make a run incorrect.
KNOWN_DEFECTS = {
    "arms_mass": "ROADMAP item 4: arms_mass truncates the closed-form sum at "
                 "m_max=150, so the mass reads low near and past T_gel "
                 "(0.947 at T_gel for the README law, where M0 = 1)",
}

TRAJ_COLUMNS = ("t", "M", "A", "ell", "alpha", "beta", "second_moment")
STATE_FIELDS = ("ell", "alpha", "beta", "M", "A")


def close(got, want, rtol, atol):
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= atol + rtol * abs(want)


# ---------------------------------------------------------------------------
# Expected values

def _arg(argv, flag, cast=float):
    return cast(argv[argv.index(flag) + 1])


def _classic_scalars(model, t):
    """{field: (check, value)} for mass, ell and second moment of a classic model."""
    m = model.meas
    if t <= m.t_gel:
        out = {"M": ("mass_closed_form", m.M0), "ell": ("ell_closed_form", 1.0)}
    elif m.atoms == [(1, 1.0)] and not model.flory:
        out = {"M": ("smol_mass_1_over_t", 1.0 / t), "ell": ("ell_brentq", model.ell)}
    else:
        out = {"M": ("mass_brentq", model.mass), "ell": ("ell_brentq", model.ell)}
    closed = t < m.t_gel or not model.flory  # K/(1-tK) before T_gel, inf after
    rtol, atol = TOL["second_moment_brentq"]
    out["second_moment"] = (
        ("second_moment_K_over_1_minus_tK", model.second_moment()) if closed else
        ("second_moment_brentq", model.second_moment(), rtol,
         atol + model.second_moment_slack()))
    return out


def _arms_scalars(model, fields):
    """{field: (check, value)} for the solved state of an arms model."""
    pre = model.t <= model.arms.t_gel
    solved = "arms_pregel_closed_form" if pre else (
        "arms_count_brentq" if model.flory else "arms_flow_dop853")
    out = {}
    for f in fields:
        if f == "M":
            out[f] = ("arms_mass", model.M)
        elif f == "second_moment":
            rtol, atol = TOL["arms_second_moment"]
            out[f] = ("arms_second_moment", model.second_moment(), rtol,
                      atol + model.second_moment_slack())
        elif f in ("alpha", "beta") and model.flory:
            out[f] = ("arms_pregel_closed_form", getattr(model, f))
        else:
            out[f] = (solved, getattr(model, f))
    return out


def _prefixed(exp, prefix, fields):
    for k, v in fields.items():
        exp[prefix + k] = v


def expect(req):
    """{key: (check name, value)} for every value the request outputs."""
    exp = {"exit_code": ("exit_code", 0.0)}
    spec = req["measure"]
    if req["call"] == "lib":
        name = req["model"]
        arms = refs.Arms(spec) if name.endswith("arms") else None
        flow = None
        if arms is not None and name == "smoluchowski-arms":
            flow = refs.smolu_arms_flow(arms, [t for _, t, _ in req["queries"]])
        for i, (method, t, x) in enumerate(req["queries"]):
            key = f"q{i}."
            if arms is None:
                model = refs.ClassicModel(name, spec, t)
                if method == "second_moment":
                    exp[key + method] = _classic_scalars(model, t)[method]
                else:
                    exp[key + method] = (f"{method}_brentq", getattr(model, method)(x))
                continue
            model = refs.ArmsModel(name, arms, t, flow and flow[t])
            if req.get("readme_check"):
                exp[key + method] = ("readme_7_over_60", 7.0 / 60.0)
            elif method == "state":
                _prefixed(exp, key, _arms_scalars(model, STATE_FIELDS))
            else:
                field = {"arms_count": "A", "mass": "M"}.get(method, method)
                exp[key + method] = _arms_scalars(model, (field,))[field]
        return exp

    argv = req["argv"]
    sub = argv[0]
    name = _arg(argv, "--model", str) if "--model" in argv else None
    if sub == "moments":
        m = refs.Classic(spec)
        for k in ("M0", "K", "m0"):
            exp[k] = ("moments_closed_form", getattr(m, k))
    elif sub == "trajectory":
        times = list(np.linspace(_arg(argv, "--t-start"), _arg(argv, "--t-end"),
                                 _arg(argv, "--count", int)))
        arms = refs.Arms(spec) if name.endswith("arms") else None
        flow = refs.smolu_arms_flow(arms, times) if arms is not None else None
        for i, t in enumerate(times):
            p = f"{i}."
            exp[p + "t"] = ("time_grid", float(t))
            if arms is None:
                _prefixed(exp, p, _classic_scalars(refs.ClassicModel(name, spec, t), t))
                for col in ("A", "alpha", "beta"):
                    exp[p + col] = ("not_carried_is_nan", math.nan)
            else:
                model = refs.ArmsModel(name, arms, t, flow[t])
                _prefixed(exp, p, _arms_scalars(model, TRAJ_COLUMNS[1:]))
    elif sub == "concentrations":
        t = _arg(argv, "--t")
        if name.endswith("arms"):
            a_max, m_max = _arg(argv, "--amax", int), _arg(argv, "--mmax", int)
            c = refs.ArmsModel(name, refs.Arms(spec), t).concentrations(a_max, m_max)
            for a in range(a_max + 1):
                for m in range(1, m_max + 1):
                    exp[f"{a},{m}"] = ("arms_concentrations_closed_form", c[a, m])
        else:
            n = _arg(argv, "--order", int)
            model = refs.ClassicModel(name, spec, t)
            c = model.concentrations(n)
            check = ("borel_concentrations" if spec["type"] == "monodisperse"
                     else "lattice_concentrations_cauchy")
            for m in range(1, n + 1):
                exp[str(m)] = (check, c[m])
    elif sub == "limits":
        lim = refs.arms_limits(name, refs.Arms(spec), _arg(argv, "--mmax", int))
        for k, v in lim.items():
            if k == "c_inf":
                for i, c in enumerate(v):
                    exp[f"c_inf.{i}"] = ("arms_limits_brentq", c)
            else:
                exp[k] = ("arms_limits_brentq", v)
        exp["degenerate"] = ("arms_limits_brentq", 0.0)
    elif sub == "validate":
        times = list(np.linspace(0.0, _arg(argv, "--t-end"), 11))
        tol = _arg(argv, "--tol")
        arms = refs.Arms(spec) if name.endswith("arms") else None
        for i, t in enumerate(times):
            if arms is None:
                want = refs.ClassicModel(name, spec, t).mass
            else:
                want = refs.ArmsModel(name, arms, t).A
            exp[f"{i}.t"] = ("time_grid", float(t))
            exp[f"{i}.analytic"] = ("validate_analytic", want)
            # the oracle is a truncated ODE: it must agree to the run's tolerance
            exp[f"{i}.oracle"] = ("validate_oracle", want, 0.0, tol)
            exp[f"{i}.abs_error"] = ("validate_abs_error", None)
    else:
        raise ValueError(f"unknown subcommand {sub!r}")
    return exp


# ---------------------------------------------------------------------------
# Observed values

def observe(req, rc, result):
    """Flatten a request's outcome into {key: float}."""
    obs = {"exit_code": float(rc)}
    if req["call"] == "lib":
        for i, ((method, _, _), value) in enumerate(zip(req["queries"], result)):
            if method == "state":
                for f in STATE_FIELDS:
                    obs[f"q{i}.{f}"] = float(value[f])
            else:
                obs[f"q{i}.{method}"] = float(value)
        return obs
    sub = req["argv"][0]
    if rc != 0 and sub != "validate":
        return obs
    if sub in ("moments", "limits"):
        for k, v in json.loads(result).items():
            if isinstance(v, list):
                for i, c in enumerate(v):
                    obs[f"{k}.{i}"] = float(c)
            else:
                obs[k] = float(v)
        return obs
    rows = list(csv.reader(io.StringIO(result)))
    header, body = rows[0], rows[1:]
    if sub == "concentrations":
        for row in body:
            obs[",".join(row[:-1])] = float(row[-1])
        return obs
    for i, row in enumerate(body):
        for col, v in zip(header, row):
            obs[f"{i}.{col}"] = float(v)
    return obs


def failures(exp, obs):
    """Names of the checks that the observed output fails."""
    failed = set()
    if set(exp) != set(obs):
        failed.add("output_shape")
    for key, entry in exp.items():
        if key not in obs:
            continue
        check, want = entry[0], entry[1]
        got = obs[key]
        if check == "validate_abs_error":
            i = key.split(".")[0]
            a, o = obs.get(f"{i}.analytic"), obs.get(f"{i}.oracle")
            if a is None or o is None or not close(got, abs(a - o), *TOL[check]):
                failed.add(check)
            continue
        rtol, atol = entry[2:] if len(entry) > 2 else TOL[check]
        if not close(got, want, rtol, atol):
            failed.add(check)
    return sorted(failed)
