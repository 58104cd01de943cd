"""Command-line surface: configuration, solving, validation, emission.

Output is deterministic: identical configuration produces bit-identical CSV
and JSON.  CSV prints every number as "%.17g" (17 significant digits, so
1/3 is 0.33333333333333331) and non-finite values as the literals inf /
-inf / nan.  JSON prints each finite number as Python's shortest repr that
reads back to the same double (M_inf 0.5925925925925927), and non-finite
values as the strings "inf" / "-inf" / "nan", since the format has no such
numbers.  Each table and each JSON document is formatted whole and written
with one call.
"""
from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys

from .errors import ConfigError, GelsolveError, UsageError
from .measures import arm_measure_from_config, mass_measure_from_config, np
from .models import MODEL_NAMES, make_model
from .oracle import compare, initial_arms, initial_classic, integrate
from .series import arms_concentrations, concentrations, limiting_concentrations

#: Most oracle steps, t_end / dt, that `validate` takes.  A step took 0.06-0.15 ms
#: on classic windows of 200-400 masses and 0.25-0.49 ms on arms windows of
#: 30 x 30 to 46 x 46 (min of 9 runs of 100 steps, one core of a shared 2-core
#: x86-64 machine).
MAX_STEPS = 10**6


def fmt(value: float) -> str:
    return "%.17g" % value


def _jsonable(obj):
    # no numpy type is named, so `moments` loads no numpy; numpy's float64
    # subclasses float, and arrays reach here as lists
    if isinstance(obj, dict):
        return {k: _jsonable(obj[k]) for k in obj}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        v = float(obj)
        return v if math.isfinite(v) else fmt(v)
    return obj


def emit_json(obj, stream) -> None:
    stream.write(json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")


def emit_csv(header, rows, stream) -> None:
    line = ",".join(["%.17g"] * len(header)) + "\n"
    stream.write(",".join(header) + "\n" + "".join([line % tuple(row) for row in rows]))


# ---------------------------------------------------------------------------
# Configuration

def _load_config_file(path) -> dict:
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    if "solver" in data:
        raise ConfigError(
            "config 'solver' takes no settings: every root is solved to 1e-12 relative"
        )
    if "flavor" in data:
        raise ConfigError(
            "config 'flavor' takes no setting: validate's oracle has one truncation"
        )
    return data


def _measure_spec(args, cfg) -> dict:
    if getattr(args, "measure", None) is not None:
        try:
            return json.loads(args.measure)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--measure is not valid JSON: {exc}") from exc
    if "initial" in cfg:
        return cfg["initial"]
    raise ConfigError("no initial measure given (--measure or config 'initial')")


def _build_measure(args, cfg, model_name):
    spec = _measure_spec(args, cfg)
    try:
        if MODEL_NAMES[model_name].is_arms:
            return arm_measure_from_config(spec)
        return mass_measure_from_config(spec)
    except GelsolveError as exc:
        raise ConfigError(str(exc)) from exc


def _build_model(args, cfg, name, closed_form=False):
    """The request's model; data it cannot take is a configuration error.

    closed_form: the request reads series or closed forms, which need an
    integer-lattice measure (classic models) or monodisperse arm data.
    """
    measure = _build_measure(args, cfg, name)
    arms = MODEL_NAMES[name].is_arms
    if closed_form and arms and not measure.is_monodisperse:
        raise ConfigError(f"{args.command} need monodisperse arm data")
    if closed_form and not arms and not measure.is_lattice:
        raise ConfigError(f"{args.command} need an integer-lattice initial measure")
    try:
        return make_model(name, measure)
    except GelsolveError as exc:
        raise ConfigError(str(exc)) from exc


def _model_name(args, cfg) -> str:
    name = getattr(args, "model", None) or cfg.get("model")
    if name is None:
        raise ConfigError("no model given (--model or config 'model')")
    if not isinstance(name, str) or name not in MODEL_NAMES:
        raise ConfigError(
            f"unknown model {name!r}; choose from {sorted(MODEL_NAMES)}"
        )
    return name


def _number(key, value):
    """value, unless it is a JSON boolean, which float() and int() would take as 1 or 0."""
    if isinstance(value, bool):
        raise ConfigError(f"bad {key}: {value!r} is not a number")
    return value


def _linspace(start: float, end: float, count: int) -> list:
    """np.linspace(start, end, count).tolist() to the bit; numpy only if the step underflows."""
    step = (end - start) / (count - 1)
    if step == 0.0:  # numpy then forms i / (count - 1) * (end - start) + start
        return np.linspace(start, end, count).tolist()
    grid = [i * step + start for i in range(count)]
    grid[-1] = end
    return grid


def _time_grid(args, cfg):
    grid = cfg.get("time_grid", {})
    if not isinstance(grid, dict):
        raise ConfigError("config 'time_grid' must be a JSON object")
    grid = dict(grid)
    for key, flag in (
        ("start", "t_start"),
        ("end", "t_end"),
        ("count", "count"),
        ("spacing", "spacing"),
    ):
        v = getattr(args, flag, None)
        if v is not None:
            grid[key] = v
    try:
        start = float(_number("start", grid.get("start", 0.0)))
        end = float(_number("end", grid["end"]))
        count = int(_number("count", grid.get("count", 81)))
        spacing = grid.get("spacing", "linear")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad time grid: {exc}") from exc
    if count < 2:
        raise ConfigError("time grid needs count >= 2")
    if not (math.isfinite(end) and end > start >= 0.0):
        raise ConfigError("time grid needs finite end > start >= 0")
    if spacing == "linear":
        return _linspace(start, end, count)
    if spacing == "geometric":
        if start <= 0.0:
            raise ConfigError("geometric spacing needs start > 0")
        return np.geomspace(start, end, count).tolist()
    raise ConfigError(f"unknown spacing {spacing!r}")


def _setting(args, cfg, flag, key, default):
    """The flag's value if given, else the config file's, else the default; a number."""
    value = getattr(args, flag, None)
    return _number(key, value if value is not None else cfg.get(key, default))


def _size(args, cfg, flag, key, default, least):
    value = _setting(args, cfg, flag, key, default)
    try:
        if int(value) != float(value):
            raise ValueError(f"{value!r} is not a whole number")
        value = int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key}: {exc}") from exc
    if value < least:
        raise ConfigError(f"{key} must be >= {least}, got {value}")
    return value


def _positive(args, cfg, flag, key, default):
    value = _setting(args, cfg, flag, key, default)
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key}: {exc}") from exc
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{key} must be finite and > 0, got {value}")
    return value


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_moments(args, cfg, out) -> int:
    spec = _measure_spec(args, cfg)
    try:
        measure = mass_measure_from_config(spec)
    except GelsolveError as exc:
        mass_error = exc
    else:
        mom = measure.moments()
        emit_json({"M0": mom.M0, "K": mom.K, "m0": mom.m0}, out)
        return 0
    try:
        arm = arm_measure_from_config(spec)
    except GelsolveError as exc:
        raise ConfigError(f"{mass_error}; as arm data: {exc}") from exc
    emit_json(
        {"A0": arm.A0, "K": arm.K, "M0": arm.M0, "total": arm.total}, out
    )
    return 0


def _trajectory_row(model, t):
    st = model.state(t)
    sm = model.second_moment(t)
    return (st.t, st.M, st.A, st.ell, st.alpha, st.beta, sm)


def _cmd_trajectory(args, cfg, out) -> int:
    name = _model_name(args, cfg)
    model = _build_model(args, cfg, name)
    times = _time_grid(args, cfg)
    rows = [_trajectory_row(model, t) for t in times]
    emit_csv(
        ("t", "M", "A", "ell", "alpha", "beta", "second_moment"), rows, out
    )
    return 0


def _cmd_concentrations(args, cfg, out) -> int:
    name = _model_name(args, cfg)
    model = _build_model(args, cfg, name, closed_form=True)
    t = _setting(args, cfg, "t", "t", None)
    if t is None:
        raise ConfigError("no time given (--t or config 't')")
    try:
        t = float(t)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad time: {exc}") from exc
    if not (math.isfinite(t) and t >= 0.0):
        raise ConfigError(f"time must be finite and >= 0, got {t}")
    if model.is_arms:
        a_max = _size(args, cfg, "amax", "a_max", 40, 0)
        m_max = _size(args, cfg, "mmax", "m_max", 40, 1)
        conc = arms_concentrations(model, t, a_max, m_max)
        # the lines "a,m,c" of row a come from one template, in which a and
        # every m are already written: "a,1,%.17g\na,2,%.17g\n..."
        cells = "".join(["@,%d,%%.17g\n" % m for m in range(1, m_max + 1)])
        out.write("a,m,c\n" + "".join([
            cells.replace("@", str(a)) % tuple(row)
            for a, row in enumerate(conc[:, 1 : m_max + 1].tolist())
        ]))
        return 0
    order = _size(args, cfg, "order", "order", 64, 1)
    c = concentrations(model, t, order)
    # one template with every m already written: "1,%.17g\n2,%.17g\n..."
    lines = "".join(["%d,%%.17g\n" % m for m in range(1, order + 1)])
    out.write("m,c\n" + lines % tuple(c[1 : order + 1].tolist()))
    return 0


def _cmd_limits(args, cfg, out) -> int:
    name = _model_name(args, cfg)
    if not MODEL_NAMES[name].is_arms:
        raise ConfigError("limits are defined for the arms models only")
    model = _build_model(args, cfg, name, closed_form=True)
    m_max = _size(args, cfg, "mmax", "m_max", 20, 1)
    lim = limiting_concentrations(model, m_max)
    emit_json(
        {
            "T_gel": model.t_gel,
            "p_nu_or_c": lim.p_or_c,
            "beta_inf": lim.beta_inf,
            "M_inf": lim.M_inf,
            "degenerate": lim.degenerate,
            "c_inf": list(lim.c_inf[2:]),
        },
        out,
    )
    return 0


def _cmd_validate(args, cfg, out) -> int:
    name = _model_name(args, cfg)
    model = _build_model(args, cfg, name)
    t_end = _positive(args, cfg, "t_end", "t_end", 1.0)
    dt = _positive(args, cfg, "dt", "dt", 1e-3)
    if t_end / dt > MAX_STEPS:
        raise ConfigError(
            f"t_end / dt = {t_end / dt:.6g} oracle steps, more than {MAX_STEPS}"
        )
    tol = _positive(args, cfg, "tol", "tol", 1e-3)
    m_max = _size(args, cfg, "mmax", "m_max", 200, 1)
    times = list(np.linspace(0.0, t_end, 11))
    arms = model.is_arms
    a_max = _size(args, cfg, "amax", "a_max", 120, 0) if arms else None
    try:  # initial data outside the oracle's window
        init = (
            initial_arms(model.measure, a_max, m_max) if arms
            else initial_classic(model.measure, m_max)
        )
    except GelsolveError as exc:
        raise ConfigError(str(exc)) from exc
    traj = integrate(init, times, dt)
    if arms:
        oracle_vals = [st.arm_count for st in traj]
        analytic_vals = [model.arms_count(t) for t in times]
        quantity = "arms"
    else:
        oracle_vals = [st.mass for st in traj]
        analytic_vals = [model.mass(t) for t in times]
        quantity = "mass"
    report = compare(
        times, analytic_vals, oracle_vals, quantity=quantity, tol=tol
    )
    rows = [
        (t, a, o, e)
        for t, a, o, e in zip(times, analytic_vals, oracle_vals, report.abs_errors)
    ]
    emit_csv(("t", "analytic", "oracle", "abs_error"), rows, out)
    return 0 if report.passed else 1


COMMANDS = {
    "moments": _cmd_moments,
    "trajectory": _cmd_trajectory,
    "concentrations": _cmd_concentrations,
    "limits": _cmd_limits,
    "validate": _cmd_validate,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise UsageError instead of exiting.

    add_subparsers builds each subcommand's parser with this class too.
    """

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gelsolve",
        description="Global solver for four coagulation models with gelation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--model", choices=sorted(MODEL_NAMES))
        p.add_argument("--measure", help="initial measure as inline JSON")
        p.add_argument("--output", help="write to this file instead of stdout")

    p = sub.add_parser("moments", help="moments of the initial measure")
    common(p)

    p = sub.add_parser("trajectory", help="solved quantities on a time grid")
    common(p)
    p.add_argument("--t-start", type=float, dest="t_start")
    p.add_argument("--t-end", type=float, dest="t_end")
    p.add_argument("--count", type=int)
    p.add_argument("--spacing", choices=("linear", "geometric"))

    p = sub.add_parser("concentrations", help="c_t(m) or c_t(a,m) at one time")
    common(p)
    p.add_argument("--t", type=float)
    p.add_argument("--order", type=int, help="series order (classic models)")
    p.add_argument("--amax", type=int)
    p.add_argument("--mmax", type=int)

    p = sub.add_parser("limits", help="long-time limits (arms models)")
    common(p)
    p.add_argument("--mmax", type=int)

    p = sub.add_parser("validate", help="compare against the ODE oracle")
    common(p)
    p.add_argument("--t-end", type=float, dest="t_end")
    p.add_argument("--dt", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--mmax", type=int)
    p.add_argument("--amax", type=int)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built at the first call, not at import; parse_args keeps no state
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = _load_config_file(args.config) if args.config else {}
        if not args.output:
            return COMMANDS[args.command](args, cfg, sys.stdout)
        # the file is opened once the command has returned, so a failed
        # request leaves an existing file as it was
        buffer = io.StringIO()
        code = COMMANDS[args.command](args, cfg, buffer)
        try:
            with open(args.output, "w") as f:
                f.write(buffer.getvalue())
        except OSError as exc:
            raise ConfigError(f"cannot write output file {args.output}: {exc}") from exc
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except GelsolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
