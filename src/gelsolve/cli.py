"""Command-line surface: configuration, solving, validation, emission.

Output is deterministic: identical configuration produces bit-identical CSV
and JSON.  CSV prints every number as "%.17g" (17 significant digits, so
1/3 is 0.33333333333333331) and non-finite values as the literals inf /
-inf / nan.  JSON prints each finite number as Python's shortest repr that
reads back to the same double (M_inf 0.5925925925925927), and non-finite
values as the strings "inf" / "-inf" / "nan", since the format has no such
numbers.  Each table and each JSON document is formatted whole and written
with one call.

The command line follows argparse's rules without argparse: `--flag value` or
`--flag=value`, a unique prefix (`--help` too) for its flag, the last of repeated
values, and a value may start with "-" only as a negative number (-1, -.5) or
with a space in it.  -h/--help prints the usage and exits 0.
"""
from __future__ import annotations

import io
import json
import math
import re
import sys
import types

from .errors import ConfigError, DomainError, GelsolveError, ModelError, UsageError
from .measures import arm_measure_from_config, mass_measure_from_config, np
from .models import MODEL_NAMES, make_model
from .oracle import compare, initial_arms, initial_classic, integrate
from .series import arms_concentrations, concentrations, limiting_concentrations

#: Most oracle steps, t_end / dt, that `validate` takes.  A step took 0.018-0.050 ms
#: on classic windows of 200-400 masses and 0.013-0.018 ms on arms windows of
#: 31-121 arm counts (min of 9 runs of 100 steps from t = 0, to 0.4 T_gel on
#: monodisperse and 4-atom data or to 0.2 T_gel on arm data, one core of a
#: shared 2-core x86-64 machine).
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

#: The keys a config file may hold, and those its "time_grid" object may hold.
CONFIG_KEYS = ("model", "initial", "time_grid", "t", "order", "a_max", "m_max",
               "t_end", "dt", "tol")
GRID_KEYS = ("start", "end", "count", "spacing")


def _load_config_file(path) -> dict:
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    grid = data.get("time_grid", {})
    if not isinstance(grid, dict):
        raise ConfigError("config 'time_grid' must be a JSON object")
    for keys, known in ((data, CONFIG_KEYS), (grid, GRID_KEYS)):
        for key in keys:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}; known: {', '.join(known)}")
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


def _build_model(args, cfg, name):
    """The request's model; the library rejects data the model cannot take."""
    spec = _measure_spec(args, cfg)
    if MODEL_NAMES[name].is_arms:
        return make_model(name, arm_measure_from_config(spec))
    return make_model(name, mass_measure_from_config(spec))


def _model_name(args, cfg) -> str:
    name = getattr(args, "model", None) or cfg.get("model")
    if name is None:
        raise ConfigError("no model given (--model or config 'model')")
    if not isinstance(name, str) or name not in MODEL_NAMES:
        raise ConfigError(
            f"unknown model {name!r}; choose from {sorted(MODEL_NAMES)}"
        )
    return name


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
    start = _number(args, grid, "t_start", "start", 0.0, 0.0)
    end = _number(args, grid, "t_end", "end", None, start, above=True)
    count = _number(args, grid, "count", "count", 81, 2, whole=True)
    spacing = grid.get("spacing", "linear") if args.spacing is None else args.spacing
    if spacing == "linear":
        return _linspace(start, end, count)
    if spacing == "geometric":
        if start <= 0.0:
            raise ConfigError("geometric spacing needs start > 0")
        return np.geomspace(start, end, count).tolist()
    raise ConfigError(f"unknown spacing {spacing!r}")


def _number(args, cfg, flag, key, default, least, *, whole=False, above=False):
    """The flag's value if given, else the config file's, else the default, checked.

    A whole number (an int) must be >= least; any other number is a float,
    finite and >= least, or > least if `above`.  A JSON boolean is no number,
    though float() and int() take it as 1 or 0.
    """
    value = getattr(args, flag, None)
    value = value if value is not None else cfg.get(key, default)
    if value is None:
        raise ConfigError(f"no {key} given (--{flag.replace('_', '-')} or config '{key}')")
    try:
        if isinstance(value, bool):
            raise ValueError(f"{value!r} is not a number")
        if whole and int(value) != float(value):
            raise ValueError(f"{value!r} is not a whole number")
        value = int(value) if whole else float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {key}: {exc}") from exc
    if not (math.isfinite(value) and (value > least if above else value >= least)):
        bound = ">" if above else ">="
        raise ConfigError(f"{key} must be finite and {bound} {least}, got {value}")
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
    model = _build_model(args, cfg, name)
    t = _number(args, cfg, "t", "t", None, 0.0)
    if model.is_arms:
        a_max = _number(args, cfg, "amax", "a_max", 40, 0, whole=True)
        m_max = _number(args, cfg, "mmax", "m_max", 40, 1, whole=True)
        conc = arms_concentrations(model, t, a_max, m_max)
        # the lines "a,m,c" of row a come from one template, in which a and
        # every m are already written: "a,1,%.17g\na,2,%.17g\n..."
        cells = "".join(["@,%d,%%.17g\n" % m for m in range(1, m_max + 1)])
        out.write("a,m,c\n" + "".join([
            cells.replace("@", str(a)) % tuple(row)
            for a, row in enumerate(conc[:, 1 : m_max + 1].tolist())
        ]))
        return 0
    order = _number(args, cfg, "order", "order", 64, 1, whole=True)
    c = concentrations(model, t, order)
    # one template with every m already written: "1,%.17g\n2,%.17g\n..."
    lines = "".join(["%d,%%.17g\n" % m for m in range(1, order + 1)])
    out.write("m,c\n" + lines % tuple(c[1 : order + 1].tolist()))
    return 0


def _cmd_limits(args, cfg, out) -> int:
    name = _model_name(args, cfg)
    if not MODEL_NAMES[name].is_arms:
        raise ConfigError("limits are defined for the arms models only")
    model = _build_model(args, cfg, name)
    m_max = _number(args, cfg, "mmax", "m_max", 20, 1, whole=True)
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
    t_end = _number(args, cfg, "t_end", "t_end", 1.0, 0.0, above=True)
    dt = _number(args, cfg, "dt", "dt", 1e-3, 0.0, above=True)
    if t_end / dt > MAX_STEPS:
        raise ConfigError(
            f"t_end / dt = {t_end / dt:.6g} oracle steps, more than {MAX_STEPS}"
        )
    tol = _number(args, cfg, "tol", "tol", 1e-3, 0.0, above=True)
    if model.is_arms:  # the oracle runs on the arm marginal: --mmax has no effect
        size = _number(args, cfg, "amax", "a_max", 120, 0, whole=True)
        init = initial_arms(model.measure, size)
        query, total, quantity = model.arms_count, "arm_count", "arms"
    else:
        size = _number(args, cfg, "mmax", "m_max", 200, 1, whole=True)
        init = initial_classic(model.measure, size)
        query, total, quantity = model.mass, "mass", "mass"
    times = _linspace(0.0, t_end, 11)
    oracle_vals = [getattr(st, total) for st in integrate(init, times, dt)]
    analytic_vals = [query(t) for t in times]
    report = compare(times, analytic_vals, oracle_vals, quantity=quantity, tol=tol)
    rows = zip(times, analytic_vals, oracle_vals, report.abs_errors)
    emit_csv(("t", "analytic", "oracle", "abs_error"), rows, out)
    return 0 if report.passed else 1


#: Every option, written once: flag -> (dest, converter, choices, help).
OPTIONS = {flag: (flag[2:].replace("-", "_"), *spec) for flag, *spec in (
    ("--config", str, None, "JSON config file; flags override it"),
    ("--model", str, tuple(sorted(MODEL_NAMES)), None),
    ("--measure", str, None, "initial measure as inline JSON"),
    ("--output", str, None, "write to this file instead of stdout"),
    ("--t-start", float, None, "first time of the grid (default 0)"),
    ("--t-end", float, None, "last time: of the grid (required), or of validate (default 1)"),
    ("--count", int, None, "times on the grid, at least 2 (default 81)"),
    ("--spacing", str, ("linear", "geometric"), None),
    ("--t", float, None, "the time t >= 0"),
    ("--order", int, None, "largest mass m (classic models; default 64)"),
    ("--amax", int, None, "largest arm count a (arms models; validate's only arms window)"),
    ("--mmax", int, None, "largest mass m (arms models; validate: classic only, arms ignore it)"),
    ("--dt", float, None, "oracle step (default 1e-3)"),
    ("--tol", float, None, "largest absolute error that passes (default 1e-3)"),
)}
#: name -> (handler, one-line help, {flag: OPTIONS entry}); "-h" and "--help" map to None.
COMMANDS = {name: (run, text, dict.fromkeys(("-h", "--help")) | {
    flag: OPTIONS[flag] for flag in [*OPTIONS][:4] + ["--" + f for f in own.split()]
}) for name, run, text, own in (
    ("moments", _cmd_moments, "moments of the initial measure", ""),
    ("trajectory", _cmd_trajectory, "solved quantities on a time grid",
     "t-start t-end count spacing"),
    ("concentrations", _cmd_concentrations, "c_t(m) or c_t(a,m) at one time",
     "t order amax mmax"),
    ("limits", _cmd_limits, "long-time limits (arms models)", "mmax"),
    ("validate", _cmd_validate, "compare against the ODE oracle", "t-end dt tol mmax amax"),
)}
_NEGATIVE = r"^-\d+$|^-\d*\.\d+$"  # a value, as in argparse; compiled at first use


def _flag(token, options, prog):
    """None if token is a value, else (flag, its "=" value or None); flag None if unknown."""
    if token[:1] != "-" or token == "-":
        return None
    flag, eq, value = token.partition("=")
    hits = [flag] if flag in options else [  # a unique prefix stands for its flag
        f for f in options if token != "--" and token[1] == "-" and f.startswith(flag)]
    if len(hits) > 1:
        raise UsageError(f"{prog}: ambiguous option: {token} could match {', '.join(hits)}")
    if hits:
        return hits[0], value if eq else None
    return None if re.match(_NEGATIVE, token) or " " in token else (None, None)


def _help(command=None):
    """Print the commands, or one command's options with their help; exit 0."""
    rows = [(n, t) for n, (_, t, _) in COMMANDS.items()] if command is None else [
        (f, t or ", ".join(c or ())) for f, (_, _, c, t) in [*COMMANDS[command][2].items()][2:]]
    print(f"usage: gelsolve {command or 'COMMAND'} [-h | --help] [OPTIONS]\n",
          *(f"  {a:<16}{b}".rstrip() for a, b in rows), sep="\n")
    raise SystemExit(0)


def parse_args(argv=None):
    """The command line (see the module docstring) as `command` and each of its options."""
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        raise UsageError("gelsolve: the following arguments are required: command")
    if argv[0] in ("-h", "--h", "--he", "--hel", "--help"):
        _help()
    if argv[0] not in COMMANDS:
        raise UsageError(f"gelsolve: argument command: invalid choice: {argv[0]!r} "
                         f"(choose from {', '.join(map(repr, COMMANDS))})")
    command, rest = argv[0], iter(argv[1:])
    prog, options, values, extras = "gelsolve " + command, COMMANDS[command][2], {}, []
    for token in rest:
        flag, value = _flag(token, options, prog) or (None, None)
        if flag is None or options[flag] is None and value is not None:
            extras.append(token)  # a stray value, an unknown flag, -- or --help=...
            continue
        if options[flag] is None:
            _help(command)
        if value is None:
            value = next(rest, "--")
            if _flag(value, options, prog):
                raise UsageError(f"{prog}: argument {flag}: expected one argument")
        dest, convert, choices, _ = options[flag]
        try:  # argparse drops an "=--" value and keeps an empty list
            values[dest] = [] if value == "--" else convert(value)
        except ValueError:
            raise UsageError(f"{prog}: argument {flag}: invalid {convert.__name__} "
                             f"value: {value!r}") from None
        if choices and value != "--" and values[dest] not in choices:
            raise UsageError(f"{prog}: argument {flag}: invalid choice: {values[dest]!r} "
                             f"(choose from {', '.join(map(repr, choices))})")
    if extras:
        raise UsageError("gelsolve: unrecognized arguments: " + " ".join(extras))
    return types.SimpleNamespace(command=command, **{
        spec[0]: values.get(spec[0]) for spec in options.values() if spec})


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        for flag, spec in COMMANDS[args.command][2].items():
            if spec and getattr(args, spec[0]) == []:  # "=--", read as argparse does
                raise UsageError(
                    f"gelsolve {args.command}: argument {flag}: expected one argument")
        cfg = _load_config_file(args.config) if args.config else {}
        if not args.output:
            return COMMANDS[args.command][0](args, cfg, sys.stdout)
        # the file is opened once the command has returned, so a failed
        # request leaves an existing file as it was
        buffer = io.StringIO()
        code = COMMANDS[args.command][0](args, cfg, buffer)
        try:
            with open(args.output, "w") as f:
                f.write(buffer.getvalue())
        except OSError as exc:
            raise ConfigError(f"cannot write output file {args.output}: {exc}") from exc
        return code
    except (ConfigError, DomainError, ModelError) as exc:  # input the request cannot take
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except GelsolveError as exc:  # a SolverError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
