"""Seeded request streams for the four workloads.

A request is either a CLI call (`argv` for gelsolve.cli.main) or a library
batch (a model name, a measure spec and a list of (method, t, x) queries).
Each request carries its own measure spec, so every request builds its own
measure and model.

Cost parameters (series order, t - T_gel, oracle window, ...) are stratified:
within each (kind, variant) group of n requests the i-th request draws its
parameter from [i/n, (i+1)/n).  Two seeds therefore give different requests but
almost the same total work, which keeps wall time and the percentiles steady
across seeds.  Adjacent strata are dealt at random to BLOCKS blocks, so each
block carries the same work too.
"""
from __future__ import annotations

import json
import math
import random

WORKLOADS = ("classic", "arms-postgel", "arms-closed", "validate")

# Requests served per second of --seconds, sized so that one run of the
# stream takes about --seconds on a 2-core x86 box at the commit that added it.
RATE = {"classic": 130.0, "arms-postgel": 16.0, "arms-closed": 120.0, "validate": 10.0}
MIN_REQUESTS = 120  # at least ten requests beyond the 90th percentile
BLOCKS = 6  # equal-work blocks served one after another; the traced mode traces odd ones

# (kind, share of the stream, variants); a variant fixes model and measure family
MIXES = {
    "classic": [
        ("trajectory", 0.25, [(m, f) for m in ("smoluchowski", "flory")
                              for f in ("monodisperse", "exponential", "discrete")]
         + [("smoluchowski", "powerlaw")]),
        ("concentrations", 0.25, [(m, f) for m in ("smoluchowski", "flory")
                                  for f in ("monodisperse", "discrete")]),
        # only families with parameters: a parameterless moments call would repeat
        ("moments", 0.15, [(None, "powerlaw"), (None, "discrete")]),
        ("batch", 0.35, [(m, f) for m in ("smoluchowski", "flory")
                         for f in ("monodisperse", "exponential", "discrete")]
         + [("smoluchowski", "powerlaw")]),
    ],
    "arms-postgel": [
        ("arms_count", 0.35, [("smoluchowski-arms", "arm-law")]),
        ("state", 0.25, [("smoluchowski-arms", "arm-law")]),
        ("trajectory", 0.15, [("smoluchowski-arms", "arm-law")]),
        ("concentrations", 0.25, [("smoluchowski-arms", "arm-law")]),
    ],
    "arms-closed": [
        ("mass", 0.3, [("flory-arms", "arm-law"), ("smoluchowski-arms", "arm-law")]),
        ("batch", 0.3, [("flory-arms", "arm-law"), ("smoluchowski-arms", "arm-law")]),
        ("concentrations", 0.25, [("flory-arms", "arm-law"),
                                  ("smoluchowski-arms", "arm-law")]),
        ("limits", 0.15, [("flory-arms", "arm-law"), ("smoluchowski-arms", "arm-law")]),
    ],
    "validate": [
        ("validate", 0.7, [(m, f) for m in ("smoluchowski", "flory")
                           for f in ("monodisperse", "discrete")]),
        ("validate", 0.3, [("smoluchowski-arms", "arm-law"), ("flory-arms", "arm-law")]),
    ],
}


def lerp(lo, hi, u):
    return lo + (hi - lo) * u


def geo(lo, hi, u):
    return lo * (hi / lo) ** u


def classic_spec(family, rng):
    if family == "monodisperse":
        return {"type": "monodisperse"}
    if family == "exponential":
        return {"type": "exponential"}
    if family == "powerlaw":
        return {"type": "powerlaw", "p": rng.uniform(1.2, 1.8)}
    # an atom at mass 1 keeps the lattice aperiodic, so every c_t(m) > 0
    # normalised to unit mass M0 = sum m w(m)
    masses = [1] + sorted(rng.sample(range(2, 9), 3))
    weights = [rng.uniform(0.2, 1.0) for _ in masses]
    mass = sum(m * w for m, w in zip(masses, weights))
    return {"type": "discrete", "atoms": [[m, w / mass] for m, w in zip(masses, weights)]}


def classic_t_gel(spec):
    kind = spec["type"]
    if kind == "monodisperse":
        return 1.0
    if kind == "exponential":
        return 0.5
    if kind == "powerlaw":
        return 0.0
    return 1.0 / sum(w * m * m for m, w in spec["atoms"])


def arm_spec(rng):
    """Arm law on {0, 1, 2, 3} normalised to A0 = sum a mu(a) = 1, the paper's
    convention, with mu(1) > 0 and K = sum a (a-1) mu(a) > 1: finite T_gel."""
    mu3 = rng.uniform(0.2, 0.3)
    rest, share1 = 1.0 - 3.0 * mu3, rng.uniform(0.4, 1.0)
    mu = {0: rng.uniform(0.1, 0.5), 1: rest * share1, 2: rest * (1.0 - share1) / 2.0, 3: mu3}
    return {"type": "arm-law", "mu": {str(a): w for a, w in mu.items()}}


def arm_t_gel(spec):
    mu = {int(a): w for a, w in spec["mu"].items()}
    a0 = sum(a * w for a, w in mu.items())
    k = sum(a * (a - 1) * w for a, w in mu.items())
    return 1.0 / (k - a0)


def num(x):
    return repr(float(x))


def cli(sub, model, spec, *extra):
    argv = [sub]
    if model is not None:
        argv += ["--model", model]
    return {"call": "cli", "argv": argv + ["--measure", json.dumps(spec), *extra]}


def lib(model, spec, queries):
    return {"call": "lib", "model": model, "queries": queries}


# ---------------------------------------------------------------------------
# One request per (workload, kind); u in [0, 1) is the stratified cost parameter

def make_classic(kind, model, family, u, rng):
    spec = classic_spec(family, rng)
    tg = classic_t_gel(spec)

    def t_at(v):  # times from 0.3 T_gel to 3 T_gel (absolute for T_gel = 0)
        return geo(0.3, 3.0, v) * tg if tg > 0.0 else geo(0.2, 3.0, v)

    if kind == "trajectory":
        t_end = t_at(rng.random())
        count = int(lerp(11, 42, u))
        req = cli("trajectory", model, spec, "--t-start", num(rng.uniform(0.0, 0.2) * t_end),
                  "--t-end", num(t_end), "--count", str(count))
    elif kind == "concentrations":
        order = int(geo(16, 513, u))
        req = cli("concentrations", model, spec, "--t", num(t_at(rng.random())),
                  "--order", str(order))
    elif kind == "moments":
        req = cli("moments", None, spec)
    else:
        t = t_at(rng.random())
        n = int(lerp(4, 17, u))
        methods = ("gen_fun", "h_inverse", "second_moment")
        queries = [[methods[i % 3], t, None if i % 3 == 2 else rng.uniform(0.02, 0.98)]
                   for i in range(n)]
        rng.shuffle(queries)
        req = lib(model, spec, queries)
    req["measure"] = spec
    return req


def make_arms_postgel(kind, model, family, u, rng):
    spec = arm_spec(rng)
    tg = arm_t_gel(spec)
    if kind == "arms_count":
        req = lib(model, spec, [["arms_count", tg + geo(0.004, 0.03, u), None]])
    elif kind == "state":
        req = lib(model, spec, [["state", tg + geo(0.001, 0.008, u), None]])
    elif kind == "trajectory":
        start = tg + geo(0.0005, 0.002, u)
        req = cli("trajectory", model, spec, "--t-start", num(start),
                  "--t-end", num(start + geo(0.001, 0.004, u)), "--count", "2")
    else:
        window = str(rng.randint(8, 30))
        req = cli("concentrations", model, spec, "--t", num(tg + geo(0.004, 0.03, u)),
                  "--amax", window, "--mmax", str(rng.randint(8, 30)))
    req["measure"] = spec
    return req


def make_arms_closed(kind, model, family, u, rng):
    spec = arm_spec(rng)
    tg = arm_t_gel(spec)

    def t_at(v):  # FloryArms at all times, SmoluchowskiArms before T_gel only
        if model == "flory-arms":
            return tg * geo(0.1, 4.0, v)
        return tg * lerp(0.05, 0.995, v)

    if kind == "mass":
        req = lib(model, spec, [["mass", t_at(u), None]])
    elif kind == "batch":
        n = int(lerp(2, 9, u))
        queries = [[("arms_count", "second_moment")[i % 2], t_at(rng.random()), None]
                   for i in range(n)]
        req = lib(model, spec, queries)
    elif kind == "concentrations":
        window = int(lerp(8, 31, u))
        req = cli("concentrations", model, spec, "--t", num(t_at(rng.random())),
                  "--amax", str(window), "--mmax", str(rng.randint(8, 30)))
    else:
        req = cli("limits", model, spec, "--mmax", str(int(lerp(10, 41, u))))
    req["measure"] = spec
    return req


def make_validate(kind, model, family, u, rng):
    """Windows keep away from T_gel and are large enough for the oracle to agree.

    u sets both the window and the number of oracle steps, so the cost of a
    request follows its stratum; t_end is drawn freely and dt = t_end / steps.
    """
    if family == "arm-law":
        spec = arm_spec(rng)
        t_end = arm_t_gel(spec) * rng.uniform(0.15, 0.28)
        window = str(int(lerp(30, 47, u)))
        extra = ("--t-end", num(t_end), "--amax", window, "--mmax", window,
                 "--dt", num(t_end / lerp(80, 250, u)))
    else:
        spec = classic_spec(family, rng)
        t_end = classic_t_gel(spec) * rng.uniform(0.3, 0.55)
        extra = ("--t-end", num(t_end), "--mmax", str(int(lerp(200, 401, u))),
                 "--dt", num(t_end / lerp(50, 300, u)))
    req = cli("validate", model, spec, *extra, "--tol", "1e-3")
    req["measure"] = spec
    return req


MAKERS = {
    "classic": make_classic,
    "arms-postgel": make_arms_postgel,
    "arms-closed": make_arms_closed,
    "validate": make_validate,
}


def build(workload, seed, seconds):
    """The run's request stream: identical for identical (workload, seed, seconds).

    The stream is served as BLOCKS consecutive blocks of equal work: every
    BLOCKS adjacent strata of a group go one to each block, in seeded order.
    """
    if workload not in MIXES:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    total = max(MIN_REQUESTS, math.ceil(seconds * RATE[workload]))
    make = MAKERS[workload]
    blocks = [[] for _ in range(BLOCKS)]
    for kind, share, variants in MIXES[workload]:
        per_variant = BLOCKS * math.ceil(total * share / len(variants) / BLOCKS)
        for model, family in variants:
            order = []
            for _ in range(per_variant // BLOCKS):
                order += rng.sample(range(BLOCKS), BLOCKS)
            for i in range(per_variant):
                req = make(kind, model, family, (i + rng.random()) / per_variant, rng)
                req["kind"] = kind
                blocks[order[i]].append(req)
    if workload == "arms-closed":
        # the README example, FloryArms(mu).arms_count(4.0) = 7/60
        readme = {"type": "arm-law", "mu": {"0": 0.5, "1": 0.25, "3": 0.25}}
        blocks[0].append(dict(lib("flory-arms", readme, [["arms_count", 4.0, None]]),
                              measure=readme, kind="readme", readme_check=True))
    stream = []
    for b, block in enumerate(blocks):
        rng.shuffle(block)
        for req in block:
            req.update(block=b, id=len(stream))
            stream.append(req)
    return stream


def request_key(req):
    """What the program sees of a request: equal keys mean a repeated request."""
    if req["call"] == "cli":
        return json.dumps(req["argv"])
    return json.dumps([req["model"], req["measure"], req["queries"]], sort_keys=True)
