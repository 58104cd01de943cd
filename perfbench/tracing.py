"""Spans around the calls into each gelsolve module, recorded from outside.

Wrappers are installed at the name each caller looks up (a module global or
a class attribute) only while a traced request runs, so untraced requests
execute the unmodified functions.  Spans stay in memory and are written out
when the benchmark ends.  The hottest leaves (`g0`, `k0`) are aggregated
rather than kept as individual spans; their time still counts as child time
of the span that called them.
"""
from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

# (span name, kind, [(module, owner or None, attribute), ...])
#   kind: "span" records every call, "leaf" aggregates only,
#   "bisect" also counts evaluations of the function being bisected
TARGETS = [
    ("measures.g0", "leaf", [("measures", "Discrete", "g0"),
                             ("measures", "ExponentialDensity", "g0"),
                             ("measures", "PowerLawDensity", "g0")]),
    ("measures.k0", "leaf", [("measures", "ArmMeasure", "k0")]),
    ("measures.conv_power", "span", [("measures", None, "conv_power"),
                                     ("series", None, "conv_power")]),
    ("characteristics.bisect", "bisect", [("characteristics", None, "bisect_increasing"),
                                          ("models", None, "bisect_increasing"),
                                          ("series", None, "bisect_increasing")]),
    ("characteristics.ell_smolu", "span", [("characteristics", None, "ell_smolu"),
                                           ("models", None, "ell_smolu"),
                                           ("series", None, "ell_smolu")]),
    ("characteristics.l_flory", "span", [("characteristics", None, "l_flory"),
                                         ("models", None, "l_flory")]),
    ("characteristics.flow.build", "span", [("characteristics", "ArmsFlow", "__init__")]),
    ("characteristics.flow.state", "span", [("characteristics", "ArmsFlow", "state")]),
    ("models.h_inverse", "span", [("models", "_Classic", "h_inverse"),
                                  ("models", "_Arms", "h_inverse")]),
    ("models.gen_fun", "span", [("models", c, "gen_fun")
                                for c in ("_Classic", "SmoluchowskiArms", "FloryArms")]),
    ("models.state", "span", [("models", c, "state")
                              for c in ("_Classic", "SmoluchowskiArms", "FloryArms")]),
    ("models.second_moment", "span", [("models", c, "second_moment") for c in (
        "Smoluchowski", "Flory", "SmoluchowskiArms", "FloryArms")]),
    ("models.mass", "span", [("models", "_Classic", "mass"), ("models", "_Arms", "mass")]),
    ("series.ps_revert", "span", [("series", None, "ps_revert")]),
    ("series.ps_compose", "span", [("series", None, "ps_compose")]),
    ("series.ps_exp", "span", [("series", None, "ps_exp")]),
    ("series.concentrations", "span", [("series", None, "concentrations"),
                                       ("cli", None, "concentrations")]),
    ("series.arms_concentrations", "span", [("series", None, "arms_concentrations"),
                                            ("cli", None, "arms_concentrations")]),
    ("series.arms_mass", "span", [("series", None, "arms_mass")]),
    ("series.limiting_concentrations", "span", [("series", None, "limiting_concentrations"),
                                                ("cli", None, "limiting_concentrations")]),
    ("oracle.integrate", "span", [("oracle", None, "integrate"), ("cli", None, "integrate")]),
    ("oracle.rhs", "span", [("oracle", None, "_rhs")]),
    ("oracle.compare", "span", [("oracle", None, "compare"), ("cli", None, "compare")]),
    ("cli.main", "span", [("cli", None, "main")]),
]


class Tracer:
    """Span stack plus per-name aggregates; one instance per benchmark run."""

    def __init__(self, package):
        self.stack = []  # frames: [span id, child seconds]
        self.spans = []  # (id, parent id, request id, name, start, end)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.evals = 0
        self.request = None
        self._next = 0
        self._patches = []
        for name, kind, sites in TARGETS:
            for module, owner, attr in sites:
                holder = getattr(package, module)
                if owner is not None:
                    holder = getattr(holder, owner)
                original = vars(holder)[attr]
                self._patches.append((holder, attr, original, self._wrap(name, kind, original)))

    def _open(self):
        self._next += 1
        frame = [self._next, 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, name, frame, start, record=True):
        end = perf_counter()
        self.stack.pop()
        dur = end - start
        if self.stack:
            self.stack[-1][1] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - frame[1]
        self.total_s[name] += dur
        if record:
            parent = self.stack[-1][0] if self.stack else None
            self.spans.append((frame[0], parent, self.request, name, start, end))

    def _wrap(self, name, kind, fn):
        tracer = self
        record = kind != "leaf"

        if kind == "bisect":
            @functools.wraps(fn)
            def wrapper(f, *args, **kwargs):
                def counted(x):
                    tracer.evals += 1
                    return f(x)

                frame = tracer._open()
                start = perf_counter()
                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    tracer._close(name, frame, start)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, frame, start, record)
        return wrapper

    def run(self, request_id, call):
        """Run call() as one traced request under a root span."""
        self.request = request_id
        for holder, attr, _, wrapped in self._patches:
            setattr(holder, attr, wrapped)
        frame = self._open()
        start = perf_counter()
        try:
            return call()
        finally:
            self._close("bench.request", frame, start)
            for holder, attr, original, _ in self._patches:
                setattr(holder, attr, original)
            self.request = None

    def write(self, path):
        with open(path, "w") as f:
            json.dump({
                "columns": ["id", "parent", "request", "name", "start_s", "end_s"],
                "spans": self.spans,
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "bisect_evals": self.evals,
            }, f)
