"""Brute-force validation: direct integration of the truncated kinetic ODEs.

Nothing here touches the analytic machinery; the right-hand sides are written
straight from the coagulation rates on a finite lattice, so agreement with the
solver is meaningful evidence.  The classic models run on the masses
0..m_max.  The arms models run on the arm marginal u(a) = sum_m c(a, m),
a = 0..a_max: their rate a1 a2 does not depend on mass, so u obeys a closed
equation, the classic one with its gain shifted by 2, and needs no mass window.

One truncation: a merger whose product would leave the lattice sends it to
the gel, and the loss term takes the conserved total of the initial state
(mass, or arm count A0 / (1 + A0 t)), gel included.  The classic window's
equations are then closed and exact for the gel-interacting (Flory) models
at every time, and for the gel-inert (Smoluchowski) models before the gel
time, where the two are the same equations.  The arms window misses only the
clusters beyond a_max that a one-arm partner brings back into it.  Past the
gel time the truncation follows Flory's models only.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .errors import DomainError, SolverError, UsageError
from .measures import ArmMeasure, MassMeasure, np


class OracleState(NamedTuple):
    """Truncated concentrations plus gel bookkeeping at one time.

    A classic state holds c(m), indexed by mass, and gel_mass, the mass that
    has left its window.  An arms state (arms=True) holds the arm marginal
    u(a) = sum_m c(a, m), indexed by free arms: it has no masses, so its
    gel_mass is nan and its mass is undefined.
    """

    t: float
    c: np.ndarray
    gel_mass: float = 0.0
    arms: bool = False

    @property
    def mass(self) -> float:
        if self.arms:
            raise DomainError("mass not defined for arms states")
        return _mass(self.c)

    @property
    def arm_count(self) -> float:
        if not self.arms:
            raise DomainError("arm count only defined for arms states")
        return _mass(self.c)


def initial_classic(measure: MassMeasure, m_max: int) -> OracleState:
    if m_max < 2:
        raise DomainError("m_max must be >= 2")
    return OracleState(t=0.0, c=measure.lattice_weights(m_max))


def initial_arms(measure: ArmMeasure, a_max: int) -> OracleState:
    """The arm marginal of any arm data: its weights summed over m for each a."""
    if a_max < 1:
        raise DomainError("a_max must be >= 1")
    c = np.zeros(a_max + 1)
    for (a, m), w in measure.weights.items():
        if a > a_max:
            raise DomainError(
                f"initial atom (a={a}, m={m}) outside the truncation window"
            )
        c[a] += w
    return OracleState(t=0.0, c=c, arms=True)


# ---------------------------------------------------------------------------
# Right-hand side

@functools.cache
def _indices(n: int) -> np.ndarray:
    """The indices 0..n-1 of an n-cell state, masses or free arms, as floats.

    Floats, not integers: a product with them then needs no cast per call.
    The array is read-only, since every call shares it.
    """
    indices = np.arange(n, dtype=float)
    indices.flags.writeable = False
    return indices


def _mass(c: np.ndarray) -> float:
    """The index-weighted sum: sum m c(m) of a classic state, sum a u(a) of an arms state."""
    return float(np.dot(_indices(c.size), c))


class _Work:
    """Work arrays for the right-hand side of one n-cell window.

    integrate holds one for the whole call; each evaluation overwrites it, and
    only the returned right-hand side is a fresh array.
    """

    def __init__(self, n: int, arms: bool):
        shift = 2 if arms else 0
        # w behind n - 1 zeros and before shift zeros, which are never written
        padded = np.zeros(2 * n - 1 + shift)
        self.w = padded[n - 1 : 2 * n - 1]
        self.window = padded[shift : 2 * n - 1 + shift]
        self.loss = np.empty(n)


def _rhs(t, c, *, arms, total, work=None):
    """dc/dt = 1/2 (w * w)(k + shift) - w(k) total(t), with w(k) = k c(k), for k < n.

    Classic: k is the mass, shift 0 and total(t) = M0, since the gel keeps
    interacting and the total partner mass is conserved.  Arms: k is the
    number of free arms of the marginal, shift 2 (a merger joins two arms) and
    total(t) = A0 / (1 + A0 t), the exact arm count, gel included.
    """
    n = c.size
    if work is None:
        work = _Work(n, arms)
    w = np.multiply(_indices(n), c, out=work.w)
    # the n kept sums of the self-convolution, sum_j w(j) w(k + shift - j):
    # the window of w behind its zeros, correlated with w reversed.  The full
    # convolution's other outputs are tail-by-tail products, which underflow
    # to the slow subnormal path while c(m) ~ t^(m-1) is small.
    gain = np.correlate(work.window, w[::-1], "valid")
    gain *= 0.5
    gain -= np.multiply(w, total / (1.0 + t * total) if arms else total, out=work.loss)
    return gain


# ---------------------------------------------------------------------------
# Integration

def integrate(initial: OracleState, t_grid, dt: float) -> list[OracleState]:
    """Fixed-step 4th-order integration, sampled at the sorted t_grid.

    The loss term takes the conserved total of the initial state: its mass
    (classic) or its arm count (arms).
    """
    if not math.isfinite(initial.t):
        raise DomainError(f"the initial time must be finite, got {initial.t}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise DomainError(f"dt must be finite and positive, got {dt}")
    t_grid = [float(t) for t in t_grid]
    bad = [t for t in t_grid if not math.isfinite(t)]
    if bad:
        raise DomainError(f"grid times must be finite, got {bad[0]}")
    t_grid.sort()
    if t_grid and t_grid[0] < initial.t:
        raise UsageError("t_grid starts before the initial state")
    arms = initial.arms
    total = _mass(initial.c)
    work = _Work(initial.c.size, arms)

    t = initial.t
    c = initial.c.copy()
    y = np.empty_like(c)  # the stage inputs c + (h/2) k1, c + (h/2) k2, c + h k3
    out: list[OracleState] = []

    def rhs(t, c):
        return _rhs(t, c, arms=arms, total=total, work=work)

    def step(t, c, h):
        half = 0.5 * h
        k1 = rhs(t, c)
        np.multiply(k1, half, out=y)
        np.add(y, c, out=y)
        k2 = rhs(t + half, y)
        np.multiply(k2, half, out=y)
        np.add(y, c, out=y)
        k3 = rhs(t + half, y)
        np.multiply(k3, h, out=y)
        np.add(y, c, out=y)
        k4 = rhs(t + h, y)
        # c + (h/6) (k1 + 2 k2 + 2 k3 + k4), summed left to right in k2
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= h / 6.0
        k2 += c
        return k2

    for target in t_grid:
        # a step too long for the state overflows: the SolverError below
        # reports it, not two lines of numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            while t < target - 1e-12:
                h = min(dt, target - t)
                c = step(t, c, h)
                t += h
                # a NaN entry makes both NaN
                low, high = c.min(), c.max()
                if not (math.isfinite(low) and math.isfinite(high)):
                    raise SolverError(
                        f"concentrations are no longer finite at t={t:.6g}; reduce dt"
                    )
                if low < -1e-9:
                    raise SolverError(
                        f"concentration went negative ({low:.3e}) at t={t:.6g}; "
                        "reduce dt or enlarge the truncation window"
                    )
                if low < 0.0:
                    # np.maximum(x, 0.0) returns every x >= 0, -0.0 included,
                    # unchanged, so the clip is needed only here
                    np.maximum(c, 0.0, out=c)
        # the mass that leaves the window goes to the gel, so the gel mass at
        # a sampled time is what the window has lost since the initial state
        gel = math.nan if arms else initial.gel_mass + (total - _mass(c))
        out.append(OracleState(t=target, c=c.copy(), gel_mass=gel, arms=arms))
    return out


# ---------------------------------------------------------------------------
# Comparison

class ErrorReport(NamedTuple):
    quantity: str
    times: list
    abs_errors: list
    max_abs: float
    max_rel: float
    tol: float
    passed: bool


def compare(times, analytic_values, oracle_values, *, quantity="mass", tol=1e-3):
    """Pointwise error table between two trajectories on a shared grid."""
    times = [float(t) for t in times]
    av = [np.asarray(v, dtype=float) for v in analytic_values]
    ov = [np.asarray(v, dtype=float) for v in oracle_values]
    if not len(times) == len(av) == len(ov):
        raise UsageError("time grid and value sequences must have equal length")
    abs_errors = []
    rel_errors = []
    for a, o in zip(av, ov):
        if a.shape != o.shape:
            raise UsageError("value shapes differ between trajectories")
        err = float(np.max(np.abs(a - o))) if a.size else 0.0
        scale = float(np.max(np.abs(a))) if a.size else 0.0
        abs_errors.append(err)
        if scale != 0.0:  # also a NaN scale, whose ratio is NaN
            rel_errors.append(err / scale)
    # np.max, unlike max(), keeps a NaN, so a NaN difference fails the check
    max_abs = float(np.max(abs_errors, initial=0.0))
    return ErrorReport(
        quantity=quantity,
        times=times,
        abs_errors=abs_errors,
        max_abs=max_abs,
        max_rel=float(np.max(rel_errors, initial=0.0)),
        tol=tol,
        passed=max_abs <= tol,
    )
