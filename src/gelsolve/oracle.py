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

Both run RK4 on the doubled rate g = 2 dc/dt = (w * w)(k + shift) -
2 w(k) total, with w(k) = k c(k), and write each stage input straight into
the window that np.correlate reads, as v(k) = D(k) w(k), where D(k) is 1
below h = (n - 1 + shift)//2 + 1 and 2 from h on.  A pair j <= l that lands
in the window has j < h, so the window correlated with v(0..h-1) = w(0..h-1)
sums each unordered pair once, in n h products, not n^2.  The loss rides in
the kept sums of the classic window: its w(0) = 0 c(0) is always 0, so it
holds -M0 instead, and each kept sum k >= 1 then holds the gain less
2 M0 w(k), which is the loss.  The sum at k = 0 holds M0^2 and is set to 0,
so c(0) stays as it is.  On the arms window a shift of 2 would pair that
entry with cell 2, a real cell, so there the loss is subtracted.
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
    """The masses 0..m_max of lattice data, every atom inside the window."""
    if m_max < 2:
        raise DomainError("m_max must be >= 2")
    c = measure.lattice_weights(m_max)  # drops the atoms past m_max
    for m, _ in measure.atoms:
        if m > m_max:
            raise DomainError(f"initial atom (m={m:g}) outside the truncation window")
    return OracleState(t=0.0, c=c)


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


class _Window:
    """v(k) = D(k) k y(k) of a stage input y on an n-cell window, laid out for np.correlate.

    v sits behind h - 1 zeros and before shift zeros, which are never
    written: window is v with them, kernel is v(0..h-1) back to front.
    """

    def __init__(self, n: int, shift: int):
        h = (n - 1 + shift) // 2 + 1
        padded = np.zeros(h - 1 + n + shift)
        self.v = padded[h - 1 : h - 1 + n]
        self.kernel = self.v[h - 1 :: -1]
        self.window = padded[shift:]


class _Work:
    """The work arrays of one n-cell window, and the conserved total of its initial state.

    integrate holds one for the whole call: start holds the v of each step's
    start, the first stage input, and stage the v of the other three; each
    evaluation returns one fresh array.  doubled holds D(k) k, and the arms
    loss reads w back from v through 2 A_t / D(k), made once per time t.
    """

    def __init__(self, n: int, arms: bool, total: float):
        shift = 2 if arms else 0
        self.arms = arms
        self.total = total
        self.start = _Window(n, shift)
        self.stage = _Window(n, shift)
        self.loss = np.empty(n)
        self.doubling = np.where(_indices(n) < self.start.kernel.size, 1.0, 2.0)
        self.doubled = _indices(n) * self.doubling
        self.loss_weight, self.loss_t = np.empty(n), math.nan


def _rhs(t, work, y):
    """g = 2 dc/dt = (w * w)(k + shift) - 2 w(k) total(t) for k < n, at the stage input y.

    y is one of work's windows, holding v = D w of w(k) = k y(k).  Classic:
    k is the mass, shift 0 and total(t) = M0, since the gel keeps interacting
    and the total partner mass is conserved; w(0) = 0 y(0) holds -M0 instead,
    so the kept sums carry the loss (see the module docstring) and g(0),
    their M0^2, is set to 0.  Arms: k is the number of free arms of the
    marginal, shift 2 (a merger joins two arms) and total(t) = A0 / (1 + A0
    t), the exact arm count, gel included; the loss is subtracted from the
    kept sums.
    """
    # the n kept sums, sum_(j < h) w(j) v(k + shift - j), each unordered pair
    # once.  The full convolution's other outputs are tail-by-tail products,
    # which underflow to the slow subnormal path while c(m) ~ t^(m-1) is small.
    g = np.correlate(y.window, y.kernel, "valid")
    if work.arms:
        A0 = work.total
        if t != work.loss_t:
            work.loss_t = t
            np.divide(2.0 * A0 / (1.0 + t * A0), work.doubling, out=work.loss_weight)
        g -= np.multiply(y.v, work.loss_weight, out=work.loss)
    else:
        g[0] = 0.0
    return g


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
    work = _Work(initial.c.size, arms, total)
    doubled = work.doubled
    start, stage = work.start, work.stage
    start_v, stage_v = start.v, stage.v

    t = initial.t
    c = initial.c.copy()
    out: list[OracleState] = []

    def step(t, c, h, quarter, half):
        # RK4 on g = 2 dc/dt: the stage inputs y = c + (h/4) g1, c + (h/4) g2
        # and c + (h/2) g3 go into the stage window as D(k) k y(k), that is
        # D(k) k c(k) + ((h/4) D(k) k) g(k), with D(k) k c(k) made once per step
        np.multiply(doubled, c, out=start_v)
        if not arms:
            start_v[0] = -total
        g1 = _rhs(t, work, start)
        np.multiply(quarter, g1, out=stage_v)
        np.add(stage_v, start_v, out=stage_v)
        g2 = _rhs(t + 0.5 * h, work, stage)
        np.multiply(quarter, g2, out=stage_v)
        np.add(stage_v, start_v, out=stage_v)
        g3 = _rhs(t + 0.5 * h, work, stage)
        np.multiply(half, g3, out=stage_v)
        np.add(stage_v, start_v, out=stage_v)
        g4 = _rhs(t + h, work, stage)
        # c + (h/12) ((2 (g2 + g3) + g1) + g4), summed in place in g2
        g2 += g3
        g2 *= 2.0
        g2 += g1
        g2 += g4
        g2 *= h / 12.0
        g2 += c
        return g2

    weights_h = None  # the step size the stage weights were made for
    for target in t_grid:
        # a step too long for the state overflows: the SolverError below
        # reports it, not two lines of numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            while t < target - 1e-12:
                h = min(dt, target - t)
                if h != weights_h:  # h changes only at grid times
                    weights_h, quarter, half = h, doubled * (0.25 * h), doubled * (0.5 * h)
                c = step(t, c, h, quarter, half)
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
