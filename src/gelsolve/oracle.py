"""Brute-force validation: direct integration of the truncated kinetic ODEs.

Nothing here touches the analytic machinery; the right-hand sides are written
straight from the coagulation rates on a finite mass (or arms x mass) lattice,
so agreement with the solver is meaningful evidence.

Two truncation flavors:
  * "no-big-coagulation": any merger that would leave the lattice is dropped
    outright (approximates the gel-inert model);
  * "gel-interacting": over-threshold production is routed into a gel-mass
    accumulator and the loss term uses the full conserved initial mass
    (approximates the gel-interacting model).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError, UsageError
from .measures import ArmMeasure, MassMeasure

FLAVORS = ("no-big-coagulation", "gel-interacting")


@dataclass
class OracleState:
    """Truncated concentrations plus gel bookkeeping at one time."""

    t: float
    c: np.ndarray  # 1-D (index m) for classic, 2-D (a, m) for arms
    gel_mass: float = 0.0

    @property
    def mass(self) -> float:
        return _mass(self.c)

    @property
    def arm_count(self) -> float:
        if self.c.ndim != 2:
            raise DomainError("arm count only defined for arms states")
        return float((self.c * np.arange(self.c.shape[0])[:, None]).sum())


def initial_classic(measure: MassMeasure, m_max: int) -> OracleState:
    if m_max < 2:
        raise DomainError("m_max must be >= 2")
    return OracleState(t=0.0, c=measure.lattice_weights(m_max))


def initial_arms(measure: ArmMeasure, a_max: int, m_max: int) -> OracleState:
    if m_max < 2 or a_max < 1:
        raise DomainError("need a_max >= 1 and m_max >= 2")
    c = np.zeros((a_max + 1, m_max + 1))
    for (a, m), w in measure.weights.items():
        if a > a_max or m > m_max:
            raise DomainError(
                f"initial atom (a={a}, m={m}) outside the truncation window"
            )
        c[a, m] += w
    return OracleState(t=0.0, c=c)


# ---------------------------------------------------------------------------
# Right-hand sides

def _frozen(array: np.ndarray) -> np.ndarray:
    """array made read-only: the cached arrays below are shared by every call."""
    array.flags.writeable = False
    return array


@functools.cache
def _masses(n: int) -> np.ndarray:
    """The masses 0..n-1 of a classic state of n cells."""
    return _frozen(np.arange(n))


def _mass(c: np.ndarray) -> float:
    """sum m c(m) of a classic state, or sum m c(a, m) of an arms state."""
    if c.ndim == 1:
        return float(np.dot(_masses(c.size), c))
    return float((c * _masses(c.shape[1])).sum())


def _rhs_classic(c: np.ndarray, flavor: str, M0: float) -> np.ndarray:
    w = _masses(c.size) * c  # mass-weighted concentrations
    gain = 0.5 * np.convolve(w, w)[: c.size]
    if flavor == "gel-interacting":
        loss = w * M0  # gel keeps interacting: total partner mass is conserved
    else:
        # partner restricted to masses that keep the product on the lattice;
        # the unused m = 0 slot is zeroed below
        loss = w * np.cumsum(w)[::-1]
    out = gain - loss
    out[0] = 0.0
    return out


@functools.cache
def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n, a length numpy's FFT handles fast."""
    m = n
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


@functools.cache
def _arms_grid(na: int, nm: int):
    """Arm column, no-big-coagulation partner rows and FFT shape of an na x nm window."""
    a = _frozen(np.arange(na)[:, None])
    # a partner of a arms keeps a' <= A_max + 2 - a, and a' <= A_max
    a_cap = _frozen(np.minimum(na - 1, na + 1 - np.arange(na)))
    # 2 na rows hold the self-convolution's 2 na - 1 and the row na + 1 read
    # in _rhs_arms, also for na = 2
    return a, a_cap, (_fast_len(2 * na), _fast_len(2 * nm - 1))


def _rhs_arms(t: float, c: np.ndarray, flavor: str, A0: float) -> np.ndarray:
    na, nm = c.shape
    a, a_cap, (la, lm) = _arms_grid(na, nm)
    d = a * c  # arm-weighted concentrations
    # the self-convolution d * d: one forward transform (along m, then a),
    # squared, and back along a.  The merger of (a1,m1),(a2,m2) lands at
    # (a1+a2-2, m1+m2), inside the window for every a1 + a2 <= na + 1, so only
    # the rows 2 .. na + 1 go back along m.
    spectrum = np.fft.fft(np.fft.rfft(d, lm, axis=1), la, axis=0)
    rows = np.fft.ifft(spectrum * spectrum, la, axis=0)[2 : na + 2]
    gain = 0.5 * np.fft.irfft(rows, lm, axis=1)[:, :nm]
    if flavor == "gel-interacting":
        loss = d * (A0 / (1.0 + t * A0))  # exact total arm count, gel included
    else:
        # partner must keep both coordinates inside the window:
        # a' <= a_cap[a] and m' <= M_max - m, the columns of cum reversed
        cum = np.cumsum(np.cumsum(d, axis=0), axis=1)
        loss = d * cum[a_cap][:, ::-1]
    return gain - loss


def _rhs(t, c, *, arms, flavor, total):
    if arms:
        return _rhs_arms(t, c, flavor, total)
    return _rhs_classic(c, flavor, total)


# ---------------------------------------------------------------------------
# Integration

def integrate(
    initial: OracleState,
    t_grid,
    dt: float,
    *,
    flavor: str = "no-big-coagulation",
) -> list[OracleState]:
    """Fixed-step 4th-order integration, sampled at the sorted t_grid.

    The gel-interacting loss term takes the conserved total of the initial
    state: its mass (classic) or its arm count (arms).
    """
    if flavor not in FLAVORS:
        raise DomainError(f"flavor must be one of {FLAVORS}")
    if dt <= 0.0:
        raise DomainError("dt must be positive")
    t_grid = sorted(float(t) for t in t_grid)
    if t_grid and t_grid[0] < initial.t:
        raise UsageError("t_grid starts before the initial state")
    arms = initial.c.ndim == 2
    total = initial.arm_count if arms else initial.mass

    t = initial.t
    c = initial.c.copy()
    gel = initial.gel_mass
    out: list[OracleState] = []

    def step(t, c, h):
        k1 = _rhs(t, c, arms=arms, flavor=flavor, total=total)
        k2 = _rhs(t + 0.5 * h, c + 0.5 * h * k1, arms=arms, flavor=flavor, total=total)
        k3 = _rhs(t + 0.5 * h, c + 0.5 * h * k2, arms=arms, flavor=flavor, total=total)
        k4 = _rhs(t + h, c + h * k3, arms=arms, flavor=flavor, total=total)
        # c + (h/6) (k1 + 2 k2 + 2 k3 + k4), summed left to right in k2
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= h / 6.0
        k2 += c
        return k2

    gel_interacting = flavor == "gel-interacting"
    mass = _mass(c) if gel_interacting else None  # of the state c at t
    for target in t_grid:
        while t < target - 1e-12:
            h = min(dt, target - t)
            # a step too long for the state overflows: the SolverError
            # below reports it, not two lines of numpy warnings
            with np.errstate(over="ignore", invalid="ignore"):
                c = step(t, c, h)
            t += h
            if not np.isfinite(c).all():
                raise SolverError(
                    f"concentrations are no longer finite at t={t:.6g}; reduce dt"
                )
            low = c.min()
            if low < -1e-9:
                raise SolverError(
                    f"concentration went negative ({low:.3e}) at t={t:.6g}; "
                    "reduce dt or enlarge the truncation window"
                )
            np.clip(c, 0.0, None, out=c)
            if gel_interacting:
                after = _mass(c)
                gel += mass - after  # exact mass bookkeeping
                mass = after
        out.append(OracleState(t=target, c=c.copy(), gel_mass=gel))
    return out


# ---------------------------------------------------------------------------
# Comparison

@dataclass
class ErrorReport:
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
    max_abs = 0.0
    max_rel = 0.0
    for a, o in zip(av, ov):
        if a.shape != o.shape:
            raise UsageError("value shapes differ between trajectories")
        err = float(np.max(np.abs(a - o))) if a.size else 0.0
        scale = float(np.max(np.abs(a))) if a.size else 0.0
        abs_errors.append(err)
        max_abs = max(max_abs, err)
        if scale > 0.0:
            max_rel = max(max_rel, err / scale)
    return ErrorReport(
        quantity=quantity,
        times=times,
        abs_errors=abs_errors,
        max_abs=max_abs,
        max_rel=max_rel,
        tol=tol,
        passed=max_abs <= tol,
    )
