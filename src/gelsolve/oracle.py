"""Brute-force validation: direct integration of the truncated kinetic ODEs.

Nothing here touches the analytic machinery; the right-hand sides are written
straight from the coagulation rates on a finite mass (or arms x mass) lattice,
so agreement with the solver is meaningful evidence.

One truncation: a merger whose product would leave the lattice sends its
mass to the gel, and the loss term takes the conserved total of the initial
state, gel included.  The window's equations are then closed and exact for the
gel-interacting (Flory) models at every time, and for the gel-inert
(Smoluchowski) models before the gel time, where the two are the same
equations.  Past the gel time the truncation follows Flory's models only.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .errors import DomainError, SolverError, UsageError
from .measures import ArmMeasure, MassMeasure, np


class OracleState(NamedTuple):
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
    """The masses 0..n-1 of a classic state of n cells, as floats.

    Floats, not integers: a product with them then needs no cast per call.
    """
    return _frozen(np.arange(n, dtype=float))


def _mass(c: np.ndarray) -> float:
    """sum m c(m) of a classic state, or sum m c(a, m) of an arms state."""
    if c.ndim == 1:
        return float(np.dot(_masses(c.size), c))
    return float((c * _masses(c.shape[1])).sum())


class _ClassicWork:
    """Work arrays for the right-hand side of one n-cell classic window.

    integrate holds one for the whole call; each evaluation overwrites it, and
    only the returned right-hand side is a fresh array.
    """

    def __init__(self, n: int):
        # w behind n - 1 zeros that are never written
        self.padded = np.zeros(2 * n - 1)
        self.w = self.padded[n - 1 :]
        self.loss = np.empty(n)


def _rhs_classic(
    c: np.ndarray, M0: float, work: _ClassicWork | None = None
) -> np.ndarray:
    n = c.size
    if work is None:
        work = _ClassicWork(n)
    w = np.multiply(_masses(n), c, out=work.w)  # mass-weighted concentrations
    # the n kept sums of the self-convolution, sum_j w(j) w(m - j) for m < n:
    # w behind n - 1 zeros, correlated with w reversed.  The full convolution's
    # other n - 1 outputs are tail-by-tail products, which underflow to the
    # slow subnormal path while c(m) ~ t^(m-1) is small.
    gain = np.correlate(work.padded, w[::-1], "valid")
    gain *= 0.5
    # gel keeps interacting: total partner mass is conserved
    gain -= np.multiply(w, M0, out=work.loss)
    gain[0] = 0.0
    return gain


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
    """Arm column and FFT shape of an na x nm window."""
    a = _frozen(np.arange(na, dtype=float)[:, None])
    # 2 na rows hold the self-convolution's 2 na - 1 and the row na + 1 read
    # in _rhs_arms, also for na = 2
    return a, (_fast_len(2 * na), _fast_len(2 * nm - 1))


class _ArmsWork:
    """Work arrays for the right-hand side of one na x nm arms window.

    integrate holds one for the whole call; each evaluation overwrites it, and
    only the returned right-hand side is a fresh array.
    """

    def __init__(self, na: int, nm: int):
        _, (la, lm) = _arms_grid(na, nm)
        self.d = np.empty((na, nm))
        # the rows na .. la - 1 stay zero: the transform along a pads with them
        self.padded = np.zeros((la, lm // 2 + 1), dtype=complex)
        self.spectrum = np.empty_like(self.padded)
        self.rows = np.empty((na, lm))
        self.loss = np.empty((na, nm))


def _rhs_arms(
    t: float, c: np.ndarray, A0: float, work: _ArmsWork | None = None
) -> np.ndarray:
    na, nm = c.shape
    a, (_, lm) = _arms_grid(na, nm)
    if work is None:
        work = _ArmsWork(na, nm)
    d = np.multiply(a, c, out=work.d)  # arm-weighted concentrations
    # the self-convolution d * d: one forward transform (along m, then a),
    # squared, and back along a.  The merger of (a1,m1),(a2,m2) lands at
    # (a1+a2-2, m1+m2), inside the window for every a1 + a2 <= na + 1, so only
    # the rows 2 .. na + 1 go back along m.
    np.fft.rfft(d, lm, axis=1, out=work.padded[:na])
    spectrum = np.fft.fft(work.padded, axis=0, out=work.spectrum)
    np.multiply(spectrum, spectrum, out=spectrum)
    np.fft.ifft(spectrum, axis=0, out=spectrum)
    rows = np.fft.irfft(spectrum[2 : na + 2], lm, axis=1, out=work.rows)
    gain = rows[:, :nm] * 0.5
    # exact total arm count, gel included
    gain -= np.multiply(d, A0 / (1.0 + t * A0), out=work.loss)
    return gain


def _rhs(t, c, *, arms, total, work=None):
    if arms:
        return _rhs_arms(t, c, total, work)
    return _rhs_classic(c, total, work)


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
    arms = initial.c.ndim == 2
    total = initial.arm_count if arms else initial.mass
    work = (_ArmsWork if arms else _ClassicWork)(*initial.c.shape)

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
        gel = initial.gel_mass + (initial.mass - _mass(c))
        out.append(OracleState(t=target, c=c.copy(), gel_mass=gel))
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
