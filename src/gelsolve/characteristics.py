"""Root-finding and quadrature behind the method of characteristics.

Every solved quantity is the root of a function monotone on its bracket, and
`bisect_increasing` is the one solver for all of them: each caller returns
the value and the slope together, the solver takes Newton steps from the last
point when they stay inside the bracket, bisection otherwise, and stops
relative to the size of the root.  The arms flow inverts an explicit integral
t(ell) summed by Gauss-Legendre quadrature with its own Newton loop.  It keeps
that loop for its secant start between the panel ends, not because value and
slope come from one quadrature: folded into `bisect_increasing` (in x or in
1/(x - c)) it took 4.7 quadratures per state instead of 3.5 on a 2-core box
(124 against 94 us, and the arms-postgel benchmark's wall time rose 9 %), and
with a 4-eps stop it fell back to bisection, up to 11.4 quadratures per
state.  Only numpy is needed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ModelError, SolverError
from .measures import ArmMeasure, MassMeasure

INF = math.inf
_TINY = float(np.finfo(float).tiny)  # the smallest normal double
#: Newton steps whose log(x_next / x) agree to this fraction make a linear phase.
_LINEAR = 0.1


@dataclass(frozen=True)
class SolverConfig:
    root_tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self):
        if not (math.isfinite(self.root_tol) and self.root_tol > 0.0):
            raise DomainError(
                f"root_tol must be finite and > 0, got {self.root_tol}"
            )
        if not isinstance(self.max_iter, int) or self.max_iter < 1:
            raise DomainError(
                f"max_iter must be an integer >= 1, got {self.max_iter!r}"
            )


DEFAULT_CONFIG = SolverConfig()


@dataclass
class SolutionState:
    """Solved per-time quantities; nan marks fields a model does not carry."""

    t: float
    ell: float
    alpha: float = math.nan
    beta: float = math.nan
    M: float = math.nan
    A: float = math.nan


def bisect_increasing(f, lo, hi, target, *, tol, max_iter=200):
    """Root of f(x)[0] = target for f(x) = (value, slope), value nondecreasing.

    The bracket is (lo, hi), 0 <= lo < hi.  Only interior points are
    evaluated, so f may be infinite or undefined at the endpoints.  The first
    point is the midpoint.  The next is the Newton step from the last point
    if the slope is finite and positive, the step lands inside the bracket,
    it moves at most half as far as the step before, and it does not scale x
    by nearly the same factor as the Newton step before it (Newton halves x
    at every step towards a root far below the first point of a convex map:
    a linear phase); otherwise it is the midpoint, geometric while
    hi > 2 lo (lo = 0 read as the smallest normal double, so a root at
    1e-300 costs about ten more points).  The solve stops once
    hi - lo <= tol * hi or a Newton step moves x by at most tol * x; a root
    below the smallest normal double is an error.
    """
    x = 0.5 * (lo + hi)
    last_move = INF
    last_log_ratio = math.nan  # log(x / previous x) after a Newton step
    for _ in range(max_iter):
        fx, d = f(x)
        if fx < target:
            lo = x
        else:
            hi = x
        if hi - lo <= tol * hi:
            return 0.5 * (lo + hi)
        if hi <= _TINY:
            raise SolverError(f"root underflows: it lies below {_TINY}")
        step = math.nan
        if math.isfinite(d) and d > 0.0:
            step = x - (fx - target) / d
            if abs(step - x) <= tol * x and lo <= step <= hi:
                return step
        log_ratio = math.nan
        if lo < step < hi and abs(step - x) <= 0.5 * last_move:
            log_ratio = math.log(step / x)
            if abs(log_ratio - last_log_ratio) <= _LINEAR * abs(last_log_ratio):
                log_ratio = math.nan
        if math.isnan(log_ratio):
            low = max(lo, _TINY)
            step = math.sqrt(low) * math.sqrt(hi) if hi > 2.0 * low else 0.5 * (lo + hi)
        last_move = abs(step - x)
        last_log_ratio = log_ratio
        x = step
    raise SolverError(
        f"root solver did not reach tol={tol} in {max_iter} iterations"
    )


# ---------------------------------------------------------------------------
# Gel times

def gel_time(measure) -> float:
    """Gelation time for the classic (MassMeasure) or arms (ArmMeasure) models."""
    if isinstance(measure, MassMeasure):
        K = measure.moments().K
        return 0.0 if math.isinf(K) else 1.0 / K
    if isinstance(measure, ArmMeasure):
        A0, K = measure.A0, measure.K
        if math.isinf(K):
            return 0.0
        if K <= A0:
            return INF
        return 1.0 / (K - A0)
    raise DomainError(f"unsupported measure type {type(measure).__name__}")


def check_time(t: float) -> None:
    """Reject a time that is nan or negative; +inf passes."""
    if not t >= 0.0:
        raise DomainError(f"time must be >= 0, got {t}")


# ---------------------------------------------------------------------------
# Classic critical points

def ell_smolu(t, measure: MassMeasure, config=DEFAULT_CONFIG):
    """The Smoluchowski characteristic root: 1 pre-gel, else x g0'(x) = 1/t."""
    check_time(t)
    if t <= gel_time(measure):
        return 1.0

    def f(x):
        g1 = measure.g0(x, 1)
        return x * g1, g1 + x * measure.g0(x, 2)

    return bisect_increasing(
        f, 0.0, 1.0, 1.0 / t, tol=config.root_tol, max_iter=config.max_iter
    )


def l_flory(t, measure: MassMeasure, config=DEFAULT_CONFIG):
    """Smallest root of x = e^{-t (M0 - g0(x))}; equals 1 pre-gel."""
    mom = measure.moments()
    if math.isinf(mom.M0):
        raise ModelError("Flory's equation requires finite initial mass")
    check_time(t)
    if t <= gel_time(measure):
        return 1.0
    hi = ell_smolu(t, measure, config)

    # x - image(x) increases on (0, hi): its slope 1 - t g0'(x) image(x) falls
    # to 1 - 1/phi(hi) > 0 at the peak hi of phi(x) = x / image(x).  It is
    # nearly linear near 0, where Newton lands close to a small root at once.
    def f(x):
        image = math.exp(-t * (mom.M0 - measure.g0(x)))  # <= 1: cannot overflow
        return x - image, 1.0 - t * measure.g0(x, 1) * image

    return bisect_increasing(
        f, 0.0, hi, 0.0, tol=config.root_tol, max_iter=config.max_iter
    )


# ---------------------------------------------------------------------------
# Arms model: the characteristic flow

def _tangency_coeffs(measure: ArmMeasure):
    """Power-series coefficients in x of D(x) = x k0'(x, 1) - k0(x, 1) and k0''(x, 1).

    D = sum a (a-2) c0(a, m) x^(a-1) is written out term by term, so only
    the a = 1 term is subtracted.  D' = x k0'' >= 0 and D(1) = K - A0.
    """
    n = max(a for a, _ in measure.weights) + 1
    d, xx = np.zeros(n), np.zeros(n)
    for (a, _), w in measure.weights.items():
        if a >= 1:
            d[a - 1] += a * (a - 2) * w
        if a >= 3:
            xx[a - 3] += a * (a - 1) * (a - 2) * w
    return d, xx


#: 12-point Gauss-Legendre rule for each panel of t(ell), moved to [0, 1].
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS
#: Panels of t(ell) lie between the dyadic points c + (1 - c) 2^-k, k <= _PANELS.
_PANELS = 60
_NEWTON_ITER = 100
_EPS = float(np.finfo(float).eps)


class ArmsFlow:
    """The characteristic ell_t of the limited-aggregation model with inert gel.

    The model's map is phi_t(x) = alpha_t (x - beta_t k0(x, 1)).  Pre-gel
    ell = 1, alpha = 1 + A0 t and beta = t / (1 + A0 t).  Past the gel time
    phi_t peaks at ell with value 1, and alpha' = k0(ell), so

        d/dx phi_t(ell) = 0   gives  beta  = 1 / k0'(ell)
        phi_t(ell) = 1        gives  alpha = 1 / G(ell),  G = x - k0/k0'
        G' = k0 k0'' / k0'^2  gives  ell'  = -D(ell)^2 / k0''(ell),  D = x k0' - k0

    Read backwards, the last line is an explicit integral for the time at
    which ell_t passes x:

        t(x) = T_gel + int_x^1 k0''(s) / D(s)^2 ds.

    D is convex and increasing with its root at c = ell_inf, so t(x) falls
    from +inf at c to T_gel at 1.  The integral is summed with 12-point
    Gauss-Legendre over the panels between x_k = c + (1 - c) 2^-k, which
    keeps each panel as wide as its distance to the pole at c.  The running
    sums t(x_k) are built on demand, always in the same order, and kept.
    ell_t is then a Newton solve of t(ell) = t, with slope -k0''/D^2, inside
    the panel that brackets t, falling back to bisection when a step leaves
    the bracket.  Past the last panel ell_t = c to double precision, where
    G(c) = 0 and alpha_t is reported as inf.  A state is a pure function of
    t, whatever the order of the queries.
    """

    def __init__(self, measure: ArmMeasure):
        if math.isinf(measure.A0):
            raise ModelError("arms flow requires A0 < +inf")
        self.measure = measure
        self.t_gel = gel_time(measure)
        self._c = None  # ell_inf, found by the first post-gel query
        self._edges = None  # x_0 = 1 > x_1 > ... down to the last panel
        self._times = [self.t_gel]  # t(x_k), one per panel summed so far

    def _integrand(self, x: np.ndarray):
        """(D, k0''/D^2) at the points x."""
        powers = x[:, None] ** self._exponents
        d = powers @ self._d
        with np.errstate(divide="ignore", invalid="ignore"):  # D = 0 at c
            return d, (powers @ self._xx) / (d * d)

    def _quad(self, lo: float, hi: float, at: float):
        """(int_lo^hi k0''/D^2 dx, k0''/D^2 at `at`), from one evaluation."""
        x = np.empty(_GL_NODES.size + 1)
        np.multiply(_GL_NODES, hi - lo, out=x[:-1])
        x[:-1] += lo
        x[-1] = at
        f = self._integrand(x)[1]
        return (hi - lo) * float(f[:-1] @ _GL_WEIGHTS), float(f[-1])

    def _panel(self, t: float):
        """k with t(x_k) < t <= t(x_(k+1)), summing panels as needed; None past the last."""
        if self._c is None:
            c = ell_infinity(self.measure)
            self._d, self._xx = _tangency_coeffs(self.measure)
            self._exponents = np.arange(float(self._d.size))
            x = c + (1.0 - c) * 2.0 ** -np.arange(_PANELS + 1.0)
            d, f = self._integrand(x)
            # the points that rounding merges with c or with each other end the panels
            ok = (np.diff(x, prepend=2.0) < 0.0) & (x > c) & (d > 0.0) & np.isfinite(f)
            self._edges = x[: x.size if ok.all() else int(np.argmin(ok))].tolist()
            self._c = c
        times, edges = self._times, self._edges
        while times[-1] < t and len(times) < len(edges):
            k = len(times) - 1
            times.append(times[-1] + self._quad(edges[k + 1], edges[k], edges[k])[0])
        if times[-1] < t:
            return None
        return int(np.searchsorted(times, t)) - 1

    def _ell(self, t: float) -> float:
        k = self._panel(t)
        if k is None:
            return self._c
        c, hi, lo = self._c, self._edges[k], self._edges[k + 1]
        t_hi, t_lo = self._times[k], self._times[k + 1]
        # start where t is linear in 1/(x - c), as it is near a simple root of D
        s_hi, s_lo = 1.0 / (hi - c), 1.0 / (lo - c)
        x = c + 1.0 / (s_hi + (t - t_hi) / (t_lo - t_hi) * (s_lo - s_hi))
        x_top = hi
        for _ in range(_NEWTON_ITER):
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
            part, slope = self._quad(x, x_top, x)
            excess = t_hi + part - t  # t(x) - t, decreasing in x
            if excess > 0.0:
                lo = x
            elif excess < 0.0:
                hi = x
            else:
                return x
            x_next = x + excess / slope
            if abs(x_next - x) <= 4.0 * _EPS * x or hi - lo <= 4.0 * _EPS * hi:
                return x_next if lo <= x_next <= hi else x
            x = x_next
        raise SolverError(f"arms flow: no convergence at t={t}")

    def state(self, t: float) -> SolutionState:
        if not 0.0 <= t < INF:
            raise DomainError(f"time must be finite and >= 0, got {t}")
        A0 = self.measure.A0
        if t <= self.t_gel:
            return SolutionState(
                t=t, ell=1.0, alpha=1.0 + A0 * t, beta=t / (1.0 + A0 * t)
            )
        ell = self._ell(t)
        kp = self.measure.k0(ell, 1.0, 1)
        d = float(ell**self._exponents @ self._d)
        # G(ell) = D(ell)/kp is 0 to rounding once ell has reached c
        alpha = kp / d if d > 0.0 else INF
        beta = 1.0 / kp if kp > 0.0 else INF
        return SolutionState(t=t, ell=ell, alpha=alpha, beta=beta)


def ell_infinity(measure: ArmMeasure, config=DEFAULT_CONFIG) -> float:
    """Long-time limit of ell_t: the root c of D(x) = x k0'(x) - k0(x); 1 without gelation.

    D increases from D(0) = -mu(1) to D(1) = K - A0 > 0 with slope D' = x k0''.
    With mu(1) = 0, k0(0) = 0 and c = 0 exactly.
    """
    if math.isinf(gel_time(measure)):
        return 1.0
    if measure.k0(0.0, 1.0) == 0.0:
        return 0.0
    d, xx = _tangency_coeffs(measure)
    exponents = np.arange(d.size)

    def f(x):
        powers = x**exponents
        return float(powers @ d), x * float(powers @ xx)

    return bisect_increasing(
        f, 0.0, 1.0, 0.0, tol=config.root_tol, max_iter=config.max_iter
    )
