"""Root-finding and quadrature behind the method of characteristics.

Every solved quantity is the one crossing of a target on its bracket, and
`bisect_increasing` is the one solver for all of them: each caller returns
the value and the slope together, the solver takes Newton steps from the last
point when they stay inside the bracket, bisection otherwise, and stops
at 1e-12 relative to the size of the root, the one tolerance of every root
the library solves; a polynomial increasing on [0, 1] gives it value and
slope from Horner tuples (`polynomial_root`: the root c of D, and the Flory
arms ell_t and ell_inf, the roots of Q = 1/t and Q = 0).  The arms flow
inverts an explicit integral t(ell) summed by Gauss-Legendre quadrature with
its own Newton loop.  It keeps that loop for its secant start between the
panel ends, not because value and slope come from one quadrature: folded into
`bisect_increasing` (in x or in 1/(x - c)) it took 4.7 quadratures per state
instead of 3.5 on a 2-core box (124 against 94 us, and the arms-postgel
benchmark's wall time rose 9 %), and with a 4-eps stop it fell back to
bisection, up to 11.4 quadratures per state.  Everything here is scalar Python
and loads no numpy.  The arms flow sums its integrand k0''/D^2 at 13 points
per quadrature, two polynomials evaluated by Horner in plain floats: on arrays
that small numpy's per-call cost outweighed the arithmetic, and a quadrature
took 10.8 us where the plain loop takes 5.2 us (2-core box, best of 5 runs).
"""
from __future__ import annotations

import bisect
import math
import sys
from typing import NamedTuple

from .errors import DomainError, ModelError, SolverError
from .measures import ArmMeasure, MassMeasure

INF = math.inf
_TINY = sys.float_info.min  # the smallest normal double
#: Newton steps whose log(x_next / x) agree to this fraction make a linear phase.
_LINEAR = 0.1


class SolutionState(NamedTuple):
    """Solved per-time quantities, shared by the queries at t; nan marks fields not carried.

    Immutable, so a state a model keeps cannot change under a later query.  A
    named tuple rather than a frozen dataclass: it builds as fast as a plain
    one, where a frozen one took 0.85 us more per state on a 2-core box.
    """

    t: float
    ell: float
    alpha: float = math.nan
    beta: float = math.nan
    M: float = math.nan
    A: float = math.nan


def bisect_increasing(f, lo, hi, target, *, tol=1e-12, max_iter=200):
    """Root of f(x)[0] = target for f(x) = (value, slope).

    The bracket is (lo, hi), 0 <= lo < hi, and the value is below target on
    (lo, root) and at or above it on (root, hi), as for a nondecreasing value;
    the solver only compares it with target.  Only interior points are
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
    below the smallest normal double is an error.  The library's callers
    keep the default tol; the keywords are there to test the stop rule.
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
        if K <= A0:
            return INF
        return 1.0 / (K - A0)
    raise DomainError(f"unsupported measure type {type(measure).__name__}")


def check_time(t: float) -> None:
    """Reject a time that is nan, negative or +inf; an arms model's `limit()` is t = inf."""
    if not 0.0 <= t < INF:
        raise DomainError(f"time must be finite and >= 0, got {t}")


# ---------------------------------------------------------------------------
# Classic critical points

def ell_smolu(t, measure: MassMeasure):
    """The Smoluchowski characteristic root: 1 pre-gel, else x g0'(x) = 1/t."""
    check_time(t)
    if t <= gel_time(measure):
        return 1.0

    def f(x):
        g1 = measure.g0(x, 1)
        return x * g1, g1 + x * measure.g0(x, 2)

    return bisect_increasing(f, 0.0, 1.0, 1.0 / t)


def l_flory(t, measure: MassMeasure):
    """Smallest root of x = e^{-t (M0 - g0(x))}: in (0, 1) past T_gel, 1 pre-gel."""
    mom = measure.moments()
    if math.isinf(mom.M0):
        raise ModelError("Flory's equation requires finite initial mass")
    check_time(t)
    if t <= gel_time(measure):
        return 1.0

    # f(x) = x - image(x) is concave, as g0 is convex, with f(0+) < 0 and f(ell_t)
    # = f(1) = 0: f < 0 on (0, ell_t) and f > 0 on (ell_t, 1).  It is nearly
    # linear near 0, where Newton lands close to a small root at once.
    def f(x):
        image = math.exp(-t * (mom.M0 - measure.g0(x)))  # <= 1: cannot overflow
        return x - image, 1.0 - t * measure.g0(x, 1) * image

    return bisect_increasing(f, 0.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Arms model: the characteristic flow

def arms_polynomials(measure: ArmMeasure):
    """Horner tuples of D(x) = x k0'(x, 1) - k0(x, 1) and of k0''(x, 1).

    Each has the highest power of x first and its zero top coefficients
    dropped: on laws on {0..3}, k0'' is one constant.  D = sum a (a-2) c0(a,
    m) x^(a-1) is written out term by term, so only the a = 1 term is
    subtracted.  D' = x k0'' >= 0 and D(1) = K - A0.
    """
    n = max(a for a, _ in measure.weights) + 1
    d, xx = [0.0] * n, [0.0] * n
    for (a, _), w in measure.weights.items():
        if a >= 1:
            d[a - 1] += a * (a - 2) * w
        if a >= 3:
            xx[a - 3] += a * (a - 1) * (a - 2) * w
    return _highest_first(d), _highest_first(xx)


def flory_polynomials(measure: ArmMeasure):
    """Horner tuples, as in `arms_polynomials`, of Q and Q' for `FloryArms`.

    A0 x - k0(x, 1) = (1 - x) Q(x), Q(x) = -mu(1) + sum_(j>=1) x^j
    sum_(a>=j+2) a mu(a) with mu(a) = sum_m c0(a, m): Q increases from Q(0) =
    D(0) to Q(1) = D(1).  On laws on {0..3}, Q is linear.
    """
    q = [0.0] * (max(a for a, _ in measure.weights) + 1)
    for (a, _), w in measure.weights.items():
        if a == 1:
            q[0] -= w  # -mu(1)
        for j in range(1, a - 1):
            q[j] += a * w
    return tuple(map(_highest_first, (q, [j * b for j, b in enumerate(q)][1:])))


def _highest_first(coeffs: list) -> tuple:
    """Power-series coefficients, lowest power first, as a Horner tuple without zero top."""
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    return tuple(reversed(coeffs))


def _horner(coeffs: tuple, x: float) -> float:
    """The polynomial with `coeffs`, highest power first, at x."""
    total = 0.0
    for a in coeffs:
        total = total * x + a
    return total


#: 12-point Gauss-Legendre rule for each panel of t(ell), moved to [0, 1]:
#: 0.5 (x + 1) and 0.5 w of numpy.polynomial.legendre.leggauss(12), written
#: out so that the flow runs no numpy.
_GL_NODES = (
    0.009219682876640378, 0.0479413718147626, 0.11504866290284765,
    0.20634102285669126, 0.31608425050090994, 0.43738329574426554,
    0.5626167042557344, 0.6839157494990901, 0.7936589771433087,
    0.8849513370971523, 0.9520586281852375, 0.9907803171233596,
)
_GL_WEIGHTS = (
    0.023587668193255706, 0.05346966299765953, 0.08003916427167321,
    0.10158371336153287, 0.1167462682691773, 0.12457352290670134,
    0.12457352290670134, 0.1167462682691773, 0.10158371336153287,
    0.08003916427167321, 0.05346966299765953, 0.023587668193255706,
)
_GL_RULE = tuple(zip(_GL_NODES, _GL_WEIGHTS))
#: Panels of t(ell) lie between the dyadic points c + (1 - c) 2^-k, k <= _PANELS.
_PANELS = 60
_NEWTON_ITER = 100
_EPS = sys.float_info.epsilon


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
    keeps each panel as wide as its distance to the pole at c.  Edge x_(k+1)
    is checked when panel k is first needed: it must lie below x_k and above
    c, with D > 0 and a finite integrand, since rounding can merge the
    points with c or with each other; the first edge that fails ends the
    panels.  The edges depend on k alone and the running sums t(x_k) are
    built in the same order and kept, so a state is a pure function of t,
    whatever the order of the queries.  ell_t is then a Newton solve of
    t(ell) = t, with slope -k0''/D^2, inside the panel that brackets t,
    falling back to bisection when a step leaves the bracket.  Past the last
    panel ell_t = c to double precision, where G(c) = 0 and alpha_t is
    reported as inf.  A state carries the sol mass and arm count too
    (`arms_state`): it is the gel-inert arms model's state.  D and k0'' are
    Horner sums in plain floats.
    """

    def __init__(self, measure: ArmMeasure):
        self.measure = measure
        self.t_gel = gel_time(measure)
        self._c = None  # ell_inf, found by the first post-gel query
        self._edges = []  # x_0 = 1 > x_1 > ... as far as they have been checked
        self._last_edge = _PANELS  # lowered below the first edge that fails the check
        self._times = [self.t_gel]  # t(x_k), one per panel summed so far

    def _integrand(self, x: float):
        """(D, k0''/D^2) at x; the second is not finite where D^2 is 0 (at c, or underflowed)."""
        # `_horner` written out: its 26 calls would add a sixth to a quadrature
        d = k = 0.0
        for a in self._d:
            d = d * x + a
        for a in self._xx:
            k = k * x + a
        dd = d * d
        return d, k / dd if dd else k * INF

    def _quad(self, lo: float, hi: float, at: float):
        """(int_lo^hi k0''/D^2 dx, k0''/D^2 at `at`)."""
        integrand = self._integrand
        width = hi - lo
        total = 0.0
        for node, weight in _GL_RULE:
            total += weight * integrand(node * width + lo)[1]
        return width * total, integrand(at)[1]

    def _edge(self, k: int) -> bool:
        """Check edge x_k and keep it; False for it and every later edge once one fails."""
        if k > self._last_edge:
            return False
        c, edges = self._c, self._edges
        x = c + (1.0 - c) * 2.0**-k
        d, f = self._integrand(x)
        if x < (edges[-1] if edges else 2.0) and x > c and d > 0.0 and math.isfinite(f):
            edges.append(x)
            return True
        self._last_edge = k - 1
        return False

    def _panel(self, t: float):
        """k with t(x_k) < t <= t(x_(k+1)), summing panels as needed; None past the last."""
        if self._c is None:
            self._d, self._xx = arms_polynomials(self.measure)
            self._c = polynomial_root(self._d, self._xx + (0.0,), 0.0)
            self._edge(0)
        times, edges = self._times, self._edges
        while times[-1] < t:
            k = len(times) - 1
            if len(edges) < k + 2 and not self._edge(k + 1):
                return None
            times.append(times[-1] + self._quad(edges[k + 1], edges[k], edges[k])[0])
        return bisect.bisect_left(times, t) - 1

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
        check_time(t)
        A0 = self.measure.A0
        if t <= self.t_gel:
            return arms_state(self.measure, t, 1.0, 1.0 + A0 * t, t / (1.0 + A0 * t))
        ell = self._ell(t)
        kp = self.measure.k0(ell, 1.0, 1)
        d = _horner(self._d, ell)
        # G(ell) = D(ell)/kp is 0 to rounding once ell has reached c
        alpha = kp / d if d > 0.0 else INF
        beta = 1.0 / kp if kp > 0.0 else INF
        return arms_state(self.measure, t, ell, alpha, beta)


def arms_state(measure: ArmMeasure, t, ell, alpha, beta) -> SolutionState:
    """An arms model's state at t: the sol mass K0(ell) and the arm count k0(ell, 1)/alpha.

    The mass is nan on general arm data, which has no closed form for it.
    """
    # t, ell, alpha, beta, M, A by position
    return SolutionState(
        t, ell, alpha, beta, measure.k0_mass(ell), measure.k0(ell, 1.0) / alpha
    )


def ell_infinity(measure: ArmMeasure) -> float:
    """Long-time limit of ell_t: the root c of D(x) = x k0'(x) - k0(x); 1 without gelation."""
    if math.isinf(gel_time(measure)):
        return 1.0
    d, xx = arms_polynomials(measure)
    return polynomial_root(d, xx + (0.0,), 0.0)  # D' = x k0''


def polynomial_root(p: tuple, dp: tuple, target: float) -> float:
    """The root of p(x) = target in [0, 1) from the Horner tuples of p and p'.

    p increases on [0, 1] with p(0) <= target < p(1).  At p(0) == target the
    root is 0 itself, the end of the bracket, which bisection only nears: c =
    0 exactly for D, and the Flory arms limit is 0, when mu(1) = 0.
    """
    if p[-1] == target:  # p(0)
        return 0.0

    def f(x):
        return _horner(p, x), _horner(dp, x)

    return bisect_increasing(f, 0.0, 1.0, target)
