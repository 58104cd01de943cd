"""Root-finding and quadrature behind the method of characteristics.

Every solved quantity is the one crossing of a target on its bracket, and
`bisect_increasing` is the one solver for all of them: each caller returns
the value and the slope together, the solver takes Newton steps from the last
point when they stay inside the bracket, bisection otherwise, and stops
at 1e-12 relative to the size of the root, the one tolerance of every root
the library solves; a polynomial increasing on [0, 1] gives it value and
slope from Horner tuples (`polynomial_root`: the root c of D, and the Flory
arms ell_t and ell_inf, the roots of Q = 1/t and Q = 0).  The arms flow
inverts an explicit integral t(u), u = ell - c, summed by Gauss-Legendre
quadrature, with its own Newton loop for its secant start between the panel
ends: folded into `bisect_increasing` (in x or in 1/(x - c)) it took 4.7
quadratures per state instead of 3.5 on a 2-core box (124 against 94 us;
arms-postgel wall time +9 %), and with a 4-eps stop up to 11.4.  Everything
here is scalar Python and loads no numpy: the flow's integrand k0''/D^2 is
two Horner sums in plain floats, and on 12-point arrays numpy's per-call cost
outweighed the arithmetic (a quadrature took 10.8 us where the plain loop
takes 5.2 us; 2-core box, best of 5 runs).
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
_ROOT_TOL = 1e-12  # the relative stop of every root `bisect_increasing` solves
_ROOT_MAX_ITER = 200  # the points it evaluates before it gives up


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


def bisect_increasing(f, lo, hi, target):
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
    hi - lo <= tol * hi or a Newton step moves x by at most tol * x, tol =
    `_ROOT_TOL`; a root below the smallest normal double is an error.
    """
    x = 0.5 * (lo + hi)
    last_move = INF
    last_log_ratio = math.nan  # log(x / previous x) after a Newton step
    for _ in range(_ROOT_MAX_ITER):
        fx, d = f(x)
        if fx < target:
            lo = x
        else:
            hi = x
        if hi - lo <= _ROOT_TOL * hi:
            return 0.5 * (lo + hi)
        if hi <= _TINY:
            raise SolverError(f"root underflows: it lies below {_TINY}")
        step = math.nan
        if math.isfinite(d) and d > 0.0:
            step = x - (fx - target) / d
            if abs(step - x) <= _ROOT_TOL * x and lo <= step <= hi:
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
        f"root solver did not reach tol={_ROOT_TOL} in {_ROOT_MAX_ITER} iterations"
    )


# ---------------------------------------------------------------------------
# Gel times

def gel_time(measure) -> float:
    """Gelation time for the classic (MassMeasure) or arms (ArmMeasure) models."""
    if isinstance(measure, MassMeasure):
        K = measure.moments().K
        return 0.0 if math.isinf(K) else 1.0 / K
    if isinstance(measure, ArmMeasure):
        # 1/D(1), D(1) = sum a (a - 2) mu(a) with mu(1) taken last, not K - A0
        mu = measure.polynomial()[::-1]  # K0: mu(a) at index a, the top a >= 1 as A0 > 0
        d1 = sum(a * (a - 2) * w for a, w in enumerate(mu) if a >= 3) - mu[1]
        return 1.0 / d1 if d1 > 0.0 else INF
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

def derivative(p: tuple, k: int) -> tuple:
    """The Horner tuple of the k-th derivative of the polynomial with Horner tuple p."""
    return tuple(math.perm(len(p) - 1 - i, k) * b for i, b in enumerate(p[: len(p) - k]))


def arms_polynomials(p: tuple, c: float = 0.0):
    """Horner tuples in u of D = x k0' - k0 and of k0'' at c + u, from that of K0(c + u).

    With b_j the coefficients of K0(c + u), lowest first, u^j has the
    coefficient (j+1)(j-1) b_(j+1) + c (j+2)(j+1) b_(j+2) in D; k0 = K0', k0'
    and k0'' are its `derivative`s.  For c >= 0 every b_j of the shift is a
    sum of nonnegative terms, so only D(c), -mu(1) at c = 0, can be negative.
    """
    n = len(p) - 1  # the largest arm count; p[i] = b_(n-i)
    d = tuple((n - i) * (n - i - 2) * b + c * ((n - i + 1) * (n - i) * a)
              for i, (a, b) in enumerate(zip((0.0, *p), p[:n])))
    return d, derivative(p, 3)


def flory_polynomials(p: tuple):
    """Horner tuples of Q and Q' for `FloryArms` from p, the Horner tuple of K0.

    A0 x - k0(x, 1) = (1 - x) Q(x), Q(x) = -mu(1) + sum_(j>=1) x^j
    sum_(a>=j+2) a mu(a) with mu(a) = sum_m c0(a, m): Q increases from Q(0) =
    D(0) to Q(1) = D(1), its top coefficient n mu(n) > 0 for the largest arm
    count n, >= 3 with gelation.  On laws on {0..3}, Q is linear.
    """
    k = derivative(p, 1)[::-1]  # a mu(a) at index a - 1
    q = [0.0 - k[0]]  # -mu(1), and +0.0 without it
    for j in range(2, len(k)):
        q.append(0.0)
        for b in k[j:]:  # x^(j-1) gets sum_(a>j) a mu(a), summed from the lowest a
            q[-1] += b
    q = tuple(reversed(q))
    return q, derivative(q, 1)


def horner(coeffs: tuple, x: float) -> float:
    """The polynomial with `coeffs`, highest power first, at x."""
    total = 0.0
    for a in coeffs:
        total = total * x + a
    return total


#: 12-point Gauss-Legendre rule for each panel of t(u), moved to [0, 1]:
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
_NEWTON_ITER = 100
_EPS = sys.float_info.epsilon


def _taylor_shift(coeffs: tuple, c: float) -> tuple:
    """The Horner tuple of p(c + u) in u from that of p(x), by repeated synthetic division.

    Each pass divides by x - c and leaves its remainder, the next Taylor
    coefficient, last.  For c >= 0 it only adds products, so nonnegative
    coefficients of p above its constant give sums of nonnegative terms.
    """
    p = list(coeffs)
    for n in range(len(p) - 1, 0, -1):
        for i in range(1, n + 1):
            p[i] += c * p[i - 1]
    return tuple(p)


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
    from +inf at c to T_gel at 1.  The flow's variable is u = ell - c: the
    first post-gel query or `limit()` finds c from D in x and Taylor-shifts
    the law's polynomial K0 to c once (`_taylor_shift`), for D, k0'', k0' and
    k0 in u (`arms_polynomials`, `derivative`) with D(c) = 0.  Every other
    coefficient is a sum of nonnegative terms, so no Horner sum in u cancels
    or underflows early as u -> 0: alpha = k0'/D, beta = 1/k0', the arm count
    k0/alpha and the sol mass K0 keep full relative precision at every time.
    The integral is summed with 12-point Gauss-Legendre over the panels
    between u_k = (1 - c) 2^-k, exact in binary and each as wide as its
    distance to the pole at u = 0; the running sums t(u_k) are built in order
    as far as a query needs and kept, so a state is a pure function of t,
    whatever the order of the queries.  u_t is then a Newton solve of t(u) =
    t, with slope -k0''/D^2, inside the panel that brackets t, falling back
    to bisection when a step leaves the bracket.  Once u_k is no longer a
    normal double, past t of about 1e308 on laws with weights near 1, ell_t
    is reported as c and alpha_t, then 1e307 or more, as inf.  t_gel is the
    law's gel_time, which the model has solved.
    """

    def __init__(self, measure: ArmMeasure, t_gel: float):
        self.measure = measure
        self.t_gel = t_gel
        self._c = None  # ell_inf, found by the first post-gel query or limit
        self._times = [self.t_gel]  # t(u_k), one per panel summed so far

    def _shift(self) -> None:
        """Find c and read the Horner tuples in u of every field from K0(c + u), once."""
        if self._c is not None:
            return
        k0 = self.measure.polynomial()
        d, kpp = arms_polynomials(k0)
        self._c = c = polynomial_root(d, kpp + (0.0,), 0.0)  # D' = x k0''
        shifted = _taylor_shift(k0, c)
        d, self._kpp = arms_polynomials(shifted, c)
        self._d = d[:-1] + (0.0,)  # D(c) = 0
        self._kp, self._k0 = derivative(shifted, 2), derivative(shifted, 1)
        self._mass = self.measure.sol_mass(shifted)
        self._u0 = 1.0 - c

    def _polys(self, u: float):
        """(D(c + u), k0''(c + u)), both Horner sums in u."""
        # `horner` written out: its 26 calls would add a sixth to a quadrature
        d = k = 0.0
        for a in self._d:
            d = d * u + a
        for a in self._kpp:
            k = k * u + a
        return d, k

    def _quad(self, lo: float, hi: float) -> float:
        """int_lo^hi k0''/D^2 du, each term ordered so that nothing over- or underflows early."""
        polys = self._polys
        width = hi - lo
        total = 0.0
        for node, weight in _GL_RULE:
            d, k = polys(node * width + lo)
            total += weight * (width / d) * k / d
        return total

    def _u(self, t: float) -> float:
        """u_t = ell_t - c, or 0 once the panel ends are no longer normal doubles."""
        self._shift()
        times = self._times
        while times[-1] < t:
            hi = math.ldexp(self._u0, 1 - len(times))  # u_k, the next panel's top
            if hi < _TINY:
                return 0.0
            times.append(times[-1] + self._quad(0.5 * hi, hi))
        j = bisect.bisect_left(times, t) - 1  # t(u_j) < t <= t(u_(j+1))
        top = hi = math.ldexp(self._u0, -j)
        lo, t_hi = 0.5 * hi, times[j]
        # start where t is linear in 1/u, as it is near a simple root of D
        u = hi / (1.0 + (t - t_hi) / (times[j + 1] - t_hi))
        for _ in range(_NEWTON_ITER):
            if not lo < u < hi:
                u = 0.5 * (lo + hi)
            d, k = self._polys(u)
            excess = t_hi + self._quad(u, top) - t  # t(u) - t, decreasing in u
            if excess > 0.0:
                lo = u
            elif excess < 0.0:
                hi = u
            else:
                return u
            u_next = u + excess * d / k * d
            if abs(u_next - u) <= 4.0 * _EPS * u or hi - lo <= 4.0 * _EPS * hi:
                return u_next if lo <= u_next <= hi else u
            u = u_next
        raise SolverError(f"arms flow: no convergence at t={t}")

    def state(self, t: float) -> SolutionState:
        check_time(t)
        if t <= self.t_gel:
            return pre_gel_state(self.measure, t)
        u = self._u(t)
        kp = horner(self._kp, u)
        alpha = kp / horner(self._d, u) if u else INF  # u = 0: alpha_t >= 1e307
        beta = 1.0 / kp if kp > 0.0 else INF
        # t, ell, alpha, beta, M, A by position
        return SolutionState(t, self._c + u, alpha, beta, horner(self._mass, u),
                             horner(self._k0, u) / alpha)

    def limit(self) -> SolutionState:
        """The flow at u = 0: ell = c, beta = 1/k0'(c) (inf when it is 0) and M = K0(c)."""
        if math.isinf(self.t_gel):
            return pre_gel_state(self.measure, INF)
        self._shift()
        kp = self._kp[-1]  # the constant terms are the values at u = 0
        return SolutionState(INF, self._c, beta=1.0 / kp if kp > 0.0 else INF, M=self._mass[-1])


def pre_gel_state(measure: ArmMeasure, t: float) -> SolutionState:
    """An arms model's state at t <= T_gel, or without gelation its limit (t = inf): ell = 1."""
    (M,) = measure.sol_mass((measure.M0,))  # ell = 1: K0(1) = M0
    if t == INF:
        return SolutionState(t, 1.0, beta=1.0 / measure.A0, M=M)
    alpha = 1.0 + measure.A0 * t
    return SolutionState(t, 1.0, alpha, t / alpha, M, measure.A0 / alpha)


def polynomial_root(p: tuple, dp: tuple, target: float) -> float:
    """The root of p(x) = target in [0, 1) from the Horner tuples of p and p'.

    p increases on [0, 1] with p(0) <= target < p(1).  At p(0) == target the
    root is 0 itself, the end of the bracket, which bisection only nears: c =
    0 exactly for D, and the Flory arms limit is 0, when mu(1) = 0.
    """
    if p[-1] == target:  # p(0)
        return 0.0

    def f(x):
        return horner(p, x), horner(dp, x)

    return bisect_increasing(f, 0.0, 1.0, target)
