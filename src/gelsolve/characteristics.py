"""Root-finding and ODE machinery behind the method of characteristics.

Every bracketed function here is monotone on its bracket, so plain bisection
is guaranteed to converge; speed is traded for that robustness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ModelError, SolverError
from .measures import ArmMeasure, MassMeasure

INF = math.inf


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
    """Root of f(x) = target for f nondecreasing on (lo, hi).

    Only interior points are evaluated, so f may be infinite or undefined at
    the endpoints as long as the root is bracketed.
    """
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    raise SolverError(
        f"bisection did not reach tol={tol} in {max_iter} iterations"
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


# ---------------------------------------------------------------------------
# Classic critical points

def ell_smolu(t, measure: MassMeasure, config=DEFAULT_CONFIG):
    """The Smoluchowski characteristic root: 1 pre-gel, else x g0'(x) = 1/t."""
    if t < 0.0:
        raise DomainError("time must be >= 0")
    if t <= gel_time(measure):
        return 1.0
    return bisect_increasing(
        lambda x: x * measure.g0(x, 1),
        0.0,
        1.0,
        1.0 / t,
        tol=config.root_tol,
        max_iter=config.max_iter,
    )


def l_flory(t, measure: MassMeasure, config=DEFAULT_CONFIG):
    """Smallest root of x = e^{-t (M0 - g0(x))}; equals 1 pre-gel."""
    mom = measure.moments()
    if math.isinf(mom.M0):
        raise ModelError("Flory's equation requires finite initial mass")
    if t < 0.0:
        raise DomainError("time must be >= 0")
    if t <= gel_time(measure):
        return 1.0
    hi = ell_smolu(t, measure, config)
    # phi(x) = x e^{t(M0 - g0(x))} increases from 0 to its peak phi(hi) > 1 on [0, hi]
    root = bisect_increasing(
        lambda x: x * math.exp(t * (mom.M0 - measure.g0(x))),
        0.0,
        hi,
        1.0,
        tol=config.root_tol,
        max_iter=config.max_iter,
    )
    if root < 1e-3:
        # Tiny roots need relative accuracy; refine the fixed point in log
        # space, where the iteration is a strong contraction (t l g0'(l) << 1).
        y = math.log(root) if root > 0.0 else -t * mom.M0
        for _ in range(200):
            y_next = -t * (mom.M0 - measure.g0(math.exp(y)))
            if abs(y_next - y) <= 1e-14 * abs(y_next):
                y = y_next
                break
            y = y_next
        root = math.exp(y)
    return root


# ---------------------------------------------------------------------------
# Arms model: the G/H pair

def G_map(measure: ArmMeasure, x: float) -> float:
    """G(x) = x - k0(x,1)/k0'(x,1); strictly increasing when k0'' > 0."""
    if measure.k0_xx(1.0, 1.0) == 0.0:
        raise DomainError("G is degenerate when k0'' vanishes identically (no gelation)")
    if x == 1.0:
        # monotone limit G(1^-) = (K - A0)/K
        return (measure.K - measure.A0) / measure.K
    if not 0.0 <= x < 1.0:
        raise DomainError(f"x={x} outside [0, 1)")
    kp = measure.k0(x, 1.0, partial="x")
    if kp == 0.0:
        raise DomainError(f"k0'({x}, 1) = 0: G undefined here")
    return x - measure.k0(x, 1.0) / kp


def _G_lower_limit(measure: ArmMeasure) -> float:
    kp0 = measure.k0(0.0, 1.0, partial="x")
    if kp0 == 0.0:
        return -INF
    return -measure.k0(0.0, 1.0) / kp0


def H_map(measure: ArmMeasure, u: float, config=DEFAULT_CONFIG) -> float:
    """Right inverse of G on [G(0), G(1)); errors outside that window."""
    g1 = (measure.K - measure.A0) / measure.K
    if u >= g1:
        raise DomainError(f"u={u} >= G(1) = {g1}: outside the domain of H")
    if u < _G_lower_limit(measure):
        raise DomainError(f"u={u} < G(0): outside the domain of H")
    return _h_of_u(measure, u, config)


def _h_of_u(measure: ArmMeasure, u: float, config=DEFAULT_CONFIG) -> float:
    """Like H_map but clamps u >= G(1^-) to the limit value 1 (flow-internal)."""
    if u >= (measure.K - measure.A0) / measure.K:
        return 1.0
    return bisect_increasing(
        lambda x: G_map(measure, x),
        0.0,
        1.0,
        u,
        tol=config.root_tol,
        max_iter=config.max_iter,
    )


# ---------------------------------------------------------------------------
# Arms model: the characteristic flow

#: DOP853 tolerances of the ell flow.  The closed-form concentrations raise
#: beta to the power m - 1 and 1/alpha to the power a, so ell has to be far
#: more accurate than the products are asked to be.
FLOW_RTOL = 1e-13
FLOW_ATOL = 1e-15


class ArmsFlow:
    """The characteristic ell_t of the limited-aggregation model with inert gel.

    The model's map is phi_t(x) = alpha_t (x - beta_t k0(x, 1)).  Pre-gel
    ell = 1, alpha = 1 + A0 t and beta = t / (1 + A0 t).  Past the gel time
    phi_t peaks at ell with value 1, and alpha' = k0(ell), so

        d/dx phi_t(ell) = 0   gives  beta  = 1 / k0'(ell)
        phi_t(ell) = 1        gives  alpha = 1 / G(ell),  G = x - k0/k0'
        G' = k0 k0'' / k0'^2  gives  ell'  = -(ell k0'(ell) - k0(ell))^2 / k0''(ell)

    Only ell is integrated, from ell(T_gel) = 1, by one DOP853 stepper per
    flow.  The stepper has no end time: it steps on until it passes the latest
    time asked for and keeps every step's dense output, so each stretch of
    time is integrated once and a state does not depend on the order of the
    queries.
    """

    def __init__(self, measure: ArmMeasure):
        if math.isinf(measure.A0):
            raise ModelError("arms flow requires A0 < +inf")
        self.measure = measure
        self.t_gel = gel_time(measure)
        self._solver = None  # started by the first post-gel query
        self._step_ends: list[float] = []
        self._step_dense = []

    def _rhs(self, t, y):
        del t  # autonomous
        m = self.measure
        x = min(max(float(y[0]), 0.0), 1.0)  # a stage may land just outside [0, 1]
        kp = m.k0(x, 1.0, partial="x")
        return [-((x * kp - m.k0(x, 1.0)) ** 2) / m.k0_xx(x, 1.0)]

    def _ell(self, t: float) -> float:
        if self._solver is None:
            from scipy.integrate import DOP853

            self._solver = DOP853(
                self._rhs, self.t_gel, [1.0], math.inf,
                rtol=FLOW_RTOL, atol=FLOW_ATOL,
            )
        solver = self._solver
        while solver.t < t:
            message = solver.step()
            if solver.status == "failed":
                raise SolverError(f"arms flow failed at t={solver.t}: {message}")
            self._step_ends.append(solver.t)
            self._step_dense.append(solver.dense_output())
        i = int(np.searchsorted(self._step_ends, t))
        return min(max(float(self._step_dense[i](t)[0]), 0.0), 1.0)

    def state(self, t: float) -> SolutionState:
        if not 0.0 <= t < INF:
            raise DomainError(f"time must be finite and >= 0, got {t}")
        A0 = self.measure.A0
        if t <= self.t_gel:
            return SolutionState(
                t=t, ell=1.0, alpha=1.0 + A0 * t, beta=t / (1.0 + A0 * t)
            )
        ell = self._ell(t)
        kp = self.measure.k0(ell, 1.0, partial="x")
        alpha = kp / (ell * kp - self.measure.k0(ell, 1.0))
        return SolutionState(t=t, ell=ell, alpha=alpha, beta=1.0 / kp)


def alpha_via_gamma(measure: ArmMeasure, t: float, config=DEFAULT_CONFIG) -> float:
    """Cross-check for alpha_t using the quadrature form of its ODE.

    Inverts Gamma(alpha) = Gamma(alpha_gel) + (t - T_gel) with
    Gamma'(r) = 1/k0(H(1/r), 1); mathematically identical to the ODE route.
    """
    from scipy.integrate import quad

    t_gel = gel_time(measure)
    A0 = measure.A0
    if t <= t_gel:
        return 1.0 + A0 * t
    a_gel = 1.0 + A0 * t_gel

    def integrand(r):
        return 1.0 / measure.k0(_h_of_u(measure, 1.0 / r, config), 1.0)

    target = t - t_gel

    def elapsed(alpha):
        val, _ = quad(integrand, a_gel, alpha, limit=200)
        return val

    hi = a_gel + A0 * (t - t_gel)  # dalpha/dt <= A0
    return bisect_increasing(
        elapsed, a_gel, hi, target, tol=config.root_tol * max(1.0, hi),
        max_iter=config.max_iter,
    )


def ell_infinity(measure: ArmMeasure, config=DEFAULT_CONFIG) -> float:
    """Long-time limit of ell_t: c = H(0), where k0'(c) = k0(c)/c; 1 without gelation.

    With mu(1) = 0, k0(0) = 0 and x k0'(x) - k0(x) vanishes at c = 0 itself,
    the end of the bracket, which bisection only nears.
    """
    if math.isinf(gel_time(measure)):
        return 1.0
    if measure.k0(0.0, 1.0) == 0.0:
        return 0.0
    return H_map(measure, 0.0, config)


def beta_infinity(measure: ArmMeasure, config=DEFAULT_CONFIG) -> float:
    """Long-time limit of beta_t = 1/k0'(ell_t), that is c/k0(c) with c = ell_inf.

    Without gelation beta_t = t/(1 + A0 t) tends to 1/A0 = 1/k0(1) as well.
    At c = 0 the ratio is 0/0 and its limit is 1/k0'(0), inf when mu(2) = 0 too.
    """
    c = ell_infinity(measure, config)
    if c == 0.0:
        kp = measure.k0(0.0, 1.0, partial="x")
        return 1.0 / kp if kp > 0.0 else INF
    return c / measure.k0(c, 1.0)
