"""Per-model frontends: mass, arm counts, generating functions, moments.

Four models share one scheme: a characteristic map phi_t whose right inverse
h_t transports the initial generating function, so every solved quantity
reduces to root-finding on a monotone branch.
"""
from __future__ import annotations

import functools
import math

from .characteristics import (
    ArmsFlow,
    SolutionState,
    arms_state,
    bisect_increasing,
    check_time,
    ell_infinity,
    ell_smolu,
    flory_polynomials,
    gel_time,
    l_flory,
    polynomial_root,
)
from .errors import DomainError, ModelError
from .measures import ArmMeasure, MassMeasure

INF = math.inf


def _solved_once(solve):
    """Make `solve` a model's `state(t)` that keeps its last state; `solve` checks t."""

    @functools.wraps(solve)
    def state(self, t: float) -> SolutionState:
        if self._state is None or self._state.t != t:  # nan never matches
            self._state = solve(self, t)
        return self._state

    return state


class Model:
    """Common surface of the four solved models.

    The queries `mass`, `arms_count`, `phi`, `h_inverse`, `gen_fun` and
    `second_moment` at a time t take what they solve from `state(t)`, the
    one solve at t; a query that needs no solve calls `check_time` itself.
    """

    name = "model"
    is_arms = False

    def __init__(self, measure):
        self.measure = measure
        self.t_gel = gel_time(measure)
        self._state = None  # the last state solved

    def __repr__(self):
        return f"{type(self).__name__}({self.measure!r})"

    def state(self, t: float) -> SolutionState:
        """The solved state at t, kept for the next query (see `_solved_once`)."""
        raise NotImplementedError

    def arms_count(self, t: float) -> float:
        raise DomainError(f"{self.name} has no arm structure")


class _Classic(Model):
    """Shared plumbing for the models driven by a univariate g0.

    Both variants have the characteristic map
    phi_t(x) = (x/s) e^{t (g0(s) - g0(x))}, normalized by phi_t(s) = 1 without
    integrating the mass history; a subclass states the anchor s (`anchor`)
    and the root ell_t, the top of the branch that h_t inverts (`_root`).
    """

    def __init__(self, measure: MassMeasure):
        if not isinstance(measure, MassMeasure):
            raise ModelError(f"{type(self).__name__} needs a MassMeasure")
        super().__init__(measure)

    @_solved_once
    def state(self, t: float) -> SolutionState:
        ell = self._root(t)
        return SolutionState(t=t, ell=ell, M=self.measure.g0(ell))

    def mass(self, t: float) -> float:
        return self.state(t).M

    def _branch(self, t: float, s: float):
        """x -> (phi_t(x), d/dx phi_t(x)) for x > 0, anchored at s."""
        g0 = self.measure.g0
        g0_s = g0(s)

        def branch(x):
            e = math.exp(t * (g0_s - g0(x)))
            return (x / s) * e, e / s * (1.0 - t * x * g0(x, 1))

        return branch

    def phi(self, t: float, x: float, y: float = 1.0) -> float:
        s = self.anchor(t)
        if x == 0.0:
            return 0.0
        return self._branch(t, s)(x)[0]

    def h_inverse(self, t: float, x: float, y: float = 1.0) -> float:
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"x={x} outside [0, 1]")
        ell = self.state(t).ell
        if x == 0.0:
            return 0.0
        if x == 1.0:
            return ell
        return bisect_increasing(self._branch(t, self.anchor(t)), 0.0, ell, x)

    def gen_fun(self, t: float, x: float, y: float = 1.0) -> float:
        return self.measure.g0(self.h_inverse(t, x))


class Smoluchowski(_Classic):
    """Gel-inert coagulation with multiplicative kernel."""

    name = "smoluchowski"

    def _root(self, t: float) -> float:
        return ell_smolu(t, self.measure)

    def anchor(self, t: float) -> float:
        # s = ell_t, where the map peaks past the gel time
        return self.state(t).ell

    def second_moment(self, t: float) -> float:
        check_time(t)
        K = self.measure.moments().K
        if t >= self.t_gel:
            return INF
        return K / (1.0 - t * K)


class Flory(_Classic):
    """Gel-interacting coagulation with multiplicative kernel."""

    name = "flory"

    def __init__(self, measure: MassMeasure):
        super().__init__(measure)
        if math.isinf(measure.moments().M0):
            raise ModelError(
                "gel-interacting model needs finite initial mass"
            )

    def _root(self, t: float) -> float:
        return l_flory(t, self.measure)

    def anchor(self, t: float) -> float:
        # s = 1 at every time: the map keeps the full initial mass g0(1) = M0
        # in the exponent, and ell_t is its smallest root of phi_t = 1
        check_time(t)
        return 1.0

    def second_moment(self, t: float) -> float:
        check_time(t)
        K = self.measure.moments().K
        if t < self.t_gel:
            return K / (1.0 - t * K)
        if t == self.t_gel:
            return INF
        l = self.state(t).ell
        return self.measure.g0(l, 1) / self._branch(t, self.anchor(t))(l)[1]


class _Arms(Model):
    """Shared plumbing for the bivariate (arms x mass) models.

    Both variants have the characteristic map phi_t(x, y) = alpha_t (x -
    beta_t k0(x, y)); a subclass states how alpha_t, beta_t and ell_t follow
    from t (`state`), and their limits as t -> inf (`limit`).  `coeffs` reads
    (alpha_t, beta_t) from the state.  The per-class `state`, `gen_fun` and
    `second_moment` are where perfbench/tracing.py wraps each model.
    """

    is_arms = True

    def __init__(self, measure: ArmMeasure):
        if not isinstance(measure, ArmMeasure):
            raise ModelError(f"{type(self).__name__} needs an ArmMeasure")
        super().__init__(measure)

    def coeffs(self, t: float) -> tuple[float, float]:
        """(alpha_t, beta_t)."""
        st = self.state(t)
        return st.alpha, st.beta

    def limit(self) -> SolutionState:
        """The long-time state: ell_inf, beta_inf and the sol mass K0(ell_inf)."""
        raise NotImplementedError

    def _branch(self, alpha: float, beta: float, y: float = 1.0):
        """x -> (phi, d/dx phi) for the map phi(x) = alpha (x - beta k0(x, y))."""
        k0 = self.measure.k0

        def branch(x):
            return alpha * (x - beta * k0(x, y)), alpha * (1.0 - beta * k0(x, y, 1))

        return branch

    def _increasing_root(self, alpha: float, beta: float, y: float, x: float) -> float:
        """`h_inverse`'s root of phi = x on the branch rising from phi(0) <= 0, or its top."""
        k0 = self.measure.k0
        branch = self._branch(alpha, beta, y)
        top = 1.0
        if branch(1.0)[1] < 0.0:  # phi'(1) < 0: the branch ends inside, at phi' = 0

            def minus_slope(z):
                return alpha * (beta * k0(z, y, 1) - 1.0), alpha * beta * k0(z, y, 2)

            top = bisect_increasing(minus_slope, 0.0, 1.0, 0.0)
        if x >= branch(top)[0]:
            return top
        return bisect_increasing(branch, 0.0, top, x)

    def phi(self, t: float, x: float, y: float = 1.0) -> float:
        return self._branch(*self.coeffs(t), y)(x)[0]

    def h_inverse(self, t: float, x: float, y: float = 1.0) -> float:
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"x={x} outside [0, 1]")
        alpha, beta = self.coeffs(t)
        if x == 1.0 and y == 1.0:
            # h_t(1) = ell_t by definition; past the gel time of the gel-inert
            # model 1 is the flat peak of phi, where bisection would lose half
            # the digits to rounding
            return self.state(t).ell
        if x == 0.0 and self.measure.k0(0.0, y) == 0.0:
            return 0.0  # phi_t(0, y) = 0: the root is the end of the bracket
        return self._increasing_root(alpha, beta, y, x)

    def gen_fun(self, t: float, x: float, y: float = 1.0) -> float:
        return self.measure.k0(self.h_inverse(t, x, y), y) / self.coeffs(t)[0]

    def arms_count(self, t: float) -> float:
        return self.state(t).A

    def mass(self, t: float) -> float:
        return self.state(t).M

    def _second_moment(self, t: float) -> float:
        """<c_t, a^2> = d/dx k_t at (1, 1) plus the arm count."""
        st = self.state(t)
        kp = self.measure.k0(st.ell, 1.0, 1)
        bracket = 1.0 - st.beta * kp
        if bracket <= 0.0:
            return INF
        return kp / (st.alpha * st.alpha * bracket) + st.A


class SmoluchowskiArms(_Arms):
    """Limited-aggregation model with inert gel."""

    name = "smoluchowski-arms"

    def __init__(self, measure: ArmMeasure):
        super().__init__(measure)
        self.flow = ArmsFlow(measure)

    def limit(self) -> SolutionState:
        """ell_inf is the tangency point k0'(c) = k0(c)/c, and beta_inf = c/k0(c).

        beta_inf is the limit of beta_t = 1/k0'(ell_t).  Without gelation c = 1
        and beta_t = t/(1 + A0 t) tends to 1/A0 = 1/k0(1) as well.  At c = 0
        the ratio is 0/0 and its limit is 1/k0'(0), inf when mu(2) = 0 too.
        """
        ell = ell_infinity(self.measure)
        if ell == 0.0:
            kp = self.measure.k0(0.0, 1.0, 1)
            beta = 1.0 / kp if kp > 0.0 else INF
        else:
            beta = ell / self.measure.k0(ell, 1.0)
        return SolutionState(t=INF, ell=ell, beta=beta, M=self.measure.k0_mass(ell))

    @_solved_once
    def state(self, t: float) -> SolutionState:
        return self.flow.state(t)

    gen_fun = _Arms.gen_fun

    def second_moment(self, t: float) -> float:
        check_time(t)
        # from T_gel on phi_t peaks at ell: 1 - beta k0'(ell) is 0 up to rounding
        if t >= self.t_gel:
            return INF
        return self._second_moment(t)


class FloryArms(_Arms):
    """Limited-aggregation model with gel still consuming arms."""

    name = "flory-arms"

    def coeffs(self, t: float) -> tuple[float, float]:
        check_time(t)
        alpha = 1.0 + self.measure.A0 * t
        return alpha, t / alpha

    @functools.cached_property
    def _q(self):
        """Horner tuples of Q, where A0 x - k0(x, 1) = (1 - x) Q(x), and of Q'."""
        return flory_polynomials(self.measure)

    def limit(self) -> SolutionState:
        """ell_inf is the root of Q (`_q`); beta_inf = lim t/alpha_t = 1/A0.

        Q increases from Q(0) = -mu(1) <= 0 to Q(1) = K - A0, so with gelation
        (K > A0) it has one root in [0, 1), exactly 0 when mu(1) = 0; without
        gelation ell_inf is 1.
        """
        ell = 1.0 if math.isinf(self.t_gel) else polynomial_root(*self._q, 0.0)
        return SolutionState(t=INF, ell=ell, beta=1.0 / self.measure.A0,
                             M=self.measure.k0_mass(ell))

    @_solved_once
    def state(self, t: float) -> SolutionState:
        """ell_t is the root of Q = 1/t past T_gel, as phi_t - 1 = (1 - x)(t Q - 1); else 1."""
        alpha, beta = self.coeffs(t)
        ell = 1.0
        if t > self.t_gel:
            ell = polynomial_root(*self._q, 1.0 / t)
        return arms_state(self.measure, t, ell, alpha, beta)

    gen_fun = _Arms.gen_fun

    def second_moment(self, t: float) -> float:
        check_time(t)
        # at T_gel the top of the increasing branch is ell = 1: 1 - beta K is 0
        # up to rounding
        if t == self.t_gel:
            return INF
        return self._second_moment(t)


MODEL_NAMES = {
    "smoluchowski": Smoluchowski,
    "flory": Flory,
    "smoluchowski-arms": SmoluchowskiArms,
    "flory-arms": FloryArms,
}


def make_model(name: str, measure) -> Model:
    try:
        cls = MODEL_NAMES[name]
    except KeyError:
        raise ModelError(f"unknown model {name!r}") from None
    return cls(measure)


# ---------------------------------------------------------------------------
# Gel-point derivative of the mass

def mass_right_derivative_at_gel(measure) -> float:
    """Right derivative of the mass at the gel time, by sequential limits.

    Evaluates r(x) = -g0'(x)^3 / (g0'(x) + x g0''(x)) at x_k = 1 - 2^{-k},
    k = 10..40.  Returns the limit if the tail stabilizes, a signed infinity
    if |r| keeps growing, and nan when neither happens.
    """
    vals = []
    for k in range(10, 41):
        x = 1.0 - 2.0**-k
        gp = measure.g0(x, 1)
        gpp = measure.g0(x, 2)
        denom = gp + x * gpp
        vals.append(-(gp**3) / denom if denom != 0.0 else -INF)
    for i in range(2, len(vals)):
        a, b, c = vals[i - 2], vals[i - 1], vals[i]
        tol = max(1e-5 * abs(c), 1e-7)
        if abs(a - b) <= tol and abs(b - c) <= tol:
            return c
    mags = [abs(v) for v in vals]
    if mags[-1] > 1e12 or all(m2 > m1 for m1, m2 in zip(mags, mags[1:])):
        return -INF if vals[-1] < 0.0 else INF
    return math.nan

