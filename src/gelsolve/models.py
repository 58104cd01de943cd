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
    bisect_increasing,
    check_time,
    derivative,
    ell_smolu,
    flory_polynomials,
    gel_time,
    horner,
    l_flory,
    polynomial_root,
    pre_gel_state,
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
    from t (`state`), and their limits as t -> inf (`limit`), all read from
    the law's polynomial K0 at y = 1 (`ArmMeasure.polynomial`); `k0` serves
    the map at general y.  Every query reads alpha_t and beta_t from `state`.
    h_t(x, y) lies in [0, ell_t]: phi_t(., 1) rises there to 1 (the gel-inert
    map peaks at ell_t, the Flory map past it), and for y <= 1 phi_t(., y) >=
    phi_t(., 1) rises at least as fast, as k0 and k0' grow with y.  The
    per-class `state`, `gen_fun` and `second_moment` are where
    perfbench/tracing.py wraps each model.
    """

    is_arms = True

    def __init__(self, measure: ArmMeasure):
        if not isinstance(measure, ArmMeasure):
            raise ModelError(f"{type(self).__name__} needs an ArmMeasure")
        super().__init__(measure)

    def limit(self) -> SolutionState:
        """The long-time state: ell_inf, beta_inf and the sol mass K0(ell_inf)."""
        raise NotImplementedError

    def _branch(self, alpha: float, beta: float, y: float = 1.0):
        """x -> (phi, d/dx phi) for the map phi(x) = alpha (x - beta k0(x, y))."""
        k0 = self.measure.k0

        def branch(x):
            return alpha * (x - beta * k0(x, y)), alpha * (1.0 - beta * k0(x, y, 1))

        return branch

    def phi(self, t: float, x: float, y: float = 1.0) -> float:
        st = self.state(t)
        return self._branch(st.alpha, st.beta, y)(x)[0]

    def h_inverse(self, t: float, x: float, y: float = 1.0) -> float:
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"x={x} outside [0, 1]")
        st = self.state(t)
        if x == 1.0 and y == 1.0:
            # h_t(1) = ell_t by definition; past the gel time of the gel-inert
            # model 1 is the flat peak of phi, where bisection would lose half
            # the digits to rounding
            return st.ell
        if x == 0.0 and self.measure.k0(0.0, y) == 0.0:
            return 0.0  # phi_t(0, y) = 0: the root is the end of the bracket
        return bisect_increasing(self._branch(st.alpha, st.beta, y), 0.0, st.ell, x)

    def gen_fun(self, t: float, x: float, y: float = 1.0) -> float:
        return self.measure.k0(self.h_inverse(t, x, y), y) / self.state(t).alpha

    def arms_count(self, t: float) -> float:
        return self.state(t).A

    def mass(self, t: float) -> float:
        return self.state(t).M

    def _second_moment(self, st: SolutionState, kp: float, bracket: float | None = None):
        """<c_t, a^2> = d/dx k_t at (1, 1) plus the arm count A; kp = k0'(ell)."""
        bracket = 1.0 - st.beta * kp if bracket is None else bracket
        if bracket <= 0.0:
            return INF
        return kp / (st.alpha * st.alpha * bracket) + st.A


class SmoluchowskiArms(_Arms):
    """Limited-aggregation model with inert gel."""

    name = "smoluchowski-arms"

    def __init__(self, measure: ArmMeasure):
        super().__init__(measure)
        self.flow = ArmsFlow(measure, self.t_gel)

    def limit(self) -> SolutionState:
        """ell_inf is c, the root of D, and beta_inf = 1/k0'(c): the flow at u = 0."""
        return self.flow.limit()

    @_solved_once
    def state(self, t: float) -> SolutionState:
        return self.flow.state(t)

    gen_fun = _Arms.gen_fun

    def second_moment(self, t: float) -> float:
        check_time(t)
        # from T_gel on phi_t peaks at ell: 1 - beta k0'(ell) is 0 up to rounding
        if t >= self.t_gel:
            return INF
        return self._second_moment(self.state(t), self.measure.K)  # k0'(1) = K


class FloryArms(_Arms):
    """Limited-aggregation model with gel still consuming arms."""

    name = "flory-arms"

    @functools.cached_property
    def _q(self):
        """Horner tuples in x of Q (A0 x - k0(x, 1) = (1 - x) Q), Q', the sol mass, k0', k0."""
        k0 = self.measure.polynomial()
        return (*flory_polynomials(k0), self.measure.sol_mass(k0),
                derivative(k0, 2), derivative(k0, 1))

    def limit(self) -> SolutionState:
        """ell_inf is the root of Q (`_q`); beta_inf = lim t/alpha_t = 1/A0.

        Q increases from Q(0) = -mu(1) <= 0 to Q(1) = K - A0, so with gelation
        (K > A0) it has one root in [0, 1), exactly 0 when mu(1) = 0; without
        gelation ell_inf is 1.
        """
        if math.isinf(self.t_gel):
            return pre_gel_state(self.measure, INF)
        q, dq, mass, _, _ = self._q
        ell = polynomial_root(q, dq, 0.0)
        return SolutionState(t=INF, ell=ell, beta=1.0 / self.measure.A0, M=horner(mass, ell))

    @_solved_once
    def state(self, t: float) -> SolutionState:
        """ell_t is the root of Q = 1/t past T_gel, as phi_t - 1 = (1 - x)(t Q - 1); else 1."""
        check_time(t)
        if t <= self.t_gel:
            return pre_gel_state(self.measure, t)
        q, dq, mass, _, k0 = self._q
        ell = polynomial_root(q, dq, 1.0 / t)
        alpha = 1.0 + self.measure.A0 * t
        return SolutionState(t, ell, alpha, t / alpha, M=horner(mass, ell),
                             A=horner(k0, ell) / alpha)

    gen_fun = _Arms.gen_fun

    def second_moment(self, t: float) -> float:
        check_time(t)
        # 1 - beta k0'(ell) is 0 up to rounding at T_gel, where ell = 1 tops the
        # increasing branch; past it Q(ell) = 1/t makes it beta (1 - ell) Q'(ell)
        if t == self.t_gel:
            return INF
        if t < self.t_gel:
            return self._second_moment(self.state(t), self.measure.K)  # k0'(1) = K
        st = self.state(t)
        _, dq, _, kp, _ = self._q
        return self._second_moment(st, horner(kp, st.ell),
                                   st.beta * (1.0 - st.ell) * horner(dq, st.ell))


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
