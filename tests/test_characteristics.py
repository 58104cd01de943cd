import math
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gelsolve import characteristics, models
from gelsolve.characteristics import (
    ArmsFlow,
    _taylor_shift,
    arms_polynomials,
    bisect_increasing,
    derivative,
    ell_smolu,
    flory_polynomials,
    gel_time,
    l_flory,
)
from gelsolve.errors import DomainError, ModelError, SolverError
from gelsolve.measures import (
    ArmMeasure,
    Discrete,
    ExponentialDensity,
    Monodisperse,
    PowerLawDensity,
)
from gelsolve.models import FloryArms, SmoluchowskiArms

MU = {0: 0.5, 1: 0.25, 3: 0.25}
ARM = ArmMeasure.monodisperse(MU)


def _flow(measure):
    """The gel-inert arms flow of a law, at the gel time its model would pass."""
    return ArmsFlow(measure, gel_time(measure))


# An independent route to alpha_t of the gel-inert arms model: the G/H pair
# and a Gamma quadrature.  The library takes alpha_t = 1/G(ell_t) in closed
# form instead; these are the reference it is checked against.

def G(measure, x):
    """G(x) = x - k0(x, 1)/k0'(x, 1), with its limit G(1) = (K - A0)/K."""
    if x == 1.0:
        return (measure.K - measure.A0) / measure.K
    return x - measure.k0(x, 1.0) / measure.k0(x, 1.0, 1)


def H(measure, u):
    """Right inverse of the increasing G on (0, 1); 1 from G(1) on."""
    if u >= G(measure, 1.0):
        return 1.0
    return bisect_increasing(lambda x: (G(measure, x), math.nan), 0.0, 1.0, u)


def alpha_via_gamma(measure, t):
    """alpha_t from Gamma(alpha_t) = Gamma(alpha_gel) + t - T_gel, Gamma'(r) = 1/k0(H(1/r), 1)."""
    t_gel = gel_time(measure)  # t > t_gel
    a_gel = 1.0 + measure.A0 * t_gel

    def rate(r):
        return 1.0 / measure.k0(H(measure, 1.0 / r), 1.0)

    def elapsed(alpha):
        return quad(rate, a_gel, alpha, limit=200)[0], math.nan

    hi = a_gel + measure.A0 * (t - t_gel)  # dalpha/dt <= A0
    return bisect_increasing(elapsed, a_gel, hi, t - t_gel)


class TestBisection:
    # f returns (value, slope); a nan slope gives plain bisection
    def test_simple_root(self):
        r = bisect_increasing(lambda x: (x * x, math.nan), 0.0, 2.0, 2.0)
        assert r == pytest.approx(math.sqrt(2.0), abs=1e-11)

    def test_endpoint_never_evaluated(self):
        # no slope: the walk from lo = 0 takes dozens of interior midpoints
        def f(x):
            if x in (0.0, 1.0):
                raise AssertionError("endpoint touched")
            calls.append(x)
            return x, math.nan

        for target in (0.5, 1e-3, 1e-300):
            calls = []
            root = bisect_increasing(f, 0.0, 1.0, target)
            assert root == pytest.approx(target, rel=1e-9, abs=0.0)
            assert len(calls) > 10

    def test_endpoint_never_evaluated_with_a_slope(self):
        def f(x):
            if x in (0.0, 1.0):
                raise AssertionError("endpoint touched")
            return x * x, 2.0 * x

        root = bisect_increasing(f, 0.0, 1.0, 0.25)
        assert root == pytest.approx(0.5, rel=1e-12)

    def test_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(characteristics, "_ROOT_MAX_ITER", 3)
        with pytest.raises(SolverError):
            bisect_increasing(lambda x: (x, math.nan), 0.0, 1.0, 0.5)

    @pytest.mark.parametrize("slope", [0.0, -1.0, math.inf, math.nan])
    def test_slope_that_is_not_finite_and_positive_only_bisects(self, slope):
        calls = []

        def f(x):
            calls.append(x)
            return x, slope

        assert bisect_increasing(f, 0.0, 1.0, 0.3) == pytest.approx(0.3)
        assert len(calls) > 30  # no Newton step: about log2(1e12) midpoints


class TestNewtonInBracket:
    @pytest.mark.parametrize("root", [0.3, 1e-3, 1e-100, 1e-300])
    def test_relative_accuracy(self, root):
        # log x is concave with a slope of 1/x: a hard case for plain Newton
        for slope in (lambda x: math.nan, lambda x: 1.0 / x):
            x = bisect_increasing(
                lambda x: (math.log(x), slope(x)), 0.0, 1.0, math.log(root)
            )
            assert x == pytest.approx(root, rel=1e-12, abs=0.0)

    def test_newton_needs_few_evaluations(self):
        calls = []

        def f(x):
            calls.append(x)
            return x**3, 3.0 * x * x

        root = bisect_increasing(f, 0.0, 2.0, 0.125)
        assert root == pytest.approx(0.5, rel=1e-14)
        assert len(calls) <= 20

    @pytest.mark.parametrize("w", [1e-20, 1e-118, 1e-300])
    def test_linear_phase_takes_geometric_midpoints(self, w):
        # Newton halves x at every step towards the root of 3 x^2 = w from 1/2
        calls = []

        def f(x):
            calls.append(x)
            return 3.0 * x * x, 6.0 * x

        root = bisect_increasing(f, 0.0, 1.0, w)
        assert root == pytest.approx(math.sqrt(w / 3.0), rel=1e-12, abs=0.0)
        assert len(calls) <= 60

    def test_root_at_the_bottom_of_the_bracket(self):
        # a relative stop never closes on 0: the solver says so at once
        with pytest.raises(SolverError, match="underflows"):
            bisect_increasing(lambda x: (x, 1.0), 0.0, 1.0, 0.0)


class TestGelTime:
    def test_monodisperse(self):
        assert gel_time(Monodisperse()) == 1.0

    def test_arms(self):
        assert gel_time(ARM) == 2.0  # 1/(K - A0) = 1/0.5

    def test_infinite_second_moment(self):
        assert gel_time(PowerLawDensity(1.5)) == 0.0

    def test_subcritical_arms(self):
        sub = ArmMeasure.monodisperse({1: 1.0})  # K = 0 <= A0
        assert gel_time(sub) == math.inf


class TestEllSmolu:
    def test_pre_gel_is_one(self):
        assert ell_smolu(0.5, Monodisperse()) == 1.0

    def test_monodisperse_post_gel(self):
        assert ell_smolu(2.0, Monodisperse()) == pytest.approx(0.5, abs=1e-11)

    def test_exponential_post_gel(self):
        # x g0'(x) = 2/(1 - ln x)^3 = 1/4 gives 1 - ln x = 2
        val = ell_smolu(4.0, ExponentialDensity())
        assert val == pytest.approx(math.exp(-1.0), abs=1e-11)

    def test_nonincreasing_and_continuous(self):
        grid = np.linspace(0.5, 6.0, 56)
        vals = [ell_smolu(t, Monodisperse()) for t in grid]
        diffs = np.diff(vals)
        assert (diffs <= 1e-12).all()
        assert (np.abs(diffs) < 0.2).all()

    def test_negative_time(self):
        with pytest.raises(DomainError):
            ell_smolu(-1.0, Monodisperse())

    def test_matches_ell(self):
        # the maximizer of the characteristic map past the gel time
        assert ell_smolu(2.0, Monodisperse()) == pytest.approx(0.5, abs=1e-11)
        assert ell_smolu(4.0, ExponentialDensity()) == pytest.approx(
            math.exp(-1.0), abs=1e-11
        )


class TestLFlory:
    def test_pre_gel_is_one(self):
        assert l_flory(0.5, Monodisperse()) == 1.0

    def test_fixed_point_value(self):
        # reference by fixed-point iteration of l = e^{-2(1-l)}
        l = 0.5
        for _ in range(200):
            l = math.exp(-2.0 * (1.0 - l))
        assert l_flory(2.0, Monodisperse()) == pytest.approx(l, abs=1e-10)

    def test_below_critical_point(self):
        t = 3.0
        assert l_flory(t, Monodisperse()) < ell_smolu(t, Monodisperse())

    def test_infinite_mass_rejected(self):
        with pytest.raises(ModelError):
            l_flory(2.0, PowerLawDensity(1.5))

    def test_tiny_root_relative_accuracy(self):
        # l ~ e^{-t} for large t on monodisperse data; absolute bisection
        # alone cannot see this
        t = 40.0
        l = l_flory(t, Monodisperse())
        assert l == pytest.approx(math.exp(-t * (1.0 - l)), rel=1e-10)


# Flory's ell_t against 40 digits, solved in u = -ln x: u - t (M0 - g0(e^-u))
# is below 0 on (0, u_t) and above it past u_t.  Each law is (measure,
# g0(e^-u)), so M0 = g0(e^0).
LATTICE = Discrete([(1, 0.5), (2, 0.3), (5, 0.2)])
FLORY_LAWS = pytest.mark.parametrize("law", [
    (Monodisperse(), lambda u: mp.exp(-u)),
    (ExponentialDensity(), lambda u: (1 + u) ** -2),
    (LATTICE, lambda u: sum(mp.mpf(w) * m * mp.exp(-m * u) for m, w in LATTICE.atoms)),
], ids=["monodisperse", "exponential", "lattice"])


def _mp_l_flory(law, t):
    g0 = law[1]
    with mp.workdps(40):
        t, M0 = mp.mpf(t), g0(mp.mpf(0))
        lo, hi = mp.mpf(0), t * M0 + 1
        for _ in range(200):
            mid = (lo + hi) / 2
            if mid - t * (M0 - g0(mid)) < 0:
                lo = mid
            else:
                hi = mid
        return mp.exp(-(lo + hi) / 2)


@FLORY_LAWS
@settings(max_examples=40, derandomize=True, deadline=None)
@given(s=st.floats(0.0, 1.0))
def test_l_flory_matches_mpmath(law, s):
    # t from 1.001 T_gel to t M0 = 700, geometrically
    measure = law[0]
    t_lo, t_hi = 1.001 * gel_time(measure), 700.0 / measure.moments().M0
    t = t_lo * (t_hi / t_lo) ** s
    assert l_flory(t, measure) == pytest.approx(float(_mp_l_flory(law, t)), rel=1e-12, abs=0.0)


@FLORY_LAWS
def test_l_flory_just_past_the_gel_time(law):
    # a near-double root: the bound is set by its conditioning
    t = (1.0 + 1e-6) * gel_time(law[0])
    assert l_flory(t, law[0]) == pytest.approx(float(_mp_l_flory(law, t)), rel=1e-9, abs=0.0)


class TestGH:
    def test_g_at_one(self):
        assert G(ARM, 1.0) == pytest.approx(1.0 / 3.0)

    def test_g_zero_of_tangency_point(self):
        assert G(ARM, 1.0 / math.sqrt(3.0)) == pytest.approx(0.0, abs=1e-14)

    def test_g_below_identity(self):
        for x in (0.1, 0.4, 0.7, 0.95):
            assert G(ARM, x) < x

    def test_h_round_trip(self):
        assert H(ARM, G(ARM, 0.5)) == pytest.approx(0.5, abs=1e-11)

    def test_h_of_zero(self):
        assert H(ARM, 0.0) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-11)


class TestArmsFlow:
    def test_initial_state(self):
        st = _flow(ARM).state(0.0)
        assert (st.alpha, st.beta, st.ell) == (1.0, 0.0, 1.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(DomainError):
            _flow(ARM).state(t)

    def test_pre_gel_closed_form(self):
        flow = _flow(ARM)
        for t in (0.5, 1.0, 1.7, 2.0):
            st = flow.state(t)
            assert st.alpha == pytest.approx(1.0 + t, abs=1e-12)
            assert st.beta == pytest.approx(t / (1.0 + t), abs=1e-12)

    def test_alpha_beta_monotone(self):
        flow = _flow(ARM)
        states = [flow.state(t) for t in np.linspace(0.0, 6.0, 101)]
        alphas = [s.alpha for s in states]
        betas = [s.beta for s in states]
        assert all(a <= b + 1e-12 for a, b in zip(alphas, alphas[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(betas, betas[1:]))

    def test_alpha_ode_slope(self):
        # d(alpha)/dt should equal k0(ell_t, 1)
        flow = _flow(ARM)
        h = 1e-3
        for t in (2.5, 3.0, 4.0):
            fd = (flow.state(t + h).alpha - flow.state(t - h).alpha) / (2 * h)
            st = flow.state(t)
            assert fd == pytest.approx(ARM.k0(st.ell, 1.0), abs=1e-6)

    def test_arm_count_bound(self):
        # k0(ell_t, 1)/alpha_t <= A0/(1 + t A0)
        flow = _flow(ARM)
        for t in np.linspace(0.0, 6.0, 25):
            st = flow.state(t)
            a_t = ARM.k0(st.ell, 1.0) / st.alpha
            assert a_t <= 1.0 / (1.0 + t) + 1e-9

    def test_continuity_at_gel_time(self):
        flow = _flow(ARM)
        below = flow.state(2.0)
        above = flow.state(2.0 + 1e-6)
        assert above.alpha == pytest.approx(below.alpha, abs=1e-5)
        assert above.ell == pytest.approx(1.0, abs=1e-2)

    def test_flow_never_builds_the_flory_polynomials(self, monkeypatch):
        # the flow and ell_inf need only D and k0''; Q and Q' serve FloryArms
        def refuse(measure):
            raise AssertionError("Q built outside FloryArms")

        monkeypatch.setattr(characteristics, "flory_polynomials", refuse)
        monkeypatch.setattr(models, "flory_polynomials", refuse)
        assert SmoluchowskiArms(ARM).state(3.0).ell < 1.0  # past T_gel = 2
        assert SmoluchowskiArms(ARM).limit().ell == pytest.approx(3.0 ** -0.5, rel=1e-12)  # root of D
        with pytest.raises(AssertionError, match="outside FloryArms"):
            FloryArms(ARM).state(3.0)  # the name patched is the one in use

    def test_out_of_order_queries_consistent(self):
        a = _flow(ARM)
        v1 = a.state(4.0).alpha
        v2 = a.state(3.0).alpha
        b = _flow(ARM)
        assert b.state(3.0).alpha == v2
        assert b.state(4.0).alpha == v1


@pytest.mark.parametrize("t", [2.5, 4.0, 6.0, 50.0, 200.0])
def test_closed_form_alpha_matches_gamma_quadrature(t):
    assert _flow(ARM).state(t).alpha == pytest.approx(
        alpha_via_gamma(ARM, t), rel=1e-10
    )


def test_beta_infinity():
    # analytic limit c/k0(c) with c = 1/sqrt(3)
    assert SmoluchowskiArms(ARM).limit().beta == pytest.approx(
        2.0 / math.sqrt(3.0), abs=1e-8
    )


def test_beta_infinity_no_gelation():
    sub = ArmMeasure.monodisperse({1: 1.0})
    assert SmoluchowskiArms(sub).limit().beta == 1.0


def _mp_k0(measure):
    """k0(x, n), the n-th x-derivative of k0(x, 1), in mpmath numbers."""
    terms = [(a, mp.mpf(w)) for (a, _), w in measure.weights.items()]

    def k0(x, n):
        out = mp.mpf(0)
        for a, w in terms:
            f = a * math.prod(a - j for j in range(1, n + 1))
            if f:
                out += f * w * x ** (a - 1 - n)
        return out

    return k0


FAR_LAWS = [
    {1: 0.03558438888743941, 2: 0.00435965163122965, 7: 8.269896045254357e-06,
     8: 0.0003140641937152215, 9: 0.004057898610257531},
    {0: 0.4656769825813181, 1: 0.00042142578133980916, 2: 0.6004698144786245,
     5: 0.0004357043082412592, 7: 1.0243419944258223e-05, 9: 1.6703107703724183e-05},
]


MPMATH_LAWS = pytest.mark.parametrize("measure", [
    ArmMeasure.monodisperse(MU),
    ArmMeasure.monodisperse({0: 0.5, 2: 0.25, 3: 0.25}),  # c = 0, a double root of D
    ArmMeasure.monodisperse({0: 0.3, 2: 0.4, 3: 0.3}),  # c = 0
    ArmMeasure.monodisperse({0: 0.99, 1: 1e-4, 3: 0.0099}),
    ArmMeasure.monodisperse({0: 0.3, 1: 1e-4, 2: 0.3, 3: 0.3}),
    ArmMeasure.monodisperse(FAR_LAWS[1]),
    ArmMeasure.monodisperse({0: 0.3, 1: 0.2, 2: 0.1, 4: 0.1, 6: 0.1, 9: 0.2}),
    ArmMeasure({(1, 1): 0.5, (3, 2): 0.5, (4, 1): 0.1}),  # k0 summed over mass
], ids=["readme", "c-zero", "c-zero-2", "small-c", "small-mu1", "c-0.501", "nine-arms",
        "general"])


@MPMATH_LAWS
def test_flow_matches_mpmath_inversion(measure, mp_arms_flow):
    flow = _flow(measure)
    for dt in (1e-4, 0.03, 1.0, 50.0, 1e4):
        t = flow.t_gel + dt
        c, u, _, _ = mp_arms_flow(measure, t)
        assert flow.state(t).ell == pytest.approx(float(c + u), rel=1e-12, abs=0.0)


@MPMATH_LAWS
def test_gel_time_matches_mpmath(measure):
    # 1/D(1), D(1) = sum a (a - 2) c0(a, m): on c-0.501 1/(K - A0) was 2.1e-14 off
    with mp.workdps(40):
        d1 = sum(a * (a - 2) * mp.mpf(w) for (a, _), w in measure.weights.items())
        assert abs(gel_time(measure) * d1 - 1) <= 4e-16


def _scanned_q(measure):
    """Q's Horner tuple by the scan of the arm data's weights that K0 replaced."""
    q = [0.0] * (max(a for a, _ in measure.weights) + 1)
    for (a, _), w in measure.weights.items():
        if a == 1:
            q[0] -= w  # -mu(1)
        for j in range(1, a - 1):
            q[j] += a * w
    while q and q[-1] == 0.0:
        q.pop()
    return tuple(reversed(q))


def _scanned_gel_time(measure):
    """1/D(1) by the scan of the arm data's weights that K0 replaced."""
    d1 = sum(a * (a - 2) * w for (a, _), w in measure.weights.items() if a >= 3)
    d1 -= sum(w for (a, _), w in measure.weights.items() if a == 1)
    return 1.0 / d1 if d1 > 0.0 else math.inf


def _bits(values):
    return [float(v).hex() for v in values]  # tells -0.0 from 0.0


#: 4 n eps for n = 9 arms: a coefficient of Q or Q' merges up to 6 masses per
#: arm count, scales, and sums up to 7 arm counts, each a relative rounding
_K0_ROUNDING = 4 * 9 * sys.float_info.epsilon


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    triples=st.lists(st.tuples(st.integers(0, 9), st.integers(1, 6), st.floats(1e-3, 10.0)),
                     min_size=1, max_size=12),
    monodisperse=st.booleans(),
)
@example(triples=[(0, 1, 0.5), (1, 1, 0.25), (3, 1, 0.25)], monodisperse=True)
@example(triples=[(1, 1, 0.5), (3, 2, 0.5), (4, 1, 0.1), (1, 3, 0.125)], monodisperse=False)
def test_flory_q_and_gel_time_come_from_k0(triples, monodisperse):
    assume(any(a > 0 for a, _, _ in triples))
    data = {(a, 1 if monodisperse else m): w for a, m, w in triples}
    if monodisperse:
        data = dict(sorted(data.items()))  # ascending keys: the scans' order
    measure = ArmMeasure(data)
    q, dq = flory_polynomials(measure.polynomial())
    t_gel = gel_time(measure)
    n = len(measure.polynomial()) - 1
    if monodisperse:
        assert _bits([t_gel]) == _bits([_scanned_gel_time(measure)])
        if n >= 3:  # Q is not constant: the scan dropped no zero top coefficient
            scanned = _scanned_q(measure)
            assert _bits(q) == _bits(scanned)
            assert _bits(dq) == _bits(derivative(scanned, 1))
    # every law against the exact sums over its weights, mu(a) = sum_m c0(a, m)
    mu = {}
    for (a, _), w in measure.weights.items():
        mu[a] = mu.get(a, 0) + Fraction(w)
    exact_q = [-mu.get(1, 0)]
    exact_q += [sum(a * w for a, w in mu.items() if a >= j + 2) for j in range(1, n - 1)]
    exact_q.reverse()
    exact_dq = [(len(exact_q) - 1 - i) * b for i, b in enumerate(exact_q[:-1])]
    assert len(q) == len(exact_q) and len(dq) == len(exact_dq)
    for got, want in zip(q + dq, exact_q + exact_dq):
        assert abs(Fraction(got) - want) <= _K0_ROUNDING * abs(want)
    # D(1) cancels: its error is relative to the sum of the sizes of its terms
    positive = sum(a * (a - 2) * w for a, w in mu.items() if a >= 3)
    d1, slack = positive - mu.get(1, 0), _K0_ROUNDING * (positive + mu.get(1, 0))
    if t_gel == math.inf:
        assert d1 <= slack
    else:
        assert abs(1 / Fraction(t_gel) - d1) <= slack


#: t - T_gel from just past the gel time to t = 1e300, where alpha_t is about t itself
FLOW_DTS = (1e-4, 0.03, 1.0, 50.0, 1e9, 1e12, 1e16, 1e17, 1e100, 1e300)


@MPMATH_LAWS
def test_alpha_and_arm_count_match_mpmath(measure, mp_arms_flow):
    # alpha = k0'/D and A = k0/alpha at the 40-digit u_t = ell_t - c
    flow = _flow(measure)
    for dt in FLOW_DTS:
        t = flow.t_gel + dt
        state = flow.state(t)
        _, _, alpha, arms = mp_arms_flow(measure, t)
        assert state.alpha == pytest.approx(float(alpha), rel=1e-13, abs=0.0)
        assert state.A == pytest.approx(float(arms), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("mu", FAR_LAWS, ids=["c-0.774", "c-0.501"])
def test_far_times_where_a_panel_point_rounds_onto_c(mu):
    law = ArmMeasure.monodisperse(mu)
    flow = _flow(law)
    c = SmoluchowskiArms(law).limit().ell
    for t in (1e16, 3.915041124593764e16, 4.83178284091214e19, 1e300):
        st = flow.state(t)
        assert st.ell == pytest.approx(c, rel=1e-12, abs=0.0)
        assert st.alpha > 0.0 and 0.0 < st.beta < math.inf


@pytest.mark.parametrize("mu", [MU, *FAR_LAWS], ids=["readme", "c-0.774", "c-0.501"])
def test_panels_are_summed_only_as_far_as_a_query_needs(mu):
    flow = _flow(ArmMeasure.monodisperse(mu))
    flow.state(flow.t_gel + 1e-4)
    assert len(flow._times) == 2  # t(u_0) = T_gel and t(u_1): one panel summed


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e-100, 1e100, 1e300])
def test_flow_is_scale_free(scale):
    # weights scale * mu give D and k0'' times scale, so t(u) over scale:
    # alpha(t) = alpha_1(scale t) and A(t) = scale A_1(scale t)
    unit = _flow(ARM)
    flow = _flow(ArmMeasure.monodisperse({a: scale * w for a, w in MU.items()}))
    for ratio in (1.001, 1e3):
        t = ratio * flow.t_gel
        state, ref = flow.state(t), unit.state(scale * t)
        assert state.alpha == pytest.approx(ref.alpha, rel=1e-12, abs=0.0)
        assert state.A == pytest.approx(scale * ref.A, rel=1e-12, abs=0.0)


def test_arm_count_and_sol_mass_where_a_power_of_ell_underflows(mp_arms_flow):
    # mu(1) = 0 and weights near 1e282: k0(ell) = 6 mu(6) ell^5 and K0(ell)
    # must take the weight before ell^5 underflows (A_t was 3.5e-5 off at
    # t = 1e100 and 0 at 1e300)
    law = ArmMeasure.monodisperse({0: 2.8e-12, 6: 8.4e281})
    flow = _flow(law)
    for dt in FLOW_DTS:
        t = flow.t_gel + dt
        state = flow.state(t)
        c, u, _, arms = mp_arms_flow(law, t)
        with mp.workdps(40):
            mass = mp.mpf(2.8e-12) + mp.mpf(8.4e281) * (c + u) ** 6
        assert state.A == pytest.approx(float(arms), rel=5e-13, abs=0.0)
        assert state.M == pytest.approx(float(mass), rel=5e-13, abs=0.0)


def test_flory_arms_arm_count_where_a_power_of_ell_underflows():
    # past T_gel = 5e-285, at t = 1e-200 ell_t = 1.98e-83, and ell^5
    # underflows unless the weight multiplies it first
    law = ArmMeasure.monodisperse({0: 2.8e-12, 6: 8.4e281})
    t = 1e-200
    with mp.workdps(40):
        a6, t_mp = 6 * mp.mpf(8.4e281), mp.mpf(t)  # Q(x) = 6 mu(6) (x + x^2 + x^3 + x^4)
        ell = mp.findroot(lambda x: t_mp * a6 * (x + x**2 + x**3 + x**4) - 1, 1 / (a6 * t_mp))
        expected = a6 * ell**5 / (1 + a6 * t_mp)  # k0(ell)/alpha_t, alpha_t = 1 + A0 t
    assert FloryArms(law).arms_count(t) == pytest.approx(float(expected), rel=1e-13, abs=0.0)


def _exact_taylor(coeffs, c):
    """The coefficients of f(c + u), lowest first, from those of f(x), lowest first."""
    return [sum(f * math.comb(e, j) * c ** (e - j) for e, f in enumerate(coeffs) if e >= j)
            for j in range(len(coeffs))]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(mu=st.dictionaries(st.integers(0, 9), st.floats(1e-3, 1.0), min_size=1),
       c=st.one_of(st.just(0.0), st.floats(1e-30, 1.0, exclude_max=True)))
@example(mu={0: 0.5, 1: 0.25, 3: 0.25}, c=3.0 ** -0.5)
def test_arms_polynomials_match_exact_taylor_coefficients(mu, c):
    # K0, k0 = K0', k0' and k0'' as exact polynomials in x, D = x k0' - k0,
    # each shifted to c in Fractions.  c is 0 or at least 1e-30, so that a
    # weight times c^8 is still a normal double: below that a coefficient
    # can round to a subnormal or to 0, where no float keeps 8 n eps.
    assume(any(a > 0 for a in mu))
    p = ArmMeasure.monodisperse(mu).polynomial()
    n = len(p) - 1
    k0s = [[Fraction(0)] * (n + 1)]
    for a, w in mu.items():
        k0s[0][a] += Fraction(w)
    for _ in range(3):  # k0, k0', k0''
        k0s.append([e * f for e, f in enumerate(k0s[-1])][1:] or [Fraction(0)])
    _, k, kp, kpp = k0s
    d = [(kp[e - 1] if 1 <= e <= len(kp) else 0) - (k[e] if e < len(k) else 0)
         for e in range(n + 1)]
    exact = [_exact_taylor(f, Fraction(c)) for f in (d, kpp, kp, k)]
    shifted = _taylor_shift(p, c)
    got = (*arms_polynomials(shifted, c), derivative(shifted, 2), derivative(shifted, 1))
    for g, e in zip(got, exact):
        g = list(reversed(g))
        assert len(g) <= len(e) and not any(e[len(g):])
        for j in range(1, len(g)):  # D(c) cancels: its constant term is left out
            assert g[j] == pytest.approx(float(e[j]), rel=8 * n * sys.float_info.epsilon, abs=0.0)


def test_alpha_where_a_power_of_ell_underflows(mp_arms_flow):
    # mu(1) = 0 and weights near 1e282: at t = 1e300 ell_t is about 6e-98, so
    # ell^4 underflows, and k0'(ell) = 30 mu(6) ell^4 must not take it first
    law = ArmMeasure.monodisperse({0: 2.8e-12, 6: 8.4e281})
    for t in (1e100, 1e300):
        state = _flow(law).state(t)
        _, _, alpha, _ = mp_arms_flow(law, t)
        assert state.alpha == pytest.approx(float(alpha), rel=1e-13, abs=0.0)


# FloryArms past the gel time, against its definition: ell_t is the smallest
# root of phi_t(x) = alpha x - t k0(x) = 1, on the branch below the top of the
# concave phi_t, and ell_inf the smallest root of A0 x - k0(x) = 0.

def _mp_increasing_root(f, lo, hi):
    """The root of f, increasing on (lo, hi), by 210 halvings: 60 digits on [0, 1]."""
    for _ in range(210):
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _mp_flory_arms(measure, t):
    """(ell, <c_t, a^2>) of FloryArms at t to 60 digits; t = inf gives (ell_inf, nan).

    ell solves a x - b k0(x) = c below the top k0'(x) = a/b, with (a, b, c) =
    (1 + A0 t, t, 1), or (A0, 1, 0) at t = inf.
    """
    with mp.workdps(60):
        k0 = _mp_k0(measure)
        A0 = sum(a * mp.mpf(w) for (a, _), w in measure.weights.items())
        if t == math.inf:
            a, b, c = A0, mp.mpf(1), mp.mpf(0)
        else:
            a, b, c = 1 + A0 * mp.mpf(t), mp.mpf(t), mp.mpf(1)
        top = _mp_increasing_root(lambda x: k0(x, 1) - a / b, mp.mpf(0), mp.mpf(1))
        ell = _mp_increasing_root(lambda x: a * x - b * k0(x, 0) - c, mp.mpf(0), top)
        if t == math.inf:
            return ell, math.nan
        kp, beta = k0(ell, 1), b / a
        return ell, kp / (a * a * (1 - beta * kp)) + k0(ell, 0) / a


_WEIGHT = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


@st.composite
def gelling_arm_data(draw):
    """Arm data on {0..amax}, amax 3..8, with K > A0: monodisperse laws and general triples.

    A fifth of them have mu(1) = 0.
    """
    amax = draw(st.integers(3, 8))
    masses = st.integers(1, 3) if draw(st.booleans()) else st.just(1)
    no_mu1 = draw(st.integers(0, 4)) == 0
    weights = {(amax, draw(masses)): draw(st.floats(1e-3, 1.0))}
    for arms in range(amax + 1):
        for m, w in draw(st.lists(st.tuples(masses, _WEIGHT), max_size=2)):
            if not (arms == 1 and no_mu1):
                weights[(arms, m)] = weights.get((arms, m), 0.0) + w
    measure = ArmMeasure(weights)
    assume(measure.K > measure.A0)
    return measure


@settings(max_examples=100, derandomize=True, deadline=None)
@given(measure=gelling_arm_data())
def test_flory_arms_roots_match_their_definition(measure):
    model = FloryArms(measure)
    for ratio in (1 + 1e-6, 1.001, 1.5, 4.0, 1e3, 1e8):
        t = model.t_gel * ratio
        ell = model.state(t).ell
        assert ell == pytest.approx(float(_mp_flory_arms(measure, t)[0]), rel=1e-12, abs=0.0)
    ell_inf = model.limit().ell
    if measure.k0(0.0) == 0.0:  # mu(1) = 0
        assert ell_inf == 0.0
    else:
        assert ell_inf == pytest.approx(
            float(_mp_flory_arms(measure, math.inf)[0]), rel=1e-12, abs=0.0
        )


@settings(max_examples=100, derandomize=True, deadline=None)
@given(measure=gelling_arm_data())
@example(measure=ArmMeasure({(3, 3): 0.27729609865727334, (0, 3): 0.8803134763199665,
                             (1, 2): 0.7629109343348213}))
def test_flory_arms_second_moment_at_one_plus_1e_6_t_gel(measure):
    # the bracket 1 - beta k0'(ell) taken as beta (1 - ell) Q'(ell): only
    # 1 - ell, with ell's absolute precision, still loses digits.  The example
    # was 4.1e-9 off when the bracket was the difference.
    model = FloryArms(measure)
    t = model.t_gel * (1 + 1e-6)
    expected = float(_mp_flory_arms(measure, t)[1])
    assert model.second_moment(t) == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_flory_arms_second_moment_just_past_the_gel_time():
    # 1.00003 T_gel on a law from the arms-closed benchmark stream, where phi_t
    # is nearly flat at ell_t
    law = ArmMeasure.monodisperse({0: 0.23452407276920453, 1: 0.1652272118555979,
                                   2: 0.06596031627529694, 3: 0.23428405186460274})
    t = 1.8600947156221455
    expected = float(_mp_flory_arms(law, t)[1])
    assert FloryArms(law).second_moment(t) == pytest.approx(expected, rel=1e-10, abs=0.0)


def _mp_h_inverse(measure, state, x, y):
    """h_t(x, y) to 50 digits: phi_t(., y) = x bisected on [0, ell_t], from the state's floats."""
    with mp.workdps(50):
        alpha, beta, ell = (mp.mpf(v) for v in (state.alpha, state.beta, state.ell))
        terms = [(a, m, mp.mpf(w)) for (a, m), w in measure.weights.items() if a > 0]
        x, y = mp.mpf(x), mp.mpf(y)

        def f(z):
            return alpha * (z - beta * sum(a * w * z ** (a - 1) * y**m for a, m, w in terms)) - x

        if f(mp.mpf(0)) >= 0:
            return mp.mpf(0)
        return _mp_increasing_root(f, mp.mpf(0), ell)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    measure=gelling_arm_data(),
    ratio=st.floats(0.1, 1e3),
    x=st.one_of(st.just(0.0), st.floats(1e-3, 0.98)),
    y=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
)
def test_arms_h_inverse_matches_its_definition(measure, ratio, x, y):
    # h_t(x, y) on the bracket [0, ell_t], for y < 1 as well as y = 1
    for model in (SmoluchowskiArms(measure), FloryArms(measure)):
        t = ratio * model.t_gel
        expected = float(_mp_h_inverse(measure, model.state(t), x, y))
        assert model.h_inverse(t, x, y) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("t", [1e17, 1e300])
def test_far_time_arms_h_inverse_lies_in_its_bracket(t):
    # far past T_gel phi_t is nearly flat below ell_t, and the root still lies in [0, ell_t]
    model = SmoluchowskiArms(ARM)
    ell = model.state(t).ell
    for x in (0.02, 0.4, 0.98):
        assert 0.0 <= model.h_inverse(t, x) <= ell
