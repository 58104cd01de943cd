import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gelsolve import characteristics, models
from gelsolve.characteristics import (
    _PANELS,
    ArmsFlow,
    bisect_increasing,
    ell_infinity,
    ell_smolu,
    gel_time,
    l_flory,
)
from gelsolve.errors import DomainError, ModelError, SolverError
from gelsolve.measures import (
    ArmMeasure,
    ExponentialDensity,
    Monodisperse,
    PowerLawDensity,
)
from gelsolve.models import FloryArms, SmoluchowskiArms

MU = {0: 0.5, 1: 0.25, 3: 0.25}
ARM = ArmMeasure.monodisperse(MU)


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
    return bisect_increasing(lambda x: (G(measure, x), math.nan), 0.0, 1.0, u, tol=1e-12)


def alpha_via_gamma(measure, t):
    """alpha_t from Gamma(alpha_t) = Gamma(alpha_gel) + t - T_gel, Gamma'(r) = 1/k0(H(1/r), 1)."""
    t_gel = gel_time(measure)  # t > t_gel
    a_gel = 1.0 + measure.A0 * t_gel

    def rate(r):
        return 1.0 / measure.k0(H(measure, 1.0 / r), 1.0)

    def elapsed(alpha):
        return quad(rate, a_gel, alpha, limit=200)[0], math.nan

    hi = a_gel + measure.A0 * (t - t_gel)  # dalpha/dt <= A0
    return bisect_increasing(elapsed, a_gel, hi, t - t_gel, tol=1e-12)


class TestBisection:
    # f returns (value, slope); a nan slope gives plain bisection
    def test_simple_root(self):
        r = bisect_increasing(lambda x: (x * x, math.nan), 0.0, 2.0, 2.0, tol=1e-12)
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
            root = bisect_increasing(f, 0.0, 1.0, target, tol=1e-10)
            assert root == pytest.approx(target, rel=1e-9, abs=0.0)
            assert len(calls) > 10

    def test_endpoint_never_evaluated_with_a_slope(self):
        def f(x):
            if x in (0.0, 1.0):
                raise AssertionError("endpoint touched")
            return x * x, 2.0 * x

        root = bisect_increasing(f, 0.0, 1.0, 0.25, tol=1e-12)
        assert root == pytest.approx(0.5, rel=1e-12)

    def test_nonconvergence(self):
        with pytest.raises(SolverError):
            bisect_increasing(
                lambda x: (x, math.nan), 0.0, 1.0, 0.5, tol=1e-12, max_iter=3
            )

    @pytest.mark.parametrize("slope", [0.0, -1.0, math.inf, math.nan])
    def test_slope_that_is_not_finite_and_positive_only_bisects(self, slope):
        calls = []

        def f(x):
            calls.append(x)
            return x, slope

        assert bisect_increasing(f, 0.0, 1.0, 0.3, tol=1e-12) == pytest.approx(0.3)
        assert len(calls) > 30  # no Newton step: about log2(1e12) midpoints


class TestNewtonInBracket:
    @pytest.mark.parametrize("root", [0.3, 1e-3, 1e-100, 1e-300])
    def test_relative_accuracy(self, root):
        # log x is concave with a slope of 1/x: a hard case for plain Newton
        for slope in (lambda x: math.nan, lambda x: 1.0 / x):
            x = bisect_increasing(
                lambda x: (math.log(x), slope(x)), 0.0, 1.0, math.log(root), tol=1e-12
            )
            assert x == pytest.approx(root, rel=1e-12, abs=0.0)

    def test_newton_needs_few_evaluations(self):
        calls = []

        def f(x):
            calls.append(x)
            return x**3, 3.0 * x * x

        root = bisect_increasing(f, 0.0, 2.0, 0.125, tol=1e-12)
        assert root == pytest.approx(0.5, rel=1e-14)
        assert len(calls) <= 20

    @pytest.mark.parametrize("w", [1e-20, 1e-118, 1e-300])
    def test_linear_phase_takes_geometric_midpoints(self, w):
        # Newton halves x at every step towards the root of 3 x^2 = w from 1/2
        calls = []

        def f(x):
            calls.append(x)
            return 3.0 * x * x, 6.0 * x

        root = bisect_increasing(f, 0.0, 1.0, w, tol=1e-12)
        assert root == pytest.approx(math.sqrt(w / 3.0), rel=1e-12, abs=0.0)
        assert len(calls) <= 60

    def test_root_at_the_bottom_of_the_bracket(self):
        # a relative stop never closes on 0: the solver says so at once
        with pytest.raises(SolverError, match="underflows"):
            bisect_increasing(
                lambda x: (x, 1.0), 0.0, 1.0, 0.0, tol=1e-12, max_iter=100
            )


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
        st = ArmsFlow(ARM).state(0.0)
        assert (st.alpha, st.beta, st.ell) == (1.0, 0.0, 1.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(DomainError):
            ArmsFlow(ARM).state(t)

    def test_pre_gel_closed_form(self):
        flow = ArmsFlow(ARM)
        for t in (0.5, 1.0, 1.7, 2.0):
            st = flow.state(t)
            assert st.alpha == pytest.approx(1.0 + t, abs=1e-12)
            assert st.beta == pytest.approx(t / (1.0 + t), abs=1e-12)

    def test_alpha_beta_monotone(self):
        flow = ArmsFlow(ARM)
        states = [flow.state(t) for t in np.linspace(0.0, 6.0, 101)]
        alphas = [s.alpha for s in states]
        betas = [s.beta for s in states]
        assert all(a <= b + 1e-12 for a, b in zip(alphas, alphas[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(betas, betas[1:]))

    def test_alpha_ode_slope(self):
        # d(alpha)/dt should equal k0(ell_t, 1)
        flow = ArmsFlow(ARM)
        h = 1e-3
        for t in (2.5, 3.0, 4.0):
            fd = (flow.state(t + h).alpha - flow.state(t - h).alpha) / (2 * h)
            st = flow.state(t)
            assert fd == pytest.approx(ARM.k0(st.ell, 1.0), abs=1e-6)

    def test_arm_count_bound(self):
        # k0(ell_t, 1)/alpha_t <= A0/(1 + t A0)
        flow = ArmsFlow(ARM)
        for t in np.linspace(0.0, 6.0, 25):
            st = flow.state(t)
            a_t = ARM.k0(st.ell, 1.0) / st.alpha
            assert a_t <= 1.0 / (1.0 + t) + 1e-9

    def test_continuity_at_gel_time(self):
        flow = ArmsFlow(ARM)
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
        assert ell_infinity(ARM) == pytest.approx(3.0 ** -0.5, rel=1e-12)  # root of D
        with pytest.raises(AssertionError, match="outside FloryArms"):
            FloryArms(ARM).state(3.0)  # the name patched is the one in use

    def test_out_of_order_queries_consistent(self):
        a = ArmsFlow(ARM)
        v1 = a.state(4.0).alpha
        v2 = a.state(3.0).alpha
        b = ArmsFlow(ARM)
        assert b.state(3.0).alpha == v2
        assert b.state(4.0).alpha == v1


@pytest.mark.parametrize("t", [2.5, 4.0, 6.0, 50.0, 200.0])
def test_closed_form_alpha_matches_gamma_quadrature(t):
    assert ArmsFlow(ARM).state(t).alpha == pytest.approx(
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


def _mp_ell(measure, t, start):
    """ell_t to 40 digits: Newton on t(x) = T_gel + int_x^1 k0''/(x k0' - k0)^2.

    t(x) is decreasing and convex, so the iteration settles on its one root
    whatever the start; it starts at the value under test only to save steps.
    """
    with mp.workdps(40):
        terms = [(a, mp.mpf(w)) for (a, _), w in measure.weights.items()]
        k0 = _mp_k0(measure)

        def rate(x):
            return k0(x, 2) / (x * k0(x, 1) - k0(x, 0)) ** 2

        A0 = sum(a * w for a, w in terms)
        K = sum(a * (a - 1) * w for a, w in terms)
        c = mp.mpf(0)
        if k0(c, 0) != 0:
            c = mp.findroot(lambda x: x * k0(x, 1) - k0(x, 0), (mp.mpf(0), mp.mpf(1)),
                            solver="anderson")

        def t_of(x):
            points = [x]  # panels as wide as their distance to the pole at c
            while points[-1] < 1:
                points.append(min(c + 2 * (points[-1] - c), mp.mpf(1)))
            return 1 / (K - A0) + mp.quad(rate, points)

        x, target = mp.mpf(start), mp.mpf(t)
        for _ in range(50):
            step = (t_of(x) - target) / rate(x)
            x += step
            if abs(step) < mp.mpf(10) ** -32 * x:
                return x
    raise AssertionError("mpmath reference did not converge")


MPMATH_LAWS = pytest.mark.parametrize("measure", [
    ArmMeasure.monodisperse(MU),
    ArmMeasure.monodisperse({0: 0.5, 2: 0.25, 3: 0.25}),  # c = 0, a double root of D
    ArmMeasure.monodisperse({0: 0.99, 1: 1e-4, 3: 0.0099}),
    ArmMeasure.monodisperse({0: 0.3, 1: 0.2, 2: 0.1, 4: 0.1, 6: 0.1, 9: 0.2}),
    ArmMeasure({(1, 1): 0.5, (3, 2): 0.5, (4, 1): 0.1}),  # k0 summed over mass
], ids=["readme", "c-zero", "small-c", "nine-arms", "general"])


@MPMATH_LAWS
def test_flow_matches_mpmath_inversion(measure):
    flow = ArmsFlow(measure)
    for dt in (1e-4, 0.03, 1.0, 50.0, 1e4):
        t = flow.t_gel + dt
        ell = flow.state(t).ell
        assert ell == pytest.approx(float(_mp_ell(measure, t, ell)), rel=1e-12, abs=0.0)


@MPMATH_LAWS
def test_alpha_and_arm_count_match_mpmath(measure):
    # alpha = k0'/D and A = k0/alpha at the 40-digit ell_t
    flow = ArmsFlow(measure)
    k0 = _mp_k0(measure)
    for dt in (1e-4, 0.03, 1.0, 50.0):
        t = flow.t_gel + dt
        state = flow.state(t)
        with mp.workdps(40):
            ell = _mp_ell(measure, t, state.ell)
            alpha = k0(ell, 1) / (ell * k0(ell, 1) - k0(ell, 0))
            arms = k0(ell, 0) / alpha
        assert state.alpha == pytest.approx(float(alpha), rel=1e-13, abs=0.0)
        assert state.A == pytest.approx(float(arms), rel=1e-13, abs=0.0)


FAR_LAWS = [
    {1: 0.03558438888743941, 2: 0.00435965163122965, 7: 8.269896045254357e-06,
     8: 0.0003140641937152215, 9: 0.004057898610257531},
    {0: 0.4656769825813181, 1: 0.00042142578133980916, 2: 0.6004698144786245,
     5: 0.0004357043082412592, 7: 1.0243419944258223e-05, 9: 1.6703107703724183e-05},
]


@pytest.mark.parametrize("mu", FAR_LAWS, ids=["c-0.774", "c-0.501"])
def test_far_times_where_a_panel_point_rounds_onto_c(mu):
    law = ArmMeasure.monodisperse(mu)
    flow = ArmsFlow(law)
    c = ell_infinity(law)
    for t in (1e16, 3.915041124593764e16, 4.83178284091214e19, 1e300):
        st = flow.state(t)
        assert st.ell == pytest.approx(c, rel=1e-12, abs=0.0)
        assert st.alpha > 0.0 and 0.0 < st.beta < math.inf


def _eager_edges(flow):
    """The panel edges as the flow once built them: every x_k at once, cut at the first failure."""
    c = flow._c
    x = c + (1.0 - c) * 2.0 ** -np.arange(_PANELS + 1.0)
    d, f = np.array([flow._integrand(v) for v in x.tolist()]).T
    ok = (np.diff(x, prepend=2.0) < 0.0) & (x > c) & (d > 0.0) & np.isfinite(f)
    return x[: x.size if ok.all() else int(np.argmin(ok))].tolist()


def _check_edges(law):
    flow = ArmsFlow(law)
    flow.state(flow.t_gel + 1e-4)
    assert len(flow._edges) == len(flow._times) == 2  # only the first panel is summed
    flow.state(1e300)  # past the last panel: every edge checked
    assert flow._edges == _eager_edges(flow)


@pytest.mark.parametrize("mu", [MU, *FAR_LAWS], ids=["readme", "c-0.774", "c-0.501"])
def test_lazy_edges_equal_the_eager_rule(mu):
    _check_edges(ArmMeasure.monodisperse(mu))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(mu=st.dictionaries(st.integers(0, 9), st.floats(1e-6, 1.0), min_size=2, max_size=6))
def test_lazy_edges_equal_the_eager_rule_on_arm_laws(mu):
    law = ArmMeasure.monodisperse(mu)
    assume(math.isfinite(gel_time(law)))
    _check_edges(law)


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


def test_flory_arms_second_moment_just_past_the_gel_time():
    # 1.00003 T_gel on a law from the arms-closed benchmark stream, where phi_t
    # is nearly flat at ell_t
    law = ArmMeasure.monodisperse({0: 0.23452407276920453, 1: 0.1652272118555979,
                                   2: 0.06596031627529694, 3: 0.23428405186460274})
    t = 1.8600947156221455
    expected = float(_mp_flory_arms(law, t)[1])
    assert FloryArms(law).second_moment(t) == pytest.approx(expected, rel=1e-10, abs=0.0)
