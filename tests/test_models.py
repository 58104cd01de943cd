import math

import numpy as np
import pytest

import gelsolve.models
from gelsolve.characteristics import ArmsFlow
from gelsolve.errors import DomainError, ModelError
from gelsolve.measures import (
    ArmMeasure,
    Discrete,
    ExponentialDensity,
    Monodisperse,
    PowerLawDensity,
)
from gelsolve.models import (
    Flory,
    FloryArms,
    Smoluchowski,
    SmoluchowskiArms,
    make_model,
    mass_right_derivative_at_gel,
)
from gelsolve.series import arms_concentrations, concentrations

MU = {0: 0.5, 1: 0.25, 3: 0.25}
ARM = ArmMeasure.monodisperse(MU)


class TestMass:
    def test_monodisperse_hyperbola(self):
        model = Smoluchowski(Monodisperse())
        assert model.mass(0.5) == 1.0
        assert model.mass(2.0) == pytest.approx(0.5, abs=1e-11)

    def test_exponential_closed_form(self):
        model = Smoluchowski(ExponentialDensity())
        assert model.mass(4.0) == pytest.approx(0.25, abs=1e-10)

    @pytest.mark.parametrize("t", [1e12, 1e100])
    def test_monodisperse_hyperbola_at_large_times(self, t):
        # ell_t = 1/t: the root solver's stop is relative to the root
        model = Smoluchowski(Monodisperse())
        assert model.mass(t) * t == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("t", [1e3, 1e6])
    def test_exponential_closed_form_at_large_times(self, t):
        # x g0'(x) = 2/u^3 = 1/t with u = 1 - ln x, so M_t = u^-2 = (2t)^(-2/3)
        expected = (2.0 * t) ** (-2.0 / 3.0)
        model = Smoluchowski(ExponentialDensity())
        assert model.mass(t) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_flory_fixed_point(self):
        model = Flory(Monodisperse())
        assert model.mass(2.0) == pytest.approx(0.203188, abs=1e-5)

    def test_continuity_at_gel_time(self):
        model = Smoluchowski(Monodisperse())
        for eps in (1e-2, 1e-4, 1e-6):
            assert abs(model.mass(1.0 + eps) - 1.0) < 2 * eps + 1e-9

    def test_strictly_decreasing_post_gel(self):
        for model in (Smoluchowski(Monodisperse()), Flory(Monodisperse())):
            grid = np.linspace(1.1, 6.0, 30)
            vals = [model.mass(t) for t in grid]
            assert all(a > b for a, b in zip(vals, vals[1:]))


class TestFlorySmoluOrdering:
    @pytest.mark.parametrize(
        "measure", [Monodisperse(), Discrete([(1, 0.5), (2, 0.25)])]
    )
    def test_flory_below_smoluchowski(self, measure):
        s = Smoluchowski(measure)
        f = Flory(measure)
        t_gel = s.t_gel
        for t in np.linspace(0.1, t_gel, 6):
            assert f.mass(t) == pytest.approx(s.mass(t), abs=1e-10)
        for t in np.linspace(t_gel * 1.05, 5.0, 12):
            assert f.mass(t) < s.mass(t)


class TestCharacteristicRoundTrip:
    @pytest.mark.parametrize("t", [0.5, 2.0, 3.5])
    def test_classic(self, t):
        for model in (Smoluchowski(Monodisperse()), Flory(Monodisperse())):
            for x in (0.0, 0.25, 0.5, 0.75, 1.0):
                h = model.h_inverse(t, x)
                assert model.phi(t, h) == pytest.approx(x, abs=1e-11)

    @pytest.mark.parametrize("t", [0.5, 3.0])
    def test_arms(self, t):
        for model in (SmoluchowskiArms(ARM), FloryArms(ARM)):
            for x in (0.25, 0.5, 0.75, 1.0):
                h = model.h_inverse(t, x, 1.0)
                assert model.phi(t, h, 1.0) == pytest.approx(x, abs=1e-10)

    def test_conservation_along_characteristics(self):
        # g_t(phi_t(x)) = g0(x) on the increasing branch
        model = Smoluchowski(Monodisperse())
        t = 2.0
        ell = model.state(t).ell
        for x in np.linspace(0.05, ell, 7):
            assert model.gen_fun(t, model.phi(t, x)) == pytest.approx(
                model.measure.g0(x), abs=1e-8
            )

    def test_h_at_one_is_ell(self):
        model = Smoluchowski(Monodisperse())
        assert model.h_inverse(3.0, 1.0) == pytest.approx(model.state(3.0).ell)
        flory = Flory(Monodisperse())
        assert flory.h_inverse(2.0, 1.0) == pytest.approx(0.203188, abs=1e-5)


class TestPhiShape:
    def test_phi_at_one_pre_gel(self):
        s = Smoluchowski(Monodisperse())
        assert s.phi(0.5, 1.0) == pytest.approx(1.0, abs=1e-12)
        f = Flory(Monodisperse())
        for t in (0.5, 2.0):
            assert f.phi(t, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_phi_at_zero(self):
        for model in (Smoluchowski(Monodisperse()), Flory(Monodisperse())):
            assert model.phi(1.5, 0.0) == 0.0

    def test_critical_point_derivative(self):
        # post-gel the gel-inert map is flat at ell, the gel-interacting
        # map still rises at its root
        t = 2.0
        s = Smoluchowski(Monodisperse())
        ell = s.state(t).ell
        h = 1e-6
        slope = (s.phi(t, ell + h) - s.phi(t, ell - h)) / (2 * h)
        assert abs(slope) < 1e-8
        f = Flory(Monodisperse())
        _, slope = f._branch(t, 1.0)(f.state(t).ell)
        assert slope > 0.1


class TestSolveOnce:
    @staticmethod
    def _count(monkeypatch, holder, name):
        calls = []
        real = getattr(holder, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(holder, name, counted)
        return calls

    def test_smoluchowski_arms_miss_checks_t_once_and_builds_one_state(self, monkeypatch):
        import gelsolve.characteristics

        checks, states = [], []
        for module in (gelsolve.characteristics, gelsolve.models):
            checks.append(self._count(monkeypatch, module, "check_time"))
            states.append(self._count(monkeypatch, module, "SolutionState"))
        model = SmoluchowskiArms(ARM)
        for misses, t in enumerate((0.5 * model.t_gel, 3.0 * model.t_gel), 1):
            model.state(t)
            model.arms_count(t)  # a hit: no check, no state
            model.mass(t)
            assert sum(map(len, checks)) == misses
            assert sum(map(len, states)) == misses

    def test_flory_trajectory_row_solves_ell_once(self, monkeypatch):
        # a trajectory row asks state(t), then second_moment(t), past T_gel
        calls = self._count(monkeypatch, gelsolve.models, "l_flory")
        model = Flory(Monodisperse())
        model.state(2.0)
        model.second_moment(2.0)
        assert len(calls) == 1

    def test_post_gel_batch_solves_ell_once(self, monkeypatch):
        calls = self._count(monkeypatch, gelsolve.models, "ell_smolu")
        model = Smoluchowski(Discrete([(1, 0.5), (2, 0.25)]))
        model.gen_fun(2.0, 0.4)
        model.h_inverse(2.0, 0.7)
        model.second_moment(2.0)
        model.mass(2.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("make, holder, name", [
        (lambda: Smoluchowski(Discrete([(1, 0.5), (2, 0.25)])), gelsolve.models, "ell_smolu"),
        (lambda: Flory(Discrete([(1, 0.5), (2, 0.25)])), gelsolve.models, "l_flory"),
        (lambda: SmoluchowskiArms(ARM), ArmsFlow, "state"),
        (lambda: FloryArms(ARM), gelsolve.models, "polynomial_root"),
    ], ids=["smoluchowski", "flory", "smoluchowski-arms", "flory-arms"])
    def test_interleaved_times_match_fresh_models(self, monkeypatch, make, holder, name):
        # past T_gel at t1, t2, t1: each change of time solves once, and no
        # query reads the state of another time
        model = make()
        times = (2.5 * model.t_gel, 4.0 * model.t_gel, 2.5 * model.t_gel)
        queries = ("mass", "second_moment") + ("arms_count",) * model.is_arms

        def answers(m, t):
            return [m.state(t).ell] + [getattr(m, q)(t) for q in queries]

        fresh = [answers(make(), t) for t in times]
        calls = self._count(monkeypatch, holder, name)
        assert [answers(model, t) for t in times] == fresh
        assert len(calls) == 3

    @pytest.mark.parametrize("method", ["gen_fun", "h_inverse"])
    def test_post_gel_query_solves_ell_once(self, monkeypatch, method):
        import gelsolve.models

        calls = []
        real = gelsolve.models.ell_smolu

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(gelsolve.models, "ell_smolu", counted)
        model = Smoluchowski(Discrete([(1, 0.5), (2, 0.25)]))
        getattr(model, method)(2.0, 0.4)
        assert len(calls) == 1

    @pytest.mark.parametrize("method", ["h_inverse", "gen_fun"])
    def test_post_gel_arms_query_reads_the_flow_once(self, monkeypatch, method):
        import gelsolve.characteristics

        calls = []
        real = gelsolve.characteristics.ArmsFlow.state

        def counted(self, t):
            calls.append(t)
            return real(self, t)

        monkeypatch.setattr(gelsolve.characteristics.ArmsFlow, "state", counted)
        getattr(SmoluchowskiArms(ARM), method)(4.0, 0.4)
        assert len(calls) == 1

    def test_post_gel_flory_arms_second_moment_bisects_once(self, monkeypatch):
        # ell_t is one root of Q = 1/t, and the long-time ell one root of Q = 0;
        # counted through every binding of the solver the two can reach
        import gelsolve.characteristics

        calls = []
        for module in (gelsolve.characteristics, gelsolve.models):
            calls.append(self._count(monkeypatch, module, "bisect_increasing"))
        assert math.isfinite(FloryArms(ARM).second_moment(4.0))
        assert sum(map(len, calls)) == 1
        FloryArms(ARM).limit()
        assert sum(map(len, calls)) == 2


class TestRootEvaluations:
    def test_newton_steps_keep_roots_cheap(self, monkeypatch):
        # every root, counted through the module bindings
        import gelsolve.characteristics
        import gelsolve.models

        real = gelsolve.characteristics.bisect_increasing
        counts = []

        def counted(f, *args, **kwargs):
            n = [0]

            def g(x):
                n[0] += 1
                return f(x)

            try:
                return real(g, *args, **kwargs)
            finally:
                counts.append(n[0])

        for module in (gelsolve.characteristics, gelsolve.models):
            monkeypatch.setattr(module, "bisect_increasing", counted)
        models = [
            cls(law)
            for law in (
                Monodisperse(),
                Discrete([(1, 0.5), (2, 0.3), (5, 0.2)]),
                ExponentialDensity(),
                PowerLawDensity(1.5),
            )
            for cls in (Smoluchowski, Flory)
            if math.isfinite(law.moments().M0) or cls is Smoluchowski
        ] + [SmoluchowskiArms(ARM), FloryArms(ARM)]
        for model in models:
            if model.is_arms:
                model.limit()
            for factor in np.geomspace(0.3, 30.0, 5):
                t = factor * (model.t_gel or 1.0)  # the power law gels at 0
                model.state(t)
                for x in np.linspace(0.02, 0.98, 5):
                    model.h_inverse(t, x)
        assert len(counts) > 200
        assert np.mean(counts) <= 12
        assert max(counts) <= 60

    @staticmethod
    def _count_k0(monkeypatch):
        real = ArmMeasure.k0
        n = [0]

        def counted(self, *args, **kwargs):
            n[0] += 1
            return real(self, *args, **kwargs)

        monkeypatch.setattr(ArmMeasure, "k0", counted)
        return n

    @pytest.mark.parametrize("t", [2.5, 4.0, 20.0])
    def test_post_gel_arms_roots_take_newton_steps(self, monkeypatch, t):
        # the top of the concave branch, phi' = 0, has the slope alpha beta k0''
        n = self._count_k0(monkeypatch)
        for solve in (
            lambda: FloryArms(ARM).state(t),
            lambda: FloryArms(ARM).h_inverse(t, 0.4),
            lambda: SmoluchowskiArms(ARM).h_inverse(t, 0.4),
        ):
            n[0] = 0
            solve()
            assert n[0] <= 30  # k0 evaluations of any order

    def test_flory_arms_limit_takes_newton_steps(self, monkeypatch):
        n = self._count_k0(monkeypatch)
        FloryArms(ARM).limit()
        assert n[0] <= 15


class TestSecondMoment:
    def test_pre_gel_blowup(self):
        model = Smoluchowski(Monodisperse())
        for t in np.arange(0.1, 1.0, 0.1):
            assert model.second_moment(t) == pytest.approx(1.0 / (1.0 - t))
        assert model.second_moment(1.5) == math.inf

    def test_t_zero_matches_K(self):
        exp = Smoluchowski(ExponentialDensity())
        assert exp.second_moment(0.0) == 2.0

    def test_flory_post_gel_finite(self):
        model = Flory(Monodisperse())
        assert model.second_moment(1.0) == math.inf
        val = model.second_moment(2.0)
        l = model.state(2.0).ell
        assert val == pytest.approx(l / (1.0 - 2.0 * l), abs=1e-9)

    def test_arms_pre_gel(self):
        model = SmoluchowskiArms(ARM)
        t = 1.0
        alpha = 1.0 + t
        beta = t / (1.0 + t)
        expected = 1.5 / (alpha**2 * (1.0 - beta * 1.5)) + 0.5
        assert model.second_moment(t) == pytest.approx(expected, rel=1e-9)
        assert model.second_moment(3.0) == math.inf

    def test_flory_arms_post_gel_finite(self):
        model = FloryArms(ARM)
        assert model.second_moment(2.0) == math.inf
        assert math.isfinite(model.second_moment(4.0))


#: Every query at a time, by name; x = 0.5 where a query takes a point.
TIME_QUERIES = {
    "state": lambda model, t: model.state(t),
    "mass": lambda model, t: model.mass(t),
    "second_moment": lambda model, t: model.second_moment(t),
    "ell": lambda model, t: model.state(t).ell,
    "arms_count": lambda model, t: model.arms_count(t),
    "phi": lambda model, t: model.phi(t, 0.5),
    "h_inverse": lambda model, t: model.h_inverse(t, 0.5),
    "gen_fun": lambda model, t: model.gen_fun(t, 0.5),
    "anchor-or-coeffs": lambda model, t: (model.coeffs if model.is_arms else model.anchor)(t),
    "series": lambda model, t: (
        arms_concentrations(model, t, 4, 4) if model.is_arms else concentrations(model, t, 5)
    ),
}


@pytest.mark.parametrize("t", [math.nan, -1.0, math.inf])
@pytest.mark.parametrize("query", list(TIME_QUERIES))
@pytest.mark.parametrize("model", [
    Smoluchowski(Monodisperse()), Flory(Monodisperse()),
    SmoluchowskiArms(ARM), FloryArms(ARM),
], ids=lambda model: model.name)
def test_time_that_is_nan_or_negative_rejected(model, query, t):
    # +inf too: the long-time state is an arms model's limit()
    message = "time must be finite and >= 0"
    if query == "arms_count" and not model.is_arms:
        message = "no arm structure"
    with pytest.raises(DomainError, match=message):
        TIME_QUERIES[query](model, t)


class TestArmsModels:
    def test_pre_gel_arm_count(self):
        for model in (SmoluchowskiArms(ARM), FloryArms(ARM)):
            for t in (0.0, 0.5, 1.0, 1.9):
                assert model.arms_count(t) == pytest.approx(
                    1.0 / (1.0 + t), abs=1e-9
                )

    def test_flory_arms_root(self):
        model = FloryArms(ARM)
        # 3 l^2 - 5 l + 2 = 0 at t = 4: smallest root 2/3
        assert model.state(4.0).ell == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert model.arms_count(4.0) == pytest.approx(7.0 / 60.0, abs=1e-10)

    def test_arm_count_strictly_decreasing(self):
        model = FloryArms(ARM)
        grid = np.linspace(0.0, 6.0, 25)
        vals = [model.arms_count(t) for t in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_arm_count_continuous_at_gel(self):
        model = FloryArms(ARM)
        assert model.arms_count(2.0 + 1e-8) == pytest.approx(
            model.arms_count(2.0), abs=1e-6
        )

    def test_gen_fun_at_corner_is_arm_count(self):
        model = SmoluchowskiArms(ARM)
        for t in (1.0, 3.0):
            assert model.gen_fun(t, 1.0, 1.0) == pytest.approx(
                model.arms_count(t), abs=1e-9
            )

    def test_gen_fun_at_t_zero(self):
        model = FloryArms(ARM)
        for x in (0.3, 0.8):
            assert model.gen_fun(0.0, x, 1.0) == pytest.approx(
                ARM.k0(x, 1.0), abs=1e-10
            )

    @pytest.mark.parametrize("cls", [SmoluchowskiArms, FloryArms])
    def test_h_inverse_at_zero_without_one_arm_particles(self, cls):
        # mu(1) = 0 gives k0(0) = 0, so phi_t(0) = 0 and h_t(0) = 0 exactly
        model = cls(ArmMeasure.monodisperse({0: 0.5, 2: 0.25, 3: 0.25}))
        for t in (0.5, 4.0):
            assert model.h_inverse(t, 0.0) == 0.0

    def test_mass_decreases_after_gel(self):
        model = FloryArms(ARM)
        assert model.mass(1.0) == pytest.approx(1.0, abs=1e-4)
        assert model.mass(3.0) < model.mass(2.5) < 1.0

    def test_flory_arms_sol_mass_closed_form(self):
        # K0(2/3) = 1/2 + (1/4)(2/3) + (1/4)(2/3)^3
        assert FloryArms(ARM).mass(4.0) == pytest.approx(20.0 / 27.0, rel=1e-12)

    def test_smoluchowski_arms_sol_mass(self):
        model = SmoluchowskiArms(ARM)
        for t in np.linspace(0.0, 2.0, 9):
            assert model.mass(t) == 1.0  # M0 up to T_gel
        assert model.mass(2.0 + 1e-9) == pytest.approx(1.0, abs=1e-8)
        assert model.mass(4.0) == pytest.approx(0.84865, abs=5e-6)
        assert model.state(4.0).M == model.mass(4.0)

    @pytest.mark.parametrize("t", [2.5, 4.0, 6.0, 20.0])
    def test_post_gel_state_is_the_peak_of_phi(self, t):
        # the gel-inert state puts phi_t's maximum, of value 1, at ell
        model = SmoluchowskiArms(ARM)
        ell = model.state(t).ell
        assert abs(model.phi(t, ell, 1.0) - 1.0) <= 1e-12
        _, slope = model._branch(*model.coeffs(t))(ell)
        assert abs(slope) <= 1e-12


class TestModelDispatch:
    def test_make_model(self):
        assert isinstance(make_model("smoluchowski", Monodisperse()), Smoluchowski)
        assert isinstance(make_model("flory-arms", ARM), FloryArms)
        with pytest.raises(ModelError):
            make_model("bogus", Monodisperse())

    def test_measure_compatibility(self):
        with pytest.raises(ModelError):
            Flory(PowerLawDensity(1.5))  # infinite initial mass
        with pytest.raises(ModelError):
            SmoluchowskiArms(Monodisperse())
        with pytest.raises(ModelError):
            Smoluchowski(ARM)

    def test_classic_has_no_arms(self):
        with pytest.raises(DomainError):
            Smoluchowski(Monodisperse()).arms_count(1.0)


class _FunctionMeasure:
    """Ad-hoc g0 given by callables, for the gel-derivative probe."""

    def __init__(self, g, g1, g2):
        self._fns = (g, g1, g2)

    def g0(self, x, order=0):
        return self._fns[order](x)


def _family_log():
    return _FunctionMeasure(
        lambda x: (1 - x) * math.log1p(-x) + x,
        lambda x: -math.log1p(-x),
        lambda x: 1.0 / (1.0 - x),
    )


def _family_sqrt_log():
    def g(x):
        return math.sqrt(1 - x) * math.log(1 - x) + x

    def g1(x):
        e = 1.0 - x
        return -math.log(e) / (2 * math.sqrt(e)) - 1 / math.sqrt(e) + 1

    def g2(x):
        e = 1.0 - x
        return -math.log(e) / (4 * e**1.5) - 1 / (2 * e**1.5) - 1 / (2 * e**1.5)

    return _FunctionMeasure(g, g1, g2)


def _family_sqrt():
    return _FunctionMeasure(
        lambda x: 1 - math.sqrt(1 - x),
        lambda x: 0.5 * (1 - x) ** -0.5,
        lambda x: 0.25 * (1 - x) ** -1.5,
    )


class TestGelDerivative:
    def test_vanishing_limit(self):
        assert abs(mass_right_derivative_at_gel(_family_log())) <= 1e-6

    def test_divergent_limit(self):
        assert mass_right_derivative_at_gel(_family_sqrt_log()) == -math.inf

    def test_finite_limit(self):
        val = mass_right_derivative_at_gel(_family_sqrt())
        assert val == pytest.approx(-0.5, abs=1e-4)

    def test_monodisperse(self):
        # M = 1/t after gelation, so the slope at the gel time is -1
        assert mass_right_derivative_at_gel(Monodisperse()) == pytest.approx(
            -1.0, abs=1e-9
        )


class TestAsymptotics:
    def test_gel_inert_monodisperse(self):
        # 1/(t M_t) -> m0 = 1
        t = 1e4
        mass = Smoluchowski(Monodisperse()).mass(t)
        assert 1.0 / (t * mass) == pytest.approx(1.0, abs=1e-6)

    def test_gel_interacting_monodisperse(self):
        # M_t e^(m0 t) -> m0 mu0({m0}) = 1
        t = 30.0
        assert Flory(Monodisperse()).mass(t) * math.exp(t) == pytest.approx(1.0, abs=1e-6)

    def test_gel_interacting_exponential(self):
        # m0 = 0: a power-law decay, with an empirical exponent near -2
        model = Flory(ExponentialDensity())
        t1, t2 = 50.0, 500.0
        slope = math.log(model.mass(t2) / model.mass(t1)) / math.log(t2 / t1)
        assert f"{slope:.3f}".startswith(("-1.9", "-2.0"))


class TestInfiniteInitialMass:
    def test_immediate_gelation(self):
        model = Smoluchowski(PowerLawDensity(1.5))
        assert model.t_gel == 0.0
        for t in (0.01, 0.1, 1.0):
            assert math.isfinite(model.mass(t))

    def test_mass_square_integrable_near_zero(self, mass_square_integral):
        model = Smoluchowski(PowerLawDensity(1.5))
        prev = mass_square_integral(model, 1e-4, 0.1)
        delta = 1e-4
        diffs = []
        while delta > 1e-14:
            delta /= 2.0
            cur = mass_square_integral(model, delta, 0.1)
            diffs.append(cur - prev)
            prev = cur
        assert all(d > 0 for d in diffs)
        assert diffs[-1] < 1e-4
