import math

import numpy as np
import pytest

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
    asymptotics_report,
    make_model,
    mass_right_derivative_at_gel,
    mass_square_integral,
)

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
        ell = model.ell(t)
        for x in np.linspace(0.05, ell, 7):
            assert model.gen_fun(t, model.phi(t, x)) == pytest.approx(
                model.measure.g0(x), abs=1e-8
            )

    def test_h_at_one_is_ell(self):
        model = Smoluchowski(Monodisperse())
        assert model.h_inverse(3.0, 1.0) == pytest.approx(model.ell(3.0))
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
        ell = s.ell(t)
        h = 1e-6
        slope = (s.phi(t, ell + h) - s.phi(t, ell - h)) / (2 * h)
        assert abs(slope) < 1e-8
        f = Flory(Monodisperse())
        _, slope = f._branch(t, 1.0)(f.ell(t))
        assert slope > 0.1


class TestSolveOnce:
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

    @pytest.mark.parametrize("method, most", [("h_inverse", 1), ("gen_fun", 2)])
    def test_post_gel_arms_query_reads_the_flow_once(self, monkeypatch, method, most):
        import gelsolve.characteristics

        calls = []
        real = gelsolve.characteristics.ArmsFlow.state

        def counted(self, t):
            calls.append(t)
            return real(self, t)

        monkeypatch.setattr(gelsolve.characteristics.ArmsFlow, "state", counted)
        getattr(SmoluchowskiArms(ARM), method)(4.0, 0.4)
        assert 1 <= len(calls) <= most

    def test_post_gel_flory_arms_second_moment_bisects_twice(self, monkeypatch):
        # once for the top of the increasing branch, once for ell on it
        import gelsolve.models

        calls = []
        real = gelsolve.models.bisect_increasing

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(gelsolve.models, "bisect_increasing", counted)
        assert math.isfinite(FloryArms(ARM).second_moment(4.0))
        assert len(calls) == 2


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
        l = model.ell(2.0)
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


@pytest.mark.parametrize("t", [math.nan, -1.0])
@pytest.mark.parametrize("query", ["state", "mass", "second_moment"])
@pytest.mark.parametrize("model", [
    Smoluchowski(Monodisperse()), Flory(Monodisperse()),
    SmoluchowskiArms(ARM), FloryArms(ARM),
], ids=lambda model: model.name)
def test_time_that_is_nan_or_negative_rejected(model, query, t):
    with pytest.raises(DomainError, match="time must be"):
        getattr(model, query)(t)


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
        assert model.ell(4.0) == pytest.approx(2.0 / 3.0, abs=1e-10)
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
        rep = asymptotics_report(Smoluchowski(Monodisperse()))
        assert rep["m0"] == 1.0
        assert rep["constant"] == pytest.approx(1.0, abs=1e-6)

    def test_gel_interacting_monodisperse(self):
        rep = asymptotics_report(Flory(Monodisperse()))
        assert rep["constant"] == pytest.approx(1.0, abs=1e-6)

    def test_gel_interacting_exponential(self):
        rep = asymptotics_report(Flory(ExponentialDensity()))
        assert rep["m0"] == 0.0
        assert math.isnan(rep["constant"])
        assert "-1.9" in rep["rate"] or "-2.0" in rep["rate"]


class TestInfiniteInitialMass:
    def test_immediate_gelation(self):
        model = Smoluchowski(PowerLawDensity(1.5))
        assert model.t_gel == 0.0
        for t in (0.01, 0.1, 1.0):
            assert math.isfinite(model.mass(t))

    def test_mass_square_integrable_near_zero(self):
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
