import math

import numpy as np
import pytest

from gelsolve.errors import DomainError
from gelsolve.measures import (
    ArmMeasure,
    Discrete,
    ExponentialDensity,
    Monodisperse,
    PowerLawDensity,
    arm_measure_from_config,
    conv_power,
    mass_measure_from_config,
)

MU = {0: 0.5, 1: 0.25, 3: 0.25}


class TestMoments:
    def test_monodisperse(self):
        mom = Monodisperse().moments()
        assert (mom.M0, mom.K, mom.m0) == (1.0, 1.0, 1.0)

    def test_exponential(self):
        # int m e^-m dm = 1, int m^2 e^-m dm = 2
        mom = ExponentialDensity().moments()
        assert (mom.M0, mom.K, mom.m0) == (1.0, 2.0, 0.0)

    def test_single_atom(self):
        mom = Discrete([(2.0, 0.5)]).moments()
        assert (mom.M0, mom.K, mom.m0) == (1.0, 2.0, 2.0)

    def test_powerlaw_infinite(self):
        mom = PowerLawDensity(1.5).moments()
        assert math.isinf(mom.M0) and math.isinf(mom.K)
        assert mom.m0 == 0.0

    def test_discrete_matches_brute_force(self):
        atoms = [(1.0, 0.3), (2.5, 0.1), (7.0, 0.02)]
        mom = Discrete(atoms).moments()
        assert mom.M0 == sum(w * m for m, w in atoms)
        assert mom.K == sum(w * m * m for m, w in atoms)


class TestG0:
    def test_monodisperse_is_identity(self):
        assert Monodisperse().g0(0.5) == 0.5

    def test_exponential_closed_form(self):
        x = math.exp(-1.0)
        assert ExponentialDensity().g0(x) == pytest.approx(0.25, abs=1e-15)

    def test_powerlaw_diverges_at_one(self):
        assert PowerLawDensity(1.5).g0(1.0) == math.inf

    def test_domain_check(self):
        with pytest.raises(DomainError):
            Monodisperse().g0(1.5)
        with pytest.raises(DomainError):
            ExponentialDensity().g0(-0.1)

    @pytest.mark.parametrize(
        "measure",
        [
            Monodisperse(),
            Discrete([(1, 0.5), (2, 0.25), (5, 0.1)]),
            ExponentialDensity(),
            PowerLawDensity(1.5),
            PowerLawDensity(1.9),
        ],
    )
    def test_derivative_matches_finite_differences(self, measure):
        h = 1e-5
        for x in np.arange(0.1, 0.95, 0.1):
            fd = (measure.g0(x + h) - measure.g0(x - h)) / (2 * h)
            assert measure.g0(x, 1) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize(
        "measure", [ExponentialDensity(), PowerLawDensity(1.5)]
    )
    def test_second_derivative_matches_finite_differences(self, measure):
        h = 1e-4
        for x in np.arange(0.2, 0.9, 0.1):
            fd = (measure.g0(x + h, 1) - measure.g0(x - h, 1)) / (2 * h)
            assert measure.g0(x, 2) == pytest.approx(fd, rel=1e-5)

    @pytest.mark.parametrize(
        "measure", [ExponentialDensity(), PowerLawDensity(1.5)]
    )
    def test_second_derivative_below_the_square_root_of_tiny(self, measure):
        # x * x underflows here; g0'' tends to -inf as x -> 0
        for x in (1e-160, 1e-300, 5e-324):
            assert measure.g0(x, 2) == -math.inf

    def test_x_times_g0prime_increasing(self):
        # the root-finding below relies on this monotonicity
        for measure in (ExponentialDensity(), PowerLawDensity(1.5)):
            grid = np.arange(0.05, 1.0, 0.05)
            vals = [x * measure.g0(x, 1) for x in grid]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_lattice_convexity(self):
        measure = Discrete([(1, 0.5), (3, 0.5)])
        grid = np.arange(0.1, 1.0, 0.1)
        assert all(measure.g0(x, 2) >= 0.0 for x in grid)


class TestValidation:
    def test_powerlaw_exponent_range(self):
        with pytest.raises(DomainError):
            PowerLawDensity(1.0)  # tail moment diverges
        with pytest.raises(DomainError):
            PowerLawDensity(2.0)

    def test_bad_atoms(self):
        with pytest.raises(DomainError):
            Discrete([])
        with pytest.raises(DomainError):
            Discrete([(0.0, 1.0)])
        with pytest.raises(DomainError):
            Discrete([(1.0, -1.0)])

    @pytest.mark.parametrize("atom", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
    ])
    def test_non_finite_atom(self, atom):
        with pytest.raises(DomainError, match="must be finite"):
            Discrete([(1.0, 0.5), atom])

    def test_lattice_weights(self):
        w = Discrete([(1, 0.5), (3, 0.25)]).lattice_weights(4)
        assert list(w) == [0.0, 0.5, 0.0, 0.25, 0.0]
        with pytest.raises(DomainError):
            Discrete([(1.5, 1.0)]).lattice_weights(4)


class TestArmMeasure:
    def test_k0_at_corners(self):
        arm = ArmMeasure.monodisperse(MU)
        assert arm.k0(1.0, 1.0) == pytest.approx(1.0)  # = A0
        assert arm.k0(0.0, 1.0) == pytest.approx(0.25)  # only a=1 survives
        assert arm.k0(0.7, 0.0) == 0.0  # every term carries y^m

    def test_k0_quadratic_form(self):
        # for this mu, k0(x, 1) = 1/4 + 3/4 x^2
        arm = ArmMeasure.monodisperse(MU)
        for x in (0.0, 0.3, 0.8, 1.0):
            assert arm.k0(x, 1.0) == pytest.approx(0.25 + 0.75 * x * x)

    def test_k0_partial_matches_finite_differences(self):
        # order n is the central difference of order n - 1
        arm = ArmMeasure({(1, 1): 0.2, (3, 2): 0.3, (4, 5): 0.1})
        h = 1e-6
        for order in (1, 2):
            for x in (0.2, 0.5, 0.8):
                up, down = arm.k0(x + h, 0.9, order - 1), arm.k0(x - h, 0.9, order - 1)
                fd = (up - down) / (2 * h)
                assert arm.k0(x, 0.9, order) == pytest.approx(fd, rel=1e-6)

    def test_k0_order_is_checked(self):
        with pytest.raises(DomainError):
            ArmMeasure.monodisperse(MU).k0(0.5, 1.0, 3)

    def test_k0_convex_in_x(self):
        arm = ArmMeasure.monodisperse(MU)
        grid = np.arange(0.0, 1.01, 0.1)
        vals = [arm.k0(x, 1.0, 1) for x in grid]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_summary_stats(self):
        arm = ArmMeasure.monodisperse(MU)
        assert arm.A0 == 1.0
        assert arm.K == 1.5
        assert arm.M0 == 1.0

    def test_requires_positive_arm_count(self):
        with pytest.raises(DomainError):
            ArmMeasure({(0, 1): 1.0})

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_weight(self, weight):
        # a nan weight was dropped, and the rest of the law solved
        with pytest.raises(DomainError, match="must be finite"):
            ArmMeasure.monodisperse({0: 0.5, 1: 0.25, 3: weight})

    def test_arm_law_roundtrip(self):
        arm = ArmMeasure.monodisperse(MU)
        assert arm.arm_law() == MU
        mixed = ArmMeasure({(1, 1): 0.5, (2, 3): 0.5})
        with pytest.raises(DomainError):
            mixed.arm_law()


class TestNu:
    def test_from_mu(self):
        nu = ArmMeasure.monodisperse(MU).nu()
        assert list(nu) == [0.25, 0.0, 0.75]
        assert nu[0] != 0.0

    def test_delta_one(self):
        nu = ArmMeasure.monodisperse({1: 1.0}).nu()
        assert list(nu) == [1.0]
        assert nu.sum() == 1.0

    def test_degenerate_flag(self):
        assert ArmMeasure.monodisperse({2: 1.0}).nu()[0] == 0.0

    def test_conv_power_hand_values(self):
        nu = ArmMeasure.monodisperse(MU).nu()  # {0: 1/4, 2: 3/4}
        sq = list(conv_power(nu, 2, 4))[1]
        assert sq[0] == pytest.approx(1 / 16)
        assert sq[2] == pytest.approx(3 / 8)
        assert sq[4] == pytest.approx(9 / 16)

    def test_conv_power_identity_cases(self):
        nu = ArmMeasure.monodisperse(MU).nu()
        assert np.allclose(next(conv_power(nu, 1, 2)), nu)
        delta0 = np.array([1.0])
        for m in (1, 3, 7):
            out = list(conv_power(delta0, m, 3))[m - 1]
            assert out[0] == 1.0 and not out[1:].any()

    def test_conv_power_mass_multiplicative(self):
        nu = ArmMeasure.monodisperse({0: 0.3, 1: 0.2, 2: 0.4, 4: 0.35}).nu()
        total = nu.sum()
        rows = list(conv_power(nu, 10, 50))
        for m in range(1, 11):
            assert rows[m - 1].sum() == pytest.approx(total**m, rel=1e-12)

    def test_conv_power_truncates_to_the_window(self):
        # a 20000-long nu is cut to the 6 entries the window can see
        nu = ArmMeasure.monodisperse({0: 0.5, 1: 0.5, 20000: 1e-9}).nu()
        rows = np.array(list(conv_power(nu, 3, 5)))
        assert rows.shape == (3, 6)
        assert rows[2, 0] == pytest.approx(0.125) and not rows[2, 1:].any()

class TestConfigLoading:
    def test_mass_measures(self):
        assert isinstance(
            mass_measure_from_config({"type": "monodisperse"}), Monodisperse
        )
        assert isinstance(
            mass_measure_from_config({"type": "exponential"}), ExponentialDensity
        )
        pl = mass_measure_from_config({"type": "powerlaw", "p": 1.5})
        assert pl.p == 1.5
        d = mass_measure_from_config({"type": "discrete", "atoms": [[2, 0.5]]})
        assert d.atoms == ((2.0, 0.5),)

    def test_arm_measures(self):
        a = arm_measure_from_config({"type": "arms", "triples": [[3, 1, 0.25]]})
        assert a.weights == {(3, 1): 0.25}
        b = arm_measure_from_config(
            {"type": "arm-law", "mu": {"0": 0.5, "1": 0.25, "3": 0.25}}
        )
        assert b.arm_law() == MU

    def test_rejects_junk(self):
        with pytest.raises(DomainError):
            mass_measure_from_config({"type": "gaussian"})
        with pytest.raises(DomainError):
            mass_measure_from_config("monodisperse")
        with pytest.raises(DomainError):
            arm_measure_from_config({"type": "monodisperse"})
