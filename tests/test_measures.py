import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gelsolve.characteristics import horner
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

    @pytest.mark.parametrize("atoms", [
        [(1.0, 1e308), (2.0, 1e308)],  # both sums overflow
        [(2.0, 1e308)],  # K only
        [(0.9, 1e308), (0.9, 1e308)],  # M0 only: below mass 1, K = 1.62e308
    ], ids=["both", "second-moment", "first-moment"])
    def test_finite_atoms_whose_moments_overflow(self, atoms):
        # an infinite M0 or K from finite atoms is no admissible datum
        measure = Discrete(atoms)  # the sums are formed at the first call
        with pytest.raises(DomainError, match="overflow"):
            measure.moments()


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

    @pytest.mark.parametrize("weights", [
        {(0, 1): 1e308, (3, 1): 1e308},  # A0, K, M0 and total
        {(1, 1): 1e308, (1, 2): 1e308},  # A0, M0 and total
        {(0, 1): 1e308, (1, 1): 1e308},  # total only
        {(1, 1): 1.0, (200, 1): 1e305},  # K only
    ], ids=["all", "first-moments", "total", "second-moment"])
    def test_finite_weights_whose_sums_overflow(self, weights):
        with pytest.raises(DomainError, match="overflow"):
            ArmMeasure(weights)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_weight(self, weight):
        # a nan weight was dropped, and the rest of the law solved
        with pytest.raises(DomainError, match="must be finite"):
            ArmMeasure.monodisperse({0: 0.5, 1: 0.25, 3: weight})

    @pytest.mark.parametrize("a, m", [(1.5, 1), (1, 1.7), (math.inf, 1), (1, math.nan)])
    def test_fractional_arm_count_or_mass(self, a, m):
        # int() truncated 1.5 arms to 1, so another measure was solved
        with pytest.raises(DomainError, match="must be whole numbers"):
            ArmMeasure({(a, m): 1.0})

    def test_integral_floats_are_counts(self):
        assert ArmMeasure({(3.0, 2.0): 0.5}).weights == {(3, 2): 0.5}

    def test_arm_law_roundtrip(self):
        # K0's coefficients, lowest first, are the law mu(a) at index a
        arm = ArmMeasure.monodisperse(MU)
        assert list(arm.polynomial()[::-1]) == [MU.get(a, 0.0) for a in range(4)]
        mixed = ArmMeasure({(1, 1): 0.5, (2, 3): 0.5})
        with pytest.raises(DomainError, match="monodisperse"):
            mixed.nu()


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
        assert list(b.polynomial()[::-1]) == [MU.get(a, 0.0) for a in range(4)]

    @pytest.mark.parametrize("spec", [
        {"type": "discrete", "atoms": [[True, 1]]},
        {"type": "discrete", "atoms": [[1, 0.5], [2, True]]},
        {"type": "powerlaw", "p": True},
    ], ids=["atom-mass", "atom-weight", "powerlaw-p"])
    def test_boolean_is_not_a_mass_measure_number(self, spec):
        # float(True) is 1: the atom [true, 1] was solved as [1, 1]
        with pytest.raises(DomainError, match="measure value true is not a number"):
            mass_measure_from_config(spec)

    @pytest.mark.parametrize("spec", [
        {"type": "arms", "triples": [[True, 1, 1]]},
        {"type": "arms", "triples": [[1, True, 1]]},
        {"type": "arms", "triples": [[1, 1, 0.5], [3, 1, False]]},
        {"type": "arm-law", "mu": {"3": True}},
    ], ids=["triple-arms", "triple-mass", "triple-weight", "arm-law-weight"])
    def test_boolean_is_not_an_arm_measure_number(self, spec):
        with pytest.raises(DomainError, match="is not a number"):
            arm_measure_from_config(spec)

    def test_fractional_triple_is_rejected(self):
        with pytest.raises(DomainError, match="arm count 1.5 and mass 1.7 must be whole"):
            arm_measure_from_config({"type": "arms", "triples": [[1.5, 1.7, 1]]})

    def test_rejects_junk(self):
        with pytest.raises(DomainError):
            mass_measure_from_config({"type": "gaussian"})
        with pytest.raises(DomainError):
            mass_measure_from_config("monodisperse")
        with pytest.raises(DomainError):
            arm_measure_from_config({"type": "monodisperse"})


# ---------------------------------------------------------------------------
# The kernels against the written sums they replaced: every term is the same
# product, and the terms are added left to right from the int 0, so an empty
# sum stays 0 and each value matches bit for bit.  g0 at x = 0 is the one
# exception: it applies its tiny-x limit rule there too, so its sums are
# floats, and the reference keeps the case analysis that rule replaced.

def _left_to_right(terms):
    total = 0
    for term in terms:
        total += term
    return total


def _check(x, name="x"):
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"{name}={x!r} outside [0, 1]")


def _term(c, x, e):
    """c x^e, or its limit where x^e overflows: 0 for c = 0, else +-inf by the sign of c."""
    try:
        return c * x**e
    except OverflowError:
        return math.copysign(math.inf, c) if c else 0.0


def _written_discrete_g0(atoms, x, order):
    _check(x)
    if order == 0:
        return _left_to_right(_term(w * m, x, m) for m, w in atoms)
    if order == 1:
        if x == 0.0:
            if any(m < 1.0 for m, _ in atoms):
                return math.inf
            return float(_left_to_right(w for m, w in atoms if m == 1.0))
        return _left_to_right(_term(w * m * m, x, m - 1.0) for m, w in atoms)
    if order == 2:
        if x == 0.0:
            pos = any(1.0 < m < 2.0 for m, _ in atoms)
            neg = any(m < 1.0 for m, _ in atoms)
            if pos and neg:
                return math.nan
            if pos:
                return math.inf
            if neg:
                return -math.inf
            return float(
                _left_to_right(w * m * m * (m - 1.0) for m, w in atoms if m == 2.0)
            )
        return _left_to_right(_term(w * m * m * (m - 1.0), x, m - 2.0) for m, w in atoms)
    raise DomainError(f"order must be 0, 1 or 2, got {order}")


def _written_powerlaw_g0(p, x, order):
    _check(x)
    if x == 0.0:
        return 0.0 if order == 0 else math.inf
    if x == 1.0:
        return math.inf
    u = -math.log(x)
    if order == 0:
        return math.gamma(2.0 - p) * u ** (p - 2.0)
    if order == 1:
        return math.gamma(3.0 - p) * u ** (p - 3.0) / x
    if order == 2:
        return (
            math.gamma(4.0 - p) * u ** (p - 4.0) - math.gamma(3.0 - p) * u ** (p - 3.0)
        ) / x / x
    raise DomainError(f"order must be 0, 1 or 2, got {order}")


def _written_k0(weights, x, y, order):
    _check(x, "x")
    _check(y, "y")
    if order not in (0, 1, 2):
        raise DomainError(f"order must be 0, 1 or 2, got {order}")
    return _left_to_right(
        math.perm(a, order + 1) * w * x ** (a - 1 - order) * y**m
        for (a, m), w in weights.items()
        if a > order
    )


def _written_k0_mass(weights, x):
    if not all(m == 1 for _, m in weights):
        return math.nan
    _check(x, "x")
    return _left_to_right(w * x**a for (a, _), w in weights.items())


def _outcome(fn, *args):
    """repr of the value, so that the int 0 and 0.0 differ, or the error raised."""
    try:
        return repr(fn(*args))
    except DomainError as exc:
        return (type(exc).__name__, str(exc))


ORDERS = st.integers(0, 3)
# the corners, points inside, and points off [0, 1] (nan included)
POINTS = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, -0.5, 1.5, math.nan, -math.inf, math.inf]),
    st.floats(0.0, 1.0),
)
MASSES = st.one_of(
    st.floats(0.01, 0.99),
    st.floats(1.01, 1.99),
    st.just(2.0),
    st.integers(1, 60).map(float),
    st.floats(2.01, 60.0),
)
ATOMS = st.lists(st.tuples(MASSES, st.floats(1e-3, 10.0)), min_size=1, max_size=6)
TRIPLES = st.lists(
    st.tuples(st.integers(0, 9), st.integers(1, 6), st.floats(1e-3, 10.0)),
    min_size=1, max_size=6,
)


class TestKernelsMatchTheWrittenSums:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(atoms=ATOMS, x=POINTS, order=ORDERS)
    @example(atoms=[(0.5, 1.0), (3.0, 1.0)], x=0.0, order=1)  # inf
    @example(atoms=[(0.5, 1.0), (1.5, 1.0)], x=0.0, order=2)  # -inf + inf: nan
    @example(atoms=[(1.0, 2.0)], x=0.0, order=2)  # 0 x^-1: 0.0
    @example(atoms=[(2.0, 0.75), (3.0, 1.0)], x=0.0, order=2)  # 4 w
    def test_discrete_g0(self, atoms, x, order):
        measure = Discrete(atoms)
        assert _outcome(measure.g0, x, order) == _outcome(
            _written_discrete_g0, measure.atoms, x, order
        )

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(p=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True), x=POINTS,
           order=ORDERS)
    def test_powerlaw_g0(self, p, x, order):
        measure = PowerLawDensity(p)
        assert _outcome(measure.g0, x, order) == _outcome(_written_powerlaw_g0, p, x, order)

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(triples=TRIPLES, monodisperse=st.booleans(), x=POINTS, y=POINTS, order=ORDERS)
    def test_arm_k0_and_k0_mass(self, triples, monodisperse, x, y, order):
        assume(any(a > 0 for a, _, _ in triples))
        measure = ArmMeasure({(a, 1 if monodisperse else m): w for a, m, w in triples})
        weights = measure.weights
        assert _outcome(measure.k0, x, y, order) == _outcome(_written_k0, weights, x, y, order)
        if 0.0 <= x <= 1.0:
            # K0 = sum c0(a, m) x^a summed by Horner, against the written sum
            # over the arm law that sums c0(a, m) over m
            law = {}
            for (a, _), w in weights.items():
                law[(a, 1)] = law.get((a, 1), 0.0) + w
            assert horner(measure.polynomial(), x) == pytest.approx(
                _written_k0_mass(law, x), rel=1e-14, abs=1e-300
            )
            # the sol mass is K0 on monodisperse data and nan on general data
            sol_mass = horner(measure.sol_mass(measure.polynomial()), x)
            assert sol_mass == pytest.approx(
                _written_k0_mass(weights, x), rel=1e-14, abs=1e-300, nan_ok=True
            )
            assert math.isnan(sol_mass) == (not measure.is_monodisperse)

    def test_an_empty_sum_stays_the_int_zero(self):
        # k0'' of a law with at most two arms per particle
        assert repr(ArmMeasure.monodisperse({1: 0.5, 2: 0.5}).k0(0.5, 1.0, 2)) == "0"


# x = 0, the subnormals, and normal doubles up to 1e-300, where x^e with e < 0
# overflows for a mass below 2 (order 2) or below 1 (order 1)
NEAR_ZERO = st.one_of(
    st.just(0.0),
    st.floats(5e-324, sys.float_info.min, exclude_max=True),
    st.floats(sys.float_info.min, 1e-300),
)
MASS_MEASURES = st.one_of(
    st.builds(Discrete, ATOMS),
    st.just(Monodisperse()),
    st.just(ExponentialDensity()),
    st.builds(PowerLawDensity, st.floats(1.0, 2.0, exclude_min=True, exclude_max=True)),
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(measure=MASS_MEASURES, x=NEAR_ZERO, order=st.integers(0, 2))
@example(measure=Monodisperse(), x=5e-324, order=2)  # x^-1 overflows, coefficient 0
@example(measure=Discrete([(0.5, 1.0), (1.01, 1.0)]), x=5e-324, order=2)  # -inf + inf
def test_g0_near_zero_is_a_number(measure, x, order):
    assert type(measure.g0(x, order)) is float


class _Evaluated(Exception):
    pass


def test_building_a_measure_evaluates_nothing(monkeypatch):
    # the coefficient tables are built at the first evaluation, so a measure
    # that is only built (the benchmark's set-up) pays for none of them
    def evaluated(*args):
        raise _Evaluated

    monkeypatch.setattr(math, "perm", evaluated)
    monkeypatch.setattr(math, "gamma", evaluated)
    arm = ArmMeasure.monodisperse(MU)
    power = PowerLawDensity(1.5)
    with pytest.raises(_Evaluated):
        arm.k0(0.5)
    with pytest.raises(_Evaluated):
        power.g0(0.5)


@pytest.mark.parametrize("measure, flag, value", [
    (Discrete([(1.0, 0.5), (3.0, 0.5)]), "is_lattice", True),
    (Discrete([(1.0, 0.5), (2.5, 0.5)]), "is_lattice", False),
    (ExponentialDensity(), "is_lattice", False),
    (ArmMeasure.monodisperse(MU), "is_monodisperse", True),
    (ArmMeasure({(1, 1): 0.5, (3, 2): 0.5}), "is_monodisperse", False),
], ids=["lattice", "off-lattice", "density", "monodisperse", "mixed-masses"])
def test_data_flags_are_read_once(measure, flag, value):
    # set when the measure is built: reading one scans nothing
    assert getattr(measure, flag) is value
    assert not isinstance(getattr(type(measure), flag, None), property)
