import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gelsolve.errors import DomainError
from gelsolve.measures import ArmMeasure, Discrete, ExponentialDensity, Monodisperse
from gelsolve.models import Flory, FloryArms, Smoluchowski, SmoluchowskiArms
from gelsolve.oracle import initial_arms, integrate
from gelsolve.series import (
    PowerSeries,
    arms_concentrations,
    arms_mass,
    concentrations,
    limiting_concentrations,
    ps_compose,
    ps_exp,
    ps_mul,
    ps_revert,
)

MU = {0: 0.5, 1: 0.25, 3: 0.25}
ARM = ArmMeasure.monodisperse(MU)


def _classic(gel, measure):
    return (Flory if gel else Smoluchowski)(measure)


def _arms(gel, law):
    return (FloryArms if gel else SmoluchowskiArms)(law)


class TestPowerSeriesOps:
    def test_mul(self):
        out = ps_mul(PowerSeries([1, 1, 0]), PowerSeries([1, 1, 0]))
        assert list(out.coeffs) == [1, 2, 1]

    def test_mul_identity(self):
        a = PowerSeries([2.0, -1.5, 0.25, 3.0])
        one = PowerSeries([1.0, 0, 0, 0])
        assert np.allclose(ps_mul(a, one).coeffs, a.coeffs)

    def test_exp(self):
        out = ps_exp(PowerSeries([0, 1, 0, 0, 0]))
        assert np.allclose(out.coeffs, [1, 1, 0.5, 1 / 6, 1 / 24])

    def test_exp_scales_constant(self):
        out = ps_exp(PowerSeries([2.0, 1.0]))
        assert out.coeffs[0] == pytest.approx(math.exp(2.0))

    def test_revert_identity(self):
        out = ps_revert(PowerSeries([0, 1, 0, 0]))
        assert np.allclose(out.coeffs, [0, 1, 0, 0])

    def test_revert_hand_value(self):
        out = ps_revert(PowerSeries([0, 1, -1, 0]))
        assert np.allclose(out.coeffs, [0, 1, 1, 2])

    def test_revert_requires_unit(self):
        with pytest.raises(DomainError):
            ps_revert(PowerSeries([1, 1]))
        with pytest.raises(DomainError):
            ps_revert(PowerSeries([0, 0, 1]))

    def test_compose_revert_round_trip(self):
        rng = np.random.default_rng(7)
        n = 64
        coeffs = np.zeros(n + 1)
        coeffs[1] = 1.0
        coeffs[2:] = rng.normal(scale=0.05, size=n - 1)
        phi = PowerSeries(coeffs)
        comp = ps_compose(phi, ps_revert(phi))
        ident = np.zeros(n + 1)
        ident[1] = 1.0
        assert np.max(np.abs(comp.coeffs - ident)) < 1e-10


class TestConcentrations:
    def test_t_zero(self):
        c = concentrations(Smoluchowski(Monodisperse()), 0.0, 10)
        assert c[1] == pytest.approx(1.0)
        assert not c[2:].any()

    def test_monodisperse_closed_forms(self):
        # c(1) = e^-t and c(2) = t e^{-2t}/2 pre-gel
        for t in (0.25, 0.5, 0.9):
            c = concentrations(Smoluchowski(Monodisperse()), t, 20)
            assert c[1] == pytest.approx(math.exp(-t), abs=1e-12)
            assert c[2] == pytest.approx(t * math.exp(-2 * t) / 2, abs=1e-12)

    @pytest.mark.parametrize("call", [
        lambda t: concentrations(Flory(Monodisperse()), t, 8),
        lambda t: arms_concentrations(FloryArms(ARM), t, 2, 3),
    ], ids=["classic", "arms"])
    def test_nan_time_rejected(self, call):
        with pytest.raises(DomainError, match="time must be"):
            call(math.nan)

    def test_flavors_agree_pre_gel(self):
        a = concentrations(Smoluchowski(Monodisperse()), 0.7, 30)
        b = concentrations(Flory(Monodisperse()), 0.7, 30)
        assert np.allclose(a, b, atol=1e-12)

    def test_nonnegative_post_gel(self):
        for gel in (False, True):
            c = concentrations(_classic(gel, Monodisperse()), 2.0, 40)
            assert (c >= 0.0).all()

    def test_mass_partial_sums_below_total(self):
        from gelsolve.models import Smoluchowski

        model = Smoluchowski(Monodisperse())
        t = 2.0
        c = concentrations(Smoluchowski(Monodisperse()), t, 60)
        partial = float((np.arange(61) * c).sum())
        assert partial <= model.mass(t) + 1e-12
        shorter = float((np.arange(31) * c[:31]).sum())
        assert shorter <= partial

    def test_two_atom_measure(self):
        mix = Discrete([(1, 0.5), (2, 0.25)])
        c = concentrations(Smoluchowski(mix), 0.0, 5)
        assert c[1] == pytest.approx(0.5) and c[2] == pytest.approx(0.25)

    def test_underflow_at_large_time(self):
        # c_800(m) < e^{-800}, below the smallest double: all underflow to 0
        c = concentrations(Flory(Monodisperse()), 800.0, 16)
        assert not c.any()

    def test_monodisperse_at_a_huge_time(self):
        # ell_t = 1e-100 keeps its relative digits, so every c_t(m) =
        # m^(m-2) e^-m / (m! t) does too
        t = 1e100
        c = concentrations(Smoluchowski(Monodisperse()), t, 5)
        for m in range(1, 6):
            expected = m ** (m - 2) * math.exp(-m) / (math.factorial(m) * t)
            assert c[m] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_non_lattice_rejected(self):
        with pytest.raises(DomainError):
            concentrations(Smoluchowski(ExponentialDensity()), 0.5, 10)


def _borel(t, n):
    """Monodisperse c_t(k) = k^(k-2) t^(k-1) e^(-k t) / k!, for k = 0..n."""
    out = np.zeros(n + 1)
    for k in range(1, n + 1):
        out[k] = math.exp(
            (k - 2) * math.log(k) + (k - 1) * math.log(t) - k * t - math.lgamma(k + 1)
        )
    return out


LATTICE = Discrete([(1, 0.4), (2, 0.2), (4, 0.05), (7, 0.01)])  # T_gel = 1/2.49


def _lagrange_mp(atoms, t, m, gel_interacting):
    """c_t(m) = A^-m / m^2 [w^(m-1)] g0'(w) e^(m t g0(w)) in 40-digit arithmetic,
    with phi(x) = A x e^(-t g0(x))."""
    with mp.workdps(40):
        t = mp.mpf(t)
        w = {int(a): mp.mpf(b) for a, b in atoms}

        def g0(x, order=0):
            if order == 0:
                return sum(b * a * x**a for a, b in w.items())
            return sum(b * a * a * x ** (a - 1) for a, b in w.items())

        if gel_interacting or t * sum(b * a * a for a, b in w.items()) <= 1:
            log_amp = t * g0(mp.mpf(1))
        else:
            ell = mp.findroot(lambda x: x * g0(x, 1) - 1 / t, (mp.mpf(0), mp.mpf(1)),
                              solver="bisect")
            log_amp = t * g0(ell) - mp.log(ell)
        a = [m * t * j * w.get(j, 0) for j in range(m)]  # m t g0(w)
        e = [mp.mpf(1)] + [mp.mpf(0)] * (m - 1)
        for k in range(1, m):
            e[k] = sum(j * a[j] * e[k - j] for j in range(1, k + 1)) / k
        gp = [(j + 1) ** 2 * w.get(j + 1, 0) for j in range(m)]
        coeff = sum(gp[j] * e[m - 1 - j] for j in range(m))
        return float(mp.exp(-m * log_amp) * coeff / m**2)


class TestHighOrder:
    @pytest.mark.parametrize(
        "t, gel", [(0.5, True), (3.0, True), (0.5, False)],
        ids=["flory-0.5", "flory-3", "smoluchowski-0.5"],
    )
    def test_monodisperse_order_1024_is_borel(self, t, gel):
        c = concentrations(_classic(gel, Monodisperse()), t, 1024)
        ref = _borel(t, 1024)
        big = ref >= 1e-280
        assert big[1:].sum() > 500
        assert np.all(np.abs(c[big] - ref[big]) <= 1e-9 * ref[big])
        assert np.all(np.abs(c[~big]) <= 1e-280)

    @pytest.mark.parametrize(
        "t, gel", [(0.2, False), (1.0, False), (1.0, True)],
        ids=["pre-gel", "smoluchowski-post-gel", "flory-post-gel"],
    )
    def test_lattice_law_matches_mpmath_lagrange(self, t, gel):
        c = concentrations(_classic(gel, LATTICE), t, 64)
        for m in (1, 7, 32, 64):
            ref = _lagrange_mp(LATTICE.atoms, t, m, gel)
            assert c[m] == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_smoluchowski_post_gel_large_time_is_borel(self):
        # past T_gel = 1, c_t(k) = k^(k-2) e^-k / (k! t); x/phi_t has
        # coefficients of size 1/ell^k without the rescaling w = ell u
        t = 1e4
        c = concentrations(Smoluchowski(Monodisperse()), t, 300)
        with mp.workdps(30):
            ref = [mp.mpf(k) ** (k - 2) * mp.exp(-k) / (mp.factorial(k) * t)
                   for k in range(1, 301)]
        assert np.all(np.isfinite(c))
        for k in range(1, 301):
            assert c[k] == pytest.approx(float(ref[k - 1]), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "t, gel", [(0.5, True), (1.0, False)],
        ids=["flory-0.5", "smoluchowski-post-gel"],
    )
    def test_lattice_order_1024_matches_mpmath_lagrange(self, t, gel):
        c = concentrations(_classic(gel, LATTICE), t, 1024)
        for m in (512, 1024):
            ref = _lagrange_mp(LATTICE.atoms, t, m, gel)
            assert c[m] == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_peak_memory_is_linear_in_the_order(self):
        # one (n+1) x (n+1) array of doubles at n = 1024 would take 8 MB
        import tracemalloc

        model = Flory(LATTICE)
        tracemalloc.start()
        try:
            concentrations(model, 0.5, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000

    def test_tiny_coefficients_are_zero(self):
        # c_3(1024) is about 1e-409; nothing comes back subnormal
        c = concentrations(Flory(Monodisperse()), 3.0, 1024)
        assert c[1024] == 0.0
        assert ((c == 0.0) | (c >= np.finfo(float).tiny)).all()


def _per_k_concentrations(model, t, n):
    """The classic concentrations with one vector of Poisson weights per k.

    The reference for the blocked weights of `concentrations`: the same
    recurrence, weights and summation order, one k at a time.
    """
    mu0 = model.measure.lattice_weights(n)
    if t == 0.0:
        return mu0
    s = model.anchor(t)
    S = model.measure.g0(s)
    j = np.arange(n + 1)
    q = np.trim_zeros(mu0 * j * s**j / S, "b")[1:]
    c = np.zeros(n + 1)
    row = np.ones(1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lam = np.minimum(j * (t * S), 2.0**50)
        for k in range(1, n + 1 if q.size else 1):
            row = np.convolve(row, q)[: n + 1 - k]
            lam_k = lam[k : k + row.size]
            i = k - 1
            if i == 0:
                log_w = -lam_k
            else:
                if i <= 15:
                    log_rest = math.lgamma(i + 1) - i * math.log(i) + i
                else:
                    r = 1.0 / (i * i)
                    stirlerr = (
                        1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))
                    ) / i
                    log_rest = stirlerr + 0.5 * math.log(2 * math.pi * i)
                diff = i - lam_k
                log_w = diff - i * np.log1p(diff / lam_k) - (log_rest + math.log(k))
            c[k : k + row.size] += np.exp(log_w) * row
    c[1:] *= S / j[1:]
    c[c < np.finfo(float).tiny] = 0.0
    return c


LATTICE_LAWS = st.builds(
    lambda atoms: Discrete(sorted(atoms.items())),
    st.dictionaries(st.integers(1, 12), st.floats(0.05, 1.0), min_size=1, max_size=4),
)


class TestBlockedWeights:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        law=LATTICE_LAWS,
        gel=st.booleans(),
        n=st.integers(1, 300),
        when=st.sampled_from(["1e-300", "0.5 T_gel", "T_gel", "3 T_gel", "1e100"]),
    )
    def test_matches_the_per_k_loop_bit_for_bit(self, law, gel, n, when):
        model = _classic(gel, law)
        t_gel = model.t_gel
        t = {"1e-300": 1e-300, "0.5 T_gel": 0.5 * t_gel, "T_gel": t_gel,
             "3 T_gel": 3.0 * t_gel, "1e100": 1e100}[when]
        assert np.array_equal(
            concentrations(model, t, n), _per_k_concentrations(model, t, n)
        )

    def test_a_row_longer_than_a_block(self):
        # with atoms 1 and 12, row k spans m = k .. 12 k up to the order: at
        # order 4500 the rows near k = 375 hold over 4096 cells, a block each
        law = Discrete([(1, 0.5), (12, 0.5)])
        for gel in (False, True):
            model = _classic(gel, law)
            t = 2.0 * model.t_gel
            assert np.array_equal(
                concentrations(model, t, 4500), _per_k_concentrations(model, t, 4500)
            )


class TestArmsConcentrations:
    def test_hand_value(self):
        out = arms_concentrations(FloryArms(ARM), 1.0, 4, 4)
        assert out[0, 2] == pytest.approx(1 / 64, abs=1e-15)

    def test_large_time_limit(self):
        out = arms_concentrations(FloryArms(ARM), 1e8, 4, 4)
        assert out[0, 2] == pytest.approx(1 / 32, rel=1e-6)

    def test_positive_arm_rows_vanish(self):
        small = arms_concentrations(FloryArms(ARM), 1e6, 6, 6)
        assert np.max(small[1:, 2:]) < 1e-5

    def test_m1_column_is_initial_data(self):
        out = arms_concentrations(FloryArms(ARM), 3.0, 4, 4)
        assert out[0, 1] == 0.5
        assert out[3, 1] == 0.25

    def test_degenerate_nu(self):
        # nu(0) = mu(1) = 0: no cluster of mass >= 2 has fewer than two free
        # arms, but the a >= 2 rows do not vanish
        law = ArmMeasure.monodisperse({0: 0.5, 2: 0.25, 3: 0.25})
        for flavor in ("gel-interacting", "no-big-coagulation"):
            gel = flavor == "gel-interacting"
            out = arms_concentrations(_arms(gel, law), 0.5, 4, 4)
            ref = integrate(initial_arms(law, 60, 60), [0.5], 1e-2, flavor=flavor)[0].c
            assert out[2, 2:5] == pytest.approx(
                [0.014565, 0.0022408, 0.00034474], rel=1e-4
            )
            assert out[:, 2:5] == pytest.approx(ref[:5, 2:5], rel=1e-6, abs=1e-12)
            assert not out[:2, 2:].any()

    def test_non_monodisperse_rejected(self):
        mixed = ArmMeasure({(1, 1): 0.5, (2, 2): 0.5})
        with pytest.raises(DomainError):
            arms_concentrations(SmoluchowskiArms(mixed), 1.0, 4, 4)

    @pytest.mark.parametrize("t", [0.7, 2.5, 6.0])
    def test_matches_mpmath_up_to_300(self, t):
        # A0 = 1.3; nu = (mu1, 2 mu2, 3 mu3) on {0, 1, 2}, so nu^{*m}(k) is a
        # finite sum of trinomial terms
        mu = {0: 0.3, 1: 0.35, 2: 0.1, 3: 0.25}
        law = ArmMeasure.monodisperse(mu)
        c = arms_concentrations(FloryArms(law), t, 300, 300)
        with mp.workdps(40):
            T, A0 = mp.mpf(t), mp.mpf(law.A0)
            nu = [mp.mpf(mu[1]), 2 * mp.mpf(mu[2]), 3 * mp.mpf(mu[3])]
            fact = mp.factorial

            def ref(a, m):
                k = a + m - 2
                power = sum(  # i zeros, j ones and l twos in m draws summing to k
                    fact(m) / (fact(m - k + l) * fact(k - 2 * l) * fact(l))
                    * nu[0] ** (m - k + l) * nu[1] ** (k - 2 * l) * nu[2] ** l
                    for l in range(max(k - m, 0), k // 2 + 1)
                )
                return (fact(k) / (fact(a) * fact(m)) * (T / (1 + T * A0)) ** (m - 1)
                        * (1 + T * A0) ** -a * power)

            for a, m in [(0, 2), (4, 2), (5, 17), (40, 41), (150, 160),
                         (0, 300), (120, 300), (250, 300), (300, 300)]:
                assert c[a, m] == pytest.approx(float(ref(a, m)), rel=1e-11, abs=0.0)
        assert c[150, 80] == 0.0  # more free arms than 80 particles can carry

    @pytest.mark.parametrize("gel", [True, False])
    def test_no_nan_at_602_by_600(self, gel):
        out = arms_concentrations(_arms(gel, ARM), 4.0, 602, 600)
        assert np.isfinite(out).all()
        assert (out >= 0.0).all()

    @pytest.mark.parametrize("t", [1e3, 1e6])
    @pytest.mark.parametrize("gel", [True, False], ids=["flory-arms", "smoluchowski-arms"])
    def test_law_far_from_unit_A0_matches_mpmath(self, gel, t):
        # A0 = 0.0298 and nu = (1e-4, 0, 0.0297), past T_gel = 33.8: the
        # powers of nu/A0 underflow where c_t(a, m) is still representable.
        # nu^{*m}(2 j) = C(m, j) nu(2)^j nu(0)^(m-j), and odd indices are 0.
        law = ArmMeasure.monodisperse({0: 0.99, 1: 1e-4, 3: 0.0099})
        model = _arms(gel, law)
        alpha, beta = model.coeffs(t)
        c = arms_concentrations(model, t, 40, 400)
        nu = law.nu()
        checked = 0
        with mp.workdps(40):
            log_fact = [mp.loggamma(n + 1) for n in range(441)]
            log_nu0, log_nu2 = mp.log(nu[0]), mp.log(nu[2])
            log_beta, log_alpha = mp.log(beta), mp.log(alpha)
            for a in range(41):
                for m in range(2, 401):
                    k = a + m - 2
                    if k % 2 or k // 2 > m:
                        assert c[a, m] == 0.0
                        continue
                    j = k // 2
                    ref = mp.exp(
                        log_fact[k] - log_fact[a] - log_fact[j] - log_fact[m - j]
                        + (m - 1) * log_beta - a * log_alpha
                        + (m - j) * log_nu0 + j * log_nu2
                    )
                    if ref >= 1e-300:
                        assert c[a, m] == pytest.approx(float(ref), rel=1e-11, abs=0.0)
                        checked += 1
        assert checked > 5000

    def test_past_the_last_flow_panel(self):
        # alpha_t = inf from about t = 5e16 on the README law, so 1/alpha_t = 0:
        # row 0 is the limit, with no 0 * log(0) = nan, and the rows a >= 1 vanish
        model = SmoluchowskiArms(ARM)
        assert model.coeffs(1e17)[0] == math.inf
        out = arms_concentrations(model, 1e17, 3, 8)
        assert np.isfinite(out).all()
        c_inf = limiting_concentrations(model, 8).c_inf
        assert out[0, 2:] == pytest.approx(c_inf[2:], rel=1e-12, abs=0.0)
        assert not out[1:, 2:].any()

    def test_gel_inert_variant_pre_gel(self):
        # pre-gel beta_t = t/(1+t) and alpha_t = 1+t, so the two variants agree
        a = arms_concentrations(SmoluchowskiArms(ARM), 1.5, 6, 6)
        b = arms_concentrations(FloryArms(ARM), 1.5, 6, 6)
        assert np.allclose(a, b, atol=1e-10)

    def test_nonnegative(self):
        for gel in (False, True):
            out = arms_concentrations(_arms(gel, ARM), 4.0, 10, 10)
            assert (out >= 0.0).all()


class TestArmsMass:
    def test_pre_gel_conservation(self):
        assert arms_mass(FloryArms(ARM), 1.0) == pytest.approx(
            1.0, abs=1e-4
        )

    def test_post_gel_loss(self):
        assert arms_mass(FloryArms(ARM), 5.0) < 1.0

    def test_finite_at_m_max_600(self):
        # a 602 x 600 window; its binomial factors overflowed a double before
        # they were taken in log space
        mass = arms_mass(FloryArms(ARM), 4.0, m_max=600)
        assert mass == pytest.approx(FloryArms(ARM).mass(4.0), rel=1e-9)

    @pytest.mark.parametrize("t", [0.5, 1.0, 6.0, 10.0])
    def test_truncated_sum_matches_sol_mass(self, t):
        # away from T_gel = 2 the terms decay geometrically in m
        model = FloryArms(ARM)
        assert arms_mass(model, t, m_max=300) == pytest.approx(
            model.mass(t), rel=1e-9
        )


class TestLimits:
    def test_gel_interacting_limits(self):
        lim = limiting_concentrations(FloryArms(ARM), 10)
        assert lim.p_or_c == pytest.approx(1 / 3, abs=1e-10)
        assert lim.M_inf == pytest.approx(16 / 27, abs=1e-9)
        assert lim.beta_inf == 1.0
        assert lim.c_inf[2] == pytest.approx(1 / 32, abs=1e-14)

    def test_gel_inert_limits(self):
        lim = limiting_concentrations(SmoluchowskiArms(ARM), 10)
        c = 1.0 / math.sqrt(3.0)
        assert lim.p_or_c == pytest.approx(c, abs=1e-10)
        assert lim.beta_inf == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-10)
        expected = 0.5 + 0.25 * c + 0.25 * c**3
        assert lim.M_inf == pytest.approx(expected, abs=1e-10)
        # gel-inert concentrations carry the beta_inf^{m-1} factor
        assert lim.c_inf[2] == pytest.approx(lim.beta_inf / 32, rel=1e-9)

    def test_mass_ordering(self):
        flory = limiting_concentrations(FloryArms(ARM), 5)
        smolu = limiting_concentrations(SmoluchowskiArms(ARM), 5)
        assert smolu.p_or_c > flory.p_or_c
        assert smolu.M_inf > flory.M_inf

    def test_subcritical(self):
        sub = ArmMeasure.monodisperse({1: 1.0})
        f = limiting_concentrations(FloryArms(sub), 5)
        s = limiting_concentrations(SmoluchowskiArms(sub), 5)
        assert f.p_or_c == 1.0
        assert s.beta_inf == 1.0
        assert f.M_inf == pytest.approx(1.0)

    def test_degenerate(self):
        deg = ArmMeasure.monodisperse({2: 1.0})
        lim = limiting_concentrations(FloryArms(deg), 5)
        assert lim.degenerate
        assert not lim.c_inf.any()

    @pytest.mark.parametrize(
        "gel", [True, False], ids=["flory-arms", "smoluchowski-arms"]
    )
    @pytest.mark.parametrize("mu", [
        MU,
        {0: 0.5, 2: 0.25, 3: 0.25},  # nu(0) = 0
        {0: 0.2, 1: 0.3, 3: 0.4},  # A0 = 1.5
        {0: 0.3, 1: 0.2, 3: 0.1},  # A0 = 0.5
        {0: 0.5, 1: 0.5},  # no gelation
    ], ids=["readme", "nu0-zero", "A0-1.5", "A0-0.5", "no-gel"])
    def test_limits_are_the_long_time_values(self, mu, gel):
        # ell_t, beta_t and so every c_t(0, m) approach their limits as 1/t.
        # The exception is the inert gel on the nu(0) = 0 law: there ell_inf = 0
        # is a double root of x k0' - k0, and ell_t ~ (9 t / 8)^(-1/3).
        t = 1e6
        law = ArmMeasure.monodisperse(mu)
        model = (FloryArms if gel else SmoluchowskiArms)(law)
        lim = limiting_concentrations(model, 8)
        slow = not gel and mu.get(1, 0.0) == 0.0
        assert lim.p_or_c == pytest.approx(
            model.state(t).ell, rel=1e-4, abs=t ** (-1 / 3) if slow else 1e-5
        )
        assert lim.M_inf == pytest.approx(model.mass(t), rel=1e-4)
        row = arms_concentrations(model, t, 0, 8)[0]
        assert lim.c_inf[2:] == pytest.approx(row[2:], rel=1e-4)

    @pytest.mark.parametrize(
        "gel", [True, False], ids=["flory-arms", "smoluchowski-arms"]
    )
    @pytest.mark.parametrize("mu, kp0", [
        ({0: 0.5, 2: 0.25, 3: 0.25}, 0.5),  # k0'(0) = 2 mu(2)
        ({0: 0.5, 3: 0.5}, 0.0),
    ], ids=["mu2-positive", "mu2-zero"])
    def test_root_at_zero_is_exact(self, mu, kp0, gel):
        # mu(1) = 0 makes k0(0) = 0, so ell_inf = 0 exactly; the gel-inert
        # beta_inf = c/k0(c) tends to 1/k0'(0) there
        law = ArmMeasure.monodisperse(mu)
        lim = limiting_concentrations(_arms(gel, law), 8)
        assert lim.p_or_c == 0.0
        if gel:
            assert lim.beta_inf == 1.0 / law.A0
        else:
            assert lim.beta_inf == (1.0 / kp0 if kp0 else math.inf)
        assert lim.M_inf == mu[0]
        assert lim.degenerate
        assert np.isfinite(lim.c_inf).all() and not lim.c_inf.any()

    def test_law_far_from_unit_A0_does_not_underflow(self):
        # A0 = 0.0298 and nu = (1e-4, 0, 0.0297): the powers of nu/A0 underflow
        # long before c_inf does.  nu^{*m}(m-2) takes j = (m-2)/2 twos, so
        # c_inf[m] = r^(m-1) C(m, j) nu(2)^j nu(0)^(m-j) / (m(m-1)), with the
        # tangency point c = sqrt(nu(0)/nu(2)) and r = beta_inf = c/k0(c)
        law = ArmMeasure.monodisperse({0: 0.99, 1: 1e-4, 3: 0.0099})
        lim = limiting_concentrations(SmoluchowskiArms(law), 400)
        with mp.workdps(40):
            nu0, nu2 = mp.mpf(1e-4), 3 * mp.mpf(0.0099)
            r = mp.sqrt(nu0 / nu2) / (2 * nu0)
            for m, quoted in [(340, 4.32819915584e-12), (350, 4.02605320581e-12),
                              (400, 2.88463889011e-12)]:
                j = (m - 2) // 2
                ref = float(r ** (m - 1) * mp.binomial(m, j) * nu2**j * nu0 ** (m - j)
                            / (m * (m - 1)))
                assert ref == pytest.approx(quoted, rel=1e-11, abs=0.0)
                assert lim.c_inf[m] == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_memory_stays_linear_in_m_max(self):
        import tracemalloc

        model = SmoluchowskiArms(ARM)
        tracemalloc.start()
        try:
            limiting_concentrations(model, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000

    def test_c_inf_nonnegative(self):
        for gel in (False, True):
            lim = limiting_concentrations(_arms(gel, ARM), 30)
            assert (lim.c_inf >= 0.0).all()


class TestSolveOnce:
    """The series read the model's solved state, counted at every module binding."""

    @staticmethod
    def _count(monkeypatch, name, modules):
        import importlib

        calls = []
        for module in modules:
            mod = importlib.import_module(f"gelsolve.{module}")
            real = getattr(mod, name)

            def counted(*args, _real=real, **kwargs):
                calls.append(args)
                return _real(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
        return calls

    def test_post_gel_smoluchowski_solves_ell_once(self, monkeypatch):
        calls = self._count(
            monkeypatch, "ell_smolu", ("characteristics", "models", "series")
        )
        concentrations(Smoluchowski(LATTICE), 2.0, 32)
        assert len(calls) == 1

    def test_flory_solves_no_ell(self, monkeypatch):
        calls = self._count(monkeypatch, "l_flory", ("characteristics", "models"))
        concentrations(Flory(LATTICE), 2.0, 32)
        assert not calls

    def test_arms_concentrations_builds_no_flow(self, monkeypatch):
        import gelsolve.characteristics

        model = SmoluchowskiArms(ARM)
        built = []
        real = gelsolve.characteristics.ArmsFlow.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(gelsolve.characteristics.ArmsFlow, "__init__", counted)
        arms_concentrations(model, 4.0, 6, 6)
        arms_mass(model, 4.0, m_max=20)
        assert not built

    def test_limit_solves_the_tangency_point_once(self, monkeypatch):
        calls = self._count(monkeypatch, "ell_infinity", ("characteristics", "models"))
        lim = SmoluchowskiArms(ARM).limit()
        assert len(calls) == 1
        assert lim.beta == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-14)
