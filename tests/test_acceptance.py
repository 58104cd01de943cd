"""Acceptance gate: every numbered criterion prints one PASS/FAIL line.

Reference values here come from closed forms derived by hand or from
independent fixed-point/quadrature computations done inside the test, never
from the code under test.
"""
import math

import numpy as np
import pytest

from gelsolve.characteristics import gel_time
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
)
from gelsolve.oracle import initial_arms, initial_classic, integrate
from gelsolve.series import (
    PowerSeries,
    arms_concentrations,
    concentrations,
    limiting_concentrations,
    ps_compose,
    ps_exp,
    ps_revert,
)

MU = {0: 0.5, 1: 0.25, 3: 0.25}
ARM = ArmMeasure.monodisperse(MU)


@pytest.fixture
def report(capsys, request):
    outcome = {"ok": False}
    yield outcome
    label = request.node.name.replace("test_", "").replace("_", " ")
    with capsys.disabled():
        print(f"[{label}] {'PASS' if outcome['ok'] else 'FAIL'}")


def test_criterion_01_monodisperse_mass_and_moment(report):
    model = Smoluchowski(Monodisperse())
    for t in np.arange(1.0, 10.05, 0.1):
        assert abs(model.mass(t) - 1.0 / t) <= 1e-10
    for t in np.arange(0.1, 0.95, 0.1):
        assert abs(model.second_moment(t) - 1.0 / (1.0 - t)) <= 1e-8
    report["ok"] = True


def test_criterion_02_exponential_mass_decay(report):
    model = Smoluchowski(ExponentialDensity())
    for t in (1.0, 10.0, 100.0):
        assert abs(model.mass(t) * (2.0 * t) ** (2.0 / 3.0) - 1.0) <= 1e-6
    report["ok"] = True


def test_criterion_03_gel_interacting_mass_at_two(report):
    # independent reference: fixed-point iteration of l = e^{-2(1-l)}
    ref = 0.5
    for _ in range(10_000):
        nxt = math.exp(-2.0 * (1.0 - ref))
        if abs(nxt - ref) < 1e-12:
            ref = nxt
            break
        ref = nxt
    assert abs(Flory(Monodisperse()).mass(2.0) - ref) <= 1e-5
    report["ok"] = True


def test_criterion_04_mass_ordering(report):
    for measure in (Monodisperse(), Discrete([(1, 0.5), (2, 0.25)])):
        s = Smoluchowski(measure)
        f = Flory(measure)
        t_gel = gel_time(measure)
        for t in np.linspace(t_gel * 1.01, 5.0, 40):
            assert f.mass(t) < s.mass(t)
        assert s.mass(2 * t_gel) - f.mass(2 * t_gel) > 1e-8
    report["ok"] = True


def test_criterion_05_oracle_pre_gel(report):
    mono = Monodisperse()
    model = Smoluchowski(mono)
    times = list(np.linspace(0.0, 0.9, 10))
    traj = integrate(initial_classic(mono, 200), times, 1e-3)
    # pre-gel the window's equations are exact: its mass is the closed-form
    # window sum, and its concentrations are the closed forms
    for t, st in zip(times, traj):
        window = (np.arange(201) * concentrations(model, t, 200)).sum()
        assert abs(st.mass - window) <= 1e-4
    for t in (0.25, 0.5, 0.9):
        st = integrate(initial_classic(mono, 200), [t], 1e-3)[0]
        c = concentrations(model, t, 30)
        for m in range(1, 31):
            assert abs(c[m] - st.c[m]) <= 1e-6
    report["ok"] = True


def test_criterion_06_oracle_post_gel(report):
    mono = Monodisperse()
    model = Flory(mono)
    times = list(np.linspace(0.0, 3.0, 11))  # avoids hitting T_gel exactly
    traj = integrate(initial_classic(mono, 400), times, 1e-3)
    for t, st in zip(times, traj):
        assert abs(st.mass - model.mass(t)) <= 1e-3
        assert abs(st.gel_mass + st.mass - 1.0) <= 1e-8
    report["ok"] = True


def test_criterion_07_arms_closed_form_limits(report):
    flory = limiting_concentrations(FloryArms(ARM), 10)
    smolu = limiting_concentrations(SmoluchowskiArms(ARM), 10)
    assert abs(flory.p_or_c - 1.0 / 3.0) <= 1e-10
    assert abs(flory.M_inf - 16.0 / 27.0) <= 1e-10
    assert abs(smolu.p_or_c - 3.0**-0.5) <= 1e-10
    b_inf = SmoluchowskiArms(ARM).limit().beta
    assert abs(b_inf - 2.0 * 3.0**-0.5) <= 1e-8
    m_inf_ref = 0.5 + 0.25 * 3.0**-0.5 + 0.25 * 3.0**-1.5
    assert abs(m_inf_ref - 0.692450) < 1e-6  # hand value sanity
    assert abs(smolu.M_inf - 0.692450) <= 1e-6
    assert smolu.M_inf > flory.M_inf
    report["ok"] = True


def test_criterion_08_arms_pre_gel_exactness(report):
    smolu = SmoluchowskiArms(ARM)
    flory = FloryArms(ARM)
    for t in np.linspace(0.0, 1.99, 40):
        assert abs(smolu.flow.state(t).alpha - (1.0 + t)) <= 1e-9
        assert abs(smolu.arms_count(t) - 1.0 / (1.0 + t)) <= 1e-9
        assert abs(flory.arms_count(t) - 1.0 / (1.0 + t)) <= 1e-9
    report["ok"] = True


class _G0:
    def __init__(self, g, g1, g2):
        self._f = (g, g1, g2)

    def g0(self, x, order=0):
        return self._f[order](x)


def test_criterion_09_gel_derivative_families(report, mass_right_derivative_at_gel):
    flat = _G0(
        lambda x: (1 - x) * math.log1p(-x) + x,
        lambda x: -math.log1p(-x),
        lambda x: 1.0 / (1.0 - x),
    )
    steep = _G0(
        lambda x: math.sqrt(1 - x) * math.log(1 - x) + x,
        lambda x: -math.log(1 - x) / (2 * math.sqrt(1 - x))
        - 1 / math.sqrt(1 - x)
        + 1,
        lambda x: -math.log(1 - x) / (4 * (1 - x) ** 1.5)
        - 1 / ((1 - x) ** 1.5),
    )
    alpha_half = _G0(
        lambda x: 1 - math.sqrt(1 - x),
        lambda x: 0.5 * (1 - x) ** -0.5,
        lambda x: 0.25 * (1 - x) ** -1.5,
    )
    assert abs(mass_right_derivative_at_gel(flat)) <= 1e-6
    assert mass_right_derivative_at_gel(steep) == -math.inf
    assert abs(mass_right_derivative_at_gel(alpha_half) + 0.5) <= 1e-4
    report["ok"] = True


def test_criterion_10_arms_concentration_spot_value(report):
    for t in (0.5, 1.0, 4.0):
        out = arms_concentrations(FloryArms(ARM), t, 2, 2)
        assert abs(out[0, 2] - t / (32.0 * (1.0 + t))) <= 1e-12
    report["ok"] = True


def test_criterion_11_infinite_initial_mass(report, mass_square_integral):
    measure = PowerLawDensity(1.5)
    assert gel_time(measure) == 0.0
    model = Smoluchowski(measure)
    for t in (0.01, 0.1, 1.0):
        assert math.isfinite(model.mass(t))
    delta = 1e-4
    prev = mass_square_integral(model, delta, 0.1)
    diff = math.inf
    while diff >= 1e-4 and delta > 1e-15:
        delta /= 2.0
        cur = mass_square_integral(model, delta, 0.1)
        diff = abs(cur - prev)
        prev = cur
    assert diff < 1e-4
    report["ok"] = True


def test_criterion_12_property_suites(report):
    # characteristic round-trip within 10 times the roots' relative tolerance 1e-12
    tol = 1e-11
    models = (
        Smoluchowski(Monodisperse()),
        Flory(Monodisperse()),
        SmoluchowskiArms(ARM),
        FloryArms(ARM),
    )
    for model in models:
        for t in (0.5, 3.0):
            for x in (0.0, 0.25, 0.5, 0.75, 1.0):
                h = model.h_inverse(t, x, 1.0)
                assert abs(model.phi(t, h, 1.0) - x) <= max(tol, 1e-10)

    # series reversion round-trip
    rng = np.random.default_rng(42)
    coeffs = np.zeros(65)
    coeffs[1] = 1.0
    coeffs[2:] = rng.normal(scale=0.05, size=63)
    phi = PowerSeries(coeffs)
    comp = ps_compose(phi, ps_revert(phi))
    ident = np.zeros(65)
    ident[1] = 1.0
    assert np.max(np.abs(comp.coeffs - ident)) <= 1e-10

    # 4th-order dt convergence of the oracle
    init = initial_classic(Monodisperse(), 50)
    ref = integrate(init, [0.5], 1e-4)[0].c
    coarse = np.abs(integrate(init, [0.5], 2e-2)[0].c - ref).max()
    fine = np.abs(integrate(init, [0.5], 1e-2)[0].c - ref).max()
    assert 12.0 <= coarse / fine <= 20.0

    # nonnegativity of emitted concentrations
    for t in (0.5, 2.0):
        assert (concentrations(Smoluchowski(Monodisperse()), t, 40) >= 0.0).all()
        assert (arms_concentrations(FloryArms(ARM), t, 10, 10) >= 0.0).all()
    report["ok"] = True
