"""Fixtures shared by the test modules."""
import numpy as np
import pytest


def _mass_square_integral(model, lo, hi):
    """int_lo^hi M_s^2 ds, substituting s = u^3 to tame the s -> 0 blow-up."""
    from scipy.integrate import quad

    assert 0.0 < lo < hi
    val, _ = quad(
        lambda u: 3.0 * u**2 * model.mass(u**3) ** 2,
        lo ** (1.0 / 3.0),
        hi ** (1.0 / 3.0),
        limit=200,
    )
    return val


@pytest.fixture
def mass_square_integral():
    """The small-time cross-check of infinite initial mass: M_t is square-integrable near 0."""
    return _mass_square_integral


def _direct_arms_rhs(t, c, A0):
    """The (a, m) right-hand side by direct sums over pairs of rows and partner masses.

    (a1, m1) and (a2, m2) merge at rate a1 a2 into (a1 + a2 - 2, m1 + m2); a
    product outside the window is lost, and the loss term takes the exact arm
    count A0 / (1 + A0 t).
    """
    na, nm = c.shape
    d = np.arange(na)[:, None] * c
    gain = np.zeros_like(c)
    for a1 in range(1, na):
        for a2 in range(1, min(na, na + 2 - a1)):
            gain[a1 + a2 - 2] += 0.5 * np.convolve(d[a1], d[a2])[:nm]
    return gain - d * (A0 / (1.0 + t * A0))


def _arms_oracle_2d(measure, a_max, m_max, t, dt):
    """c(a, m) at t from the truncated (a, m) equations, by fixed-step RK4.

    The two-dimensional reference for the oracle's arm marginal and for the
    closed-form arms concentrations: the oracle itself evolves only u(a).
    """
    c = np.zeros((a_max + 1, m_max + 1))
    for (a, m), w in measure.weights.items():
        c[a, m] += w

    def rhs(s, c):
        return _direct_arms_rhs(s, c, measure.A0)

    s = 0.0
    while s < t - 1e-12:
        h = min(dt, t - s)
        k1 = rhs(s, c)
        k2 = rhs(s + 0.5 * h, c + 0.5 * h * k1)
        k3 = rhs(s + 0.5 * h, c + 0.5 * h * k2)
        k4 = rhs(s + h, c + h * k3)
        c = np.maximum(c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.0)
        s += h
    return c


@pytest.fixture
def arms_oracle_2d():
    """The test-local two-dimensional arms oracle, c(a, m) at one time."""
    return _arms_oracle_2d
