"""Fixtures shared by the test modules."""
import math

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


def _mass_right_derivative_at_gel(measure):
    """Right derivative of the mass at the gel time, by sequential limits.

    Evaluates r(x) = -g0'(x)^3 / (g0'(x) + x g0''(x)) at x_k = 1 - 2^{-k},
    k = 10..40.  Returns the limit if the tail stabilizes, a signed infinity
    if |r| keeps growing, and nan when neither happens.
    """
    vals = []
    for k in range(10, 41):
        x = 1.0 - 2.0**-k
        gp = measure.g0(x, 1)
        gpp = measure.g0(x, 2)
        denom = gp + x * gpp
        vals.append(-(gp**3) / denom if denom != 0.0 else -math.inf)
    for i in range(2, len(vals)):
        a, b, c = vals[i - 2], vals[i - 1], vals[i]
        tol = max(1e-5 * abs(c), 1e-7)
        if abs(a - b) <= tol and abs(b - c) <= tol:
            return c
    mags = [abs(v) for v in vals]
    if mags[-1] > 1e12 or all(m2 > m1 for m1, m2 in zip(mags, mags[1:])):
        return -math.inf if vals[-1] < 0.0 else math.inf
    return math.nan


@pytest.fixture
def mass_right_derivative_at_gel():
    """The right derivative of the mass at the gel time, read from g0 alone."""
    return _mass_right_derivative_at_gel


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


def _mp_arms_flow(measure, t):
    """(c, u_t, alpha_t, A_t) of the gel-inert arms flow at t > T_gel, to 40 digits.

    Solved in u = ell_t - c, where c is the root of D = x k0' - k0: D(c + u)
    and k0''(c + u) are the Taylor sums sum_j d_j u^j and sum_j k_j u^j at
    c, with d_0 = 0, and t(u) = T_gel + int_u^(1-c) k/d^2.  Near u = 0,
    d = u^n P(u) and k/d^2 = u^(-2n) R(u) with R = k/P^2 a power series
    that converges well on [0, rho]; the integral over [u, rho] is summed
    term by term, the one over [rho, 1 - c] by mp.quad on panels as wide as
    their distance to the pole.  Neither cancels, so 40 digits are enough
    at every t, up to 1e308.
    """
    import mpmath as mp

    with mp.workdps(40):
        mu = {}
        for (a, _), w in measure.weights.items():
            mu[a] = mu.get(a, 0) + mp.mpf(w)

        def taylor(factor, shift):
            # the coefficients at c of sum_a factor(a) mu(a) x^(a - shift)
            top = max(mu) - shift
            return [
                sum(factor(a) * w * mp.binomial(a - shift, j) * c ** (a - shift - j)
                    for a, w in mu.items() if a - shift >= j and factor(a))
                for j in range(top + 1)
            ]

        def k0(x, n):
            return sum(a * mp.ff(a - 1, n) * w * x ** (a - 1 - n)
                       for a, w in mu.items() if a - 1 >= n)

        def D(x):
            return x * k0(x, 1) - k0(x, 0)

        c = mp.mpf(0)
        if mu.get(1):
            c = mp.findroot(D, (mp.mpf(0), mp.mpf(1)), solver="anderson")
        d = taylor(lambda a: a * (a - 2), 1)
        d[0] = mp.mpf(0)
        k = taylor(lambda a: a * (a - 1) * (a - 2), 3)
        n = next(j for j, v in enumerate(d) if v)
        P = d[n:]
        Q = [sum(P[i] * P[j - i] for i in range(len(P)) if 0 <= j - i < len(P))
             for j in range(2 * len(P) - 1)]  # P^2
        # the zeros of P lie beyond |P(0)| / (|P(0)| + max |P_j|): rho is a quarter of that
        rho = min(P[0] / (P[0] + max(P[1:], default=0)) / 4, (1 - c) / 2)
        terms = 100  # (1/4)^100 is far below 1e-40
        R = []
        for j in range(terms):
            kj = k[j] if j < len(k) else 0
            R.append((kj - sum(Q[i] * R[j - i] for i in range(1, min(j, len(Q) - 1) + 1))) / Q[0])

        def poly(coeffs, u):
            return mp.polyval(coeffs[::-1], u)

        def rate(u):
            return poly(k, u) / poly(d, u) ** 2

        def integral(lo, hi):
            points = [lo]  # panels as wide as their distance to the pole at 0
            while points[-1] < hi:
                points.append(min(2 * points[-1], hi))
            return mp.quad(rate, points)

        top = 1 - c
        t_rho = integral(rho, top)

        def t_of(u):
            if u >= rho:
                return 1 / D(mp.mpf(1)) + integral(u, top)
            series = mp.mpf(0)
            for j, r in enumerate(R):
                e = j - 2 * n + 1
                series += r * (mp.log(rho / u) if e == 0 else (rho**e - u**e) / e)
            return 1 / D(mp.mpf(1)) + t_rho + series

        # Newton on log t(u) = log t in v = log u, where it is nearly linear,
        # kept inside a bracket [v_lo, v_hi] with t(e^v_lo) > t > t(e^v_hi)
        target = mp.log(mp.mpf(t))
        v_hi = mp.log(top)
        v_lo = v_hi - 1
        while mp.log(t_of(mp.exp(v_lo))) < target:
            v_hi, v_lo = v_lo, v_lo - 2 * (v_hi - v_lo)
        v = (v_lo + v_hi) / 2
        for _ in range(200):
            u = mp.exp(v)
            tu = t_of(u)
            g = mp.log(tu) - target
            if g > 0:
                v_lo = v
            else:
                v_hi = v
            step = g * tu / (rate(u) * u)
            if abs(step) < 1e-30 * max(1, abs(v)):
                u = mp.exp(v + step)
                alpha = k0(c + u, 1) / poly(d, u)
                return c, u, alpha, k0(c + u, 0) / alpha
            v += step
            if not v_lo < v < v_hi:
                v = (v_lo + v_hi) / 2
    raise AssertionError("mpmath reference did not converge")


@pytest.fixture
def mp_arms_flow():
    """The 40-digit reference of the gel-inert arms flow, solved in u = ell_t - c."""
    return _mp_arms_flow
