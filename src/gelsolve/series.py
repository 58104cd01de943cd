"""Truncated power-series engine and coefficient-level solution formulas.

Concentrations c_t(m) are Taylor coefficients of the solved generating
function g0(h_t(x)), read off the characteristic map phi_t by one
Lagrange-Buermann pass, without forming h_t.
The arms variants have closed forms in terms of convolution powers of the
size-biased arm law, evaluated directly.  Each formula takes a model and reads
its solved state: the anchor of phi_t, (alpha_t, beta_t) or the long-time limit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# bound here only for perfbench/tracing.py:TARGETS, which wraps these names
from .characteristics import bisect_increasing, ell_smolu  # noqa: F401
from .errors import DomainError
from .measures import MassMeasure, conv_power


class PowerSeries:
    """Formal power series truncated at order N (coeffs[k] multiplies x^k)."""

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise DomainError("coefficients must form a non-empty 1-D array")

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def __repr__(self):
        return f"PowerSeries({self.coeffs.tolist()!r})"

    @classmethod
    def zero(cls, n: int) -> "PowerSeries":
        return cls(np.zeros(n + 1))

    @classmethod
    def identity(cls, n: int) -> "PowerSeries":
        c = np.zeros(n + 1)
        if n >= 1:
            c[1] = 1.0
        return cls(c)

    def __call__(self, x: float) -> float:
        # Horner evaluation of the truncated polynomial
        acc = 0.0
        for c in self.coeffs[::-1]:
            acc = acc * x + c
        return acc


def ps_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    n = min(a.order, b.order)
    return PowerSeries(np.convolve(a.coeffs, b.coeffs)[: n + 1])


def ps_exp(a: PowerSeries) -> PowerSeries:
    """exp of a series via the b' = a' b recurrence; result scaled by e^{a0}."""
    n = a.order
    if not math.isfinite(a.coeffs[0]):
        raise DomainError("constant term must be finite for ps_exp")
    ja = np.arange(n + 1) * a.coeffs
    out = np.zeros(n + 1)
    out[0] = math.exp(a.coeffs[0])
    for k in range(1, n + 1):
        # k * out[k] = sum_{j=1..k} j * a[j] * out[k-j]
        out[k] = np.dot(ja[1 : k + 1], out[k - 1 :: -1]) / k
    return PowerSeries(out)


def ps_compose(outer: PowerSeries, inner: PowerSeries) -> PowerSeries:
    """outer(inner(x)); inner must have zero constant term."""
    if inner.coeffs[0] != 0.0:
        raise DomainError("inner series must vanish at 0 for composition")
    n = min(outer.order, inner.order)
    acc = PowerSeries.zero(n)
    for c in outer.coeffs[n::-1]:
        acc = ps_mul(acc, PowerSeries(inner.coeffs[: n + 1]))
        acc.coeffs[0] += c
    return acc


#: Coefficients of smaller magnitude are set to 0 in the Lagrange-Buermann
#: pass: at order 1024 most monodisperse coefficients are subnormal, and
#: subnormal operands make the power loop several times slower.
TINY = 1e-290


def _flush(a: np.ndarray) -> np.ndarray:
    a[np.abs(a) < TINY] = 0.0
    return a


def _ps_reciprocal(coeffs: np.ndarray) -> np.ndarray:
    if coeffs[0] == 0.0:
        raise DomainError("cannot invert a series with zero constant term")
    n = coeffs.size - 1
    out = np.zeros(n + 1)
    out[0] = 1.0 / coeffs[0]
    for k in range(1, n + 1):
        out[k] = -np.dot(coeffs[1 : k + 1], out[k - 1 :: -1]) / coeffs[0]
    return out


def _lagrange_burmann(recip: np.ndarray, gprime: np.ndarray) -> np.ndarray:
    """[x^k] G(h(x)) for k = 1..n (entry 0 is 0), h the inverse of x / recip(x).

    recip holds the n coefficients of x/phi(x) and gprime those of G'.  By
    Lagrange-Buermann [x^k] G(h(x)) = (1/k) [w^{k-1}] G'(w) (w/phi(w))^k, so
    each power of w/phi costs one convolution and one dot product.
    """
    n = recip.size
    # trailing zeros would only add zero products to every convolution
    recip = np.trim_zeros(_flush(recip.copy()), "b")
    out = np.zeros(n + 1)
    if recip.size == 0:  # x/phi underflowed entirely, and so does every power
        return out
    power = np.ones(1)  # (w/phi)^0; its length grows to n as k does
    for k in range(1, n + 1):
        power = _flush(np.convolve(power, recip)[:n])
        m = min(k, power.size)  # [w^j] power is 0 for j >= power.size
        out[k] = np.dot(gprime[k - m : k], power[m - 1 :: -1]) / k
    return out


def ps_revert(phi: PowerSeries) -> PowerSeries:
    """Compositional inverse h with phi(h(x)) = x + O(x^{N+1}).

    Coefficient-by-coefficient Lagrange inversion:
    [x^n] h = (1/n) [x^{n-1}] (x / phi(x))^n.
    """
    n = phi.order
    if phi.coeffs[0] != 0.0:
        raise DomainError("series to revert must have zero constant term")
    if n < 1 or phi.coeffs[1] == 0.0:
        raise DomainError("series to revert must have nonzero linear term")
    one = np.zeros(n)
    one[0] = 1.0  # G(w) = w
    return PowerSeries(_lagrange_burmann(_ps_reciprocal(phi.coeffs[1:]), one))


# ---------------------------------------------------------------------------
# Classic-model concentrations by Lagrange-Buermann

def _g0_series(measure: MassMeasure, n: int) -> np.ndarray:
    if not measure.is_lattice:
        raise DomainError(
            "series extraction needs an integer-lattice initial measure"
        )
    return measure.lattice_weights(n) * np.arange(n + 1)  # [x^m] g0 = m mu0({m})


def concentrations(model, t: float, n: int) -> np.ndarray:
    """c_t(m) for m = 0..n (index 0 unused) of a classic model on an integer lattice.

    Series coefficients below TINY are dropped, so values much below 1e-280
    come back as 0 or with few correct digits.
    """
    if t < 0.0:
        raise DomainError("time must be >= 0")
    if n < 1:
        raise DomainError("series order must be >= 1")
    measure = model.measure
    g0s = _g0_series(measure, n)
    # In w = s u, s the model's anchor, the characteristic map is
    # psi(u) = phi_t(s u) = u e^{log_amp - t g0(s u)} with log_amp = t g0(s).
    s = model.anchor(t)
    log_amp = t * measure.g0(s)
    # Lagrange-Buermann on psi with G(u) = g0(s u) gives g0(h_t(x)).  The
    # coefficients of u/psi(u) = e^{t g0(s u) - log_amp} sum to 1, so no
    # power of it overflows however small s is.
    g0s *= s ** np.arange(n + 1)  # [u^j] g0(s u)
    a = t * g0s[:n]
    a[0] = -log_amp
    recip = ps_exp(PowerSeries(a)).coeffs
    g0_prime = g0s[1:] * np.arange(1, n + 1)
    c = _lagrange_burmann(recip, g0_prime)
    c[1:] /= np.arange(1, n + 1)  # c_t(m) = [x^m] g0(h(x)) / m
    return c


# ---------------------------------------------------------------------------
# Arms-model concentrations (closed forms)

def _closed_form(nu, r_m, r_a, a_max, m_max) -> np.ndarray:
    """(a+m-2)!/(a! m!) r_m^(m-1) r_a^a nu^{*m}(a+m-2) at rows a <= a_max, columns m.

    Columns 0 and 1 are 0.  The powers are taken of nu/A0, which sums to 1,
    and A0^m joins the factorials and ratios in the exponent, so no factor
    overflows on its way to a representable product.
    """
    out = np.zeros((a_max + 1, m_max + 1))
    if m_max < 2:
        return out
    A0 = nu.sum()
    n = a_max + m_max
    # log j! by lgamma: a cumulative sum of log j drifts to 5e-12 at j = 600,
    # and that absolute error is the relative error of every product
    log_fact = np.array([math.lgamma(j + 1) for j in range(n + 1)])
    a = np.arange(a_max + 1)[:, None]
    m = np.arange(2, m_max + 1)
    k = a + m - 2
    powers = conv_power(nu / A0, m_max, n - 2)[m - 1, k]  # nu^{*m}(k) / A0^m
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 = -inf
        log_c = (
            log_fact[k] - log_fact[a] - log_fact[m]
            + (m - 1) * np.log(r_m * A0) + np.log(A0)
            + a * np.log(r_a)
            + np.log(powers)
        )
    # a zero power is a zero entry, also where r_m = inf (a limit with
    # mu(1) = mu(2) = 0) would make its log nan
    out[:, 2:] = np.where(powers > 0.0, np.exp(log_c), 0.0)
    return out


@dataclass
class ArmsConcentrations:
    """c_t(a, m) matrix (rows a, columns m).

    The m = 1 column holds the initial data c0(a, 1) = mu(a) untouched; the
    solved formulas only apply from m = 2 on.
    """

    values: np.ndarray


def arms_concentrations(model, t: float, a_max: int, m_max: int) -> ArmsConcentrations:
    """Closed-form c_t(a, m) of an arms model on monodisperse arm data, m >= 2.

    beta_t is the factor per unit of mass and 1/alpha_t the factor per free arm.
    """
    measure = model.measure
    if not measure.is_monodisperse:
        raise DomainError("closed-form concentrations need monodisperse arm data")
    if t < 0.0:
        raise DomainError("time must be >= 0")
    alpha, beta = model.coeffs(t)
    out = _closed_form(measure.nu(), beta, 1.0 / alpha, a_max, m_max)
    if m_max >= 1:
        for a, w in measure.arm_law().items():
            if a <= a_max:
                out[a, 1] = w
    return ArmsConcentrations(out)


def arms_mass(model, t: float, *, m_max: int = 150) -> float:
    """Total mass sum m c_t(a, m) of an arms model up to m_max (monodisperse data only).

    The m = 1 layer is summed exactly as mu(a) r^a with r = 1/alpha_t the
    per-arm decay factor; higher masses come from the closed-form
    concentrations.
    """
    measure = model.measure
    conc = arms_concentrations(
        model, t, a_max=_arms_amax(measure, m_max), m_max=m_max
    )
    total = measure.k0_mass(1.0 / model.coeffs(t)[0])
    masses = np.arange(conc.values.shape[1])
    total += float((conc.values[:, 2:] * masses[2:]).sum())
    return total


def _arms_amax(measure, m_max: int) -> int:
    # a mass-m cluster built from particles of <= amax arms each has at most
    # m(amax - 2) + 2 free arms
    amax_particle = max(a for a, _ in measure.weights)
    return max(m_max * max(amax_particle - 2, 0) + 2, amax_particle)


# ---------------------------------------------------------------------------
# Limiting quantities (t -> infinity)

@dataclass
class LimitingConcentrations:
    """Long-time limits: c_inf[m] for m = 2..m_max, plus the scalar constants.

    p_or_c is ell_inf, the long-time ell_t of the model: the smallest root of
    k0(x) = A0 x (gel-interacting variant) or the tangency point
    k0'(c) = k0(c)/c (gel-inert variant), and 1 without gelation.  beta_inf
    is 1/A0 for the gel-interacting variant, the limit of t/(1 + A0 t).
    degenerate marks nu(0) = 0, for which every c_inf is 0.
    """

    c_inf: np.ndarray
    beta_inf: float
    p_or_c: float
    M_inf: float
    degenerate: bool = False


def limiting_concentrations(model, m_max: int) -> LimitingConcentrations:
    """Limits of an arms model's c_t(0, m) as t -> infinity, on monodisperse arm data."""
    measure = model.measure
    if not measure.is_monodisperse:
        raise DomainError("limiting concentrations need monodisperse arm data")
    nu = measure.nu()
    lim = model.limit()
    # the a = 0 row of the closed form at r_m = beta_inf
    c_inf = _closed_form(nu, lim.beta, 1.0, 0, m_max)[0]
    return LimitingConcentrations(
        c_inf=c_inf, beta_inf=lim.beta, p_or_c=lim.ell, M_inf=lim.M,
        degenerate=bool(nu[0] == 0.0),
    )
