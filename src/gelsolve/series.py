"""Truncated power-series engine and coefficient-level solution formulas.

Concentrations c_t(m) are Taylor coefficients of the solved generating
function g0(h_t(x)); Lagrange-Buermann on the characteristic map phi_t turns
them into a Poisson mixture of convolution powers, without forming h_t.
The arms variants have closed forms in terms of convolution powers of the
size-biased arm law, evaluated directly by one helper that tilts the law at
the ell of the state it serves; a long-time limit is the same call at the
model's limit state.  Each formula takes a model and reads its solved state:
the anchor of phi_t, or (alpha_t, beta_t, ell_t) at finite t or t = inf.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# bound here only for perfbench/tracing.py:TARGETS, which wraps these names
from .characteristics import bisect_increasing, ell_smolu  # noqa: F401
from .characteristics import check_time
from .errors import DomainError
from .measures import conv_power


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
    lin = phi.coeffs[1:]  # phi(x) / x
    recip = np.zeros(n)  # x / phi(x)
    recip[0] = 1.0 / lin[0]
    for k in range(1, n):
        recip[k] = -np.dot(lin[1 : k + 1], recip[k - 1 :: -1]) / lin[0]
    out = np.zeros(n + 1)
    power = np.ones(1)  # (x/phi)^0; its length grows to n as k does
    for k in range(1, n + 1):
        power = np.convolve(power, recip)[:n]
        out[k] = power[k - 1] / k
    return PowerSeries(out)


# ---------------------------------------------------------------------------
# Classic-model concentrations as a Poisson mixture

#: Band cells (k, m) whose Poisson weights one pass of `_add_block` takes.
_BLOCK = 4096


def _log_weight(k: int) -> float:
    """log_rest(k - 1) + log k: the part of log(Pois(k - 1; lam) / k) free of lam.

    For i >= 1, log Pois(i; lam) = -(log i! - i log i + i) - bd0, the deviance
    bd0 = i log(i/lam) + lam - i taken by log1p and log i! by Stirling's series
    past i = 15: neither loses the i log i ulps of i log lam - lam - lgamma(i+1)
    (C. Loader, "Fast and accurate computation of binomial probabilities", 2000).
    k = 1 gives 0; its weight exp(-lam) has no deviance.
    """
    i = k - 1
    if i == 0:
        return 0.0
    if i <= 15:
        log_rest = math.lgamma(i + 1) - i * math.log(i) + i
    else:
        r = 1.0 / (i * i)
        stirlerr = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / i
        log_rest = stirlerr + 0.5 * math.log(2 * math.pi * i)
    return log_rest + math.log(k)


def _add_block(c: np.ndarray, lam: np.ndarray, k1: int, rows: list) -> None:
    """c[m] += Pois(k - 1; lam[m]) / k * row_k[m - k] for the rows k = k1, k1 + 1, ...

    The band cells of all rows are weighed at once, as flat arrays; np.add.at
    adds them in flat order, so each c[m] takes its terms in increasing k.
    """
    sizes = np.array([row.size for row in rows])
    ks = np.arange(k1, k1 + len(rows))
    m = np.arange(sizes.sum()) + np.repeat(ks - (np.cumsum(sizes) - sizes), sizes)
    i = np.repeat(ks - 1.0, sizes)
    lam_m = lam[m]
    diff = i - lam_m  # lam <= 2^50 keeps diff/lam above -1
    w = diff / lam_m
    np.log1p(w, out=w)
    w *= i
    np.subtract(diff, w, out=w)
    w -= np.repeat([_log_weight(k) for k in range(k1, k1 + len(rows))], sizes)
    if k1 == 1:
        w[: rows[0].size] = -lam_m[: rows[0].size]
    np.exp(w, out=w)
    w *= np.concatenate(rows)
    np.add.at(c, m, w)


def concentrations(model, t: float, n: int) -> np.ndarray:
    """c_t(m) for m = 0..n (index 0 unused) of a classic model on an integer lattice.

    With s the model's anchor, S = g0(s) and q(j) = j mu0(j) s^j / S, Lagrange-
    Buermann's [w^m] e^{m t (g0(s w) - S)} gives the Borel-Tanner form of the
    multiplicative kernel (Aldous, Bernoulli 5 (1999) 3-48): c_t(m) =
    (1/(m^2 t)) sum_k Pois(k; m t S) q^{*k}(m) = (S/m) sum_k Pois(k-1; m t S)
    q^{*k}(m)/k.  No term is negative; values below 2^-1022 come back as 0.
    """
    check_time(t)
    if n < 1:
        raise DomainError("series order must be >= 1")
    mu0 = model.measure.lattice_weights(n)
    if t == 0.0:
        return mu0
    s = model.anchor(t)
    S = model.measure.g0(s)
    j = np.arange(n + 1)
    # normalised by S, not by the truncated sum, when atoms lie beyond n
    q = np.trim_zeros(mu0 * j * s**j / S, "b")[1:]  # q(1), q(2), ...
    c = np.zeros(n + 1)
    row = np.ones(1)  # q^{*k}(k + i) at i: q^{*k} vanishes below k
    # Pois(k <= n; lam) underflows once lam > 2^50, so the cap changes no
    # weight; a subnormal lam overflows diff/lam, zeroing subnormal weights
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lam = np.minimum(j * (t * S), 2.0**50)
        rows, cells = [], 0  # the rows k1 .. k of the open block
        for k in range(1, n + 1 if q.size else 1):  # no atom up to n: c = 0
            row = np.convolve(row, q)[: n + 1 - k]
            rows.append(row)
            cells += row.size
            if cells >= _BLOCK:
                _add_block(c, lam, k + 1 - len(rows), rows)
                rows, cells = [], 0
        if rows:
            _add_block(c, lam, n + 1 - len(rows), rows)
    c[1:] *= S / j[1:]
    c[c < np.finfo(float).tiny] = 0.0
    return c


# ---------------------------------------------------------------------------
# Arms-model concentrations (closed forms)

def _closed_form(nu, state, a_max, m_max) -> np.ndarray:
    """(a+m-2)!/(a! m!) beta^(m-1) alpha^-a nu^{*m}(a+m-2) at rows a <= a_max, columns m.

    alpha, beta and the tilt point x = ell are the state's; columns 0 and 1
    are 0.  With the tilted law nu_x(k) = nu(k) x^k / k0(x), which sums to 1,
    an entry is (a+m-2)!/(a! m!) x k0(x) (beta k0(x)/x)^(m-1) (1/(alpha x))^a
    nu_x^{*m}(a+m-2).  At x = ell, beta k0(x)/x tends to 1 as t grows, so
    the powers of nu_x keep the size of the product instead of underflowing
    before it, and every factor joins the exponent, so none overflows.
    Before the gel time x = 1 and nu_x = nu/A0.  x = 0 (a limit with
    mu(1) = 0) gives zeros; row 0 takes no arm factor, also where 1/alpha
    is 0 or, for a limit, alpha is undefined.
    """
    out = np.zeros((a_max + 1, m_max + 1))
    x = state.ell
    if m_max < 2 or x == 0.0:
        return out
    tilted = nu * x ** np.arange(nu.size)
    k0x = tilted.sum()
    a = np.arange(a_max + 1)[:, None]
    m = np.arange(2, m_max + 1)
    k = a + m - 2
    # nu_x^{*m}(k) for k = m - 2 .. m - 2 + a_max, one power at a time
    powers = np.empty((a_max + 1, m_max - 1))
    rows = conv_power(tilted / k0x, m_max, a_max + m_max - 2)
    next(rows)  # nu_x^{*1} would be column 1
    for j, row in enumerate(rows):
        powers[:, j] = row[j : j + a_max + 1]
    log_fact = _log_factorials(1 << (a_max + m_max).bit_length())  # j <= a_max + m_max
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 = -inf
        per_arm = a * np.log(1.0 / (state.alpha * x))
        per_arm[0] = 0.0
        log_c = (
            log_fact[k] - log_fact[a] - log_fact[m]
            + (m - 1) * np.log(state.beta * k0x / x) + np.log(x * k0x)
            + per_arm
            + np.log(powers)
        )
    # a zero power is a zero entry, also where beta = inf (a limit with
    # mu(1) = mu(2) = 0) would make its log nan
    out[:, 2:] = np.where(powers > 0.0, np.exp(log_c), 0.0)
    return out


@functools.cache
def _log_factorials(size: int) -> np.ndarray:
    """log j! for j < size by lgamma, read-only (shared by every caller).

    A cumulative sum of log j drifts to 5e-12 at j = 600: the relative error
    of every product.  Sizes are powers of two, so the tables held take at
    most twice the largest.
    """
    table = np.array([math.lgamma(j + 1) for j in range(size)])
    table.flags.writeable = False
    return table


def arms_concentrations(model, t: float, a_max: int, m_max: int) -> np.ndarray:
    """Closed-form c_t(a, m) of an arms model on monodisperse arm data (rows a, columns m).

    beta_t is the factor per unit of mass and 1/alpha_t the factor per free
    arm.  The formula applies from m = 2 on; the m = 1 column holds the
    initial data c0(a, 1) = mu(a) untouched.
    """
    measure = model.measure
    if not measure.is_monodisperse:
        raise DomainError("closed-form concentrations need monodisperse arm data")
    check_time(t)
    out = _closed_form(measure.nu(), model.state(t), a_max, m_max)
    if m_max >= 1:
        for a, w in measure.arm_law().items():
            if a <= a_max:
                out[a, 1] = w
    return out


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
    total += float((conc[:, 2:] * np.arange(2, m_max + 1)).sum())
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
    """Limits of an arms model's c_t(0, m) as t -> infinity, on monodisperse arm data.

    They are row a = 0 of the closed form at the long-time state, tilted at
    ell_inf, where beta_inf k0(x)/x = 1 for the gel-inert variant.
    """
    measure = model.measure
    if not measure.is_monodisperse:
        raise DomainError("limiting concentrations need monodisperse arm data")
    nu = measure.nu()
    lim = model.limit()
    return LimitingConcentrations(
        c_inf=_closed_form(nu, lim, 0, m_max)[0], beta_inf=lim.beta, p_or_c=lim.ell,
        M_inf=lim.M, degenerate=bool(nu[0] == 0.0),
    )
