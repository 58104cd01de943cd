"""Independent reference values for the benchmark's output checks.

Nothing here imports gelsolve.  Every quantity is rebuilt from the measure
spec the request carries: closed forms where they exist, otherwise a
bracketed brentq root, Cauchy-integral coefficient extraction, or a DOP853
integration of the arms flow written directly in the variable ell.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

INF = math.inf
XTOL = 1e-300
RTOL = 4 * np.finfo(float).eps
# gelsolve's default SolverConfig.root_tol: the benchmark runs at the defaults,
# so a solved root may be off by this much, and a quantity ill-conditioned in
# the root (a second moment just past T_gel) by this much times its slope
SOLVER_ROOT_TOL = 1e-12


def root(f, lo, hi):
    return brentq(f, lo, hi, xtol=XTOL, rtol=RTOL, maxiter=500)


# ---------------------------------------------------------------------------
# Classic measures

class Classic:
    """g0(x) = <mu0, m x^m> and its derivative, from a measure spec."""

    def __init__(self, spec):
        kind = spec["type"]
        self.kind = kind
        self.atoms = None
        if kind == "monodisperse":
            self.atoms = [(1, 1.0)]
        elif kind == "discrete":
            self.atoms = [(int(m), float(w)) for m, w in spec["atoms"]]
        elif kind == "powerlaw":
            self.p = float(spec["p"])
        elif kind != "exponential":
            raise ValueError(f"not a classic measure: {spec!r}")
        if self.atoms is not None:
            self.M0 = sum(w * m for m, w in self.atoms)
            self.K = sum(w * m * m for m, w in self.atoms)
            self.m0 = float(min(m for m, _ in self.atoms))
        elif kind == "exponential":
            # int m e^{-m} dm = 1, int m^2 e^{-m} dm = 2
            self.M0, self.K, self.m0 = 1.0, 2.0, 0.0
        else:
            self.M0, self.K, self.m0 = INF, INF, 0.0
        self.t_gel = 0.0 if math.isinf(self.K) else 1.0 / self.K

    def g0(self, x):
        if self.atoms is not None:
            return sum(w * m * x**m for m, w in self.atoms)
        if x == 0.0:
            return 0.0
        if self.kind == "exponential":
            # int m x^m e^{-m} dm = (1 - ln x)^-2
            return (1.0 - math.log(x)) ** -2
        if x == 1.0:
            return INF
        # int m^{1-p} e^{-m u} dm = Gamma(2-p) u^{p-2},  u = -ln x
        return math.gamma(2.0 - self.p) * (-math.log(x)) ** (self.p - 2.0)

    def g0p(self, x):
        if self.atoms is not None:
            return sum(w * m * m * x ** (m - 1) for m, w in self.atoms)
        if self.kind == "exponential":
            return 2.0 / (x * (1.0 - math.log(x)) ** 3)
        return math.gamma(3.0 - self.p) * (-math.log(x)) ** (self.p - 3.0) / x


def ell_smolu(meas: Classic, t):
    """Root of x g0'(x) = 1/t past the gel time; 1 before it."""
    if t <= meas.t_gel:
        return 1.0
    return root(lambda x: x * meas.g0p(x) - 1.0 / t, 1e-300, 1.0 - 1e-15)


def l_flory(meas: Classic, t):
    """Smallest root of x exp(t (M0 - g0(x))) = 1; 1 before the gel time."""
    if t <= meas.t_gel:
        return 1.0
    top = ell_smolu(meas, t)  # maximiser of the map
    return root(lambda x: math.log(x) + t * (meas.M0 - meas.g0(x)), 1e-300, top)


class ClassicModel:
    """Reference solution of the Smoluchowski or Flory model at one time."""

    def __init__(self, name, spec, t):
        self.t = t
        self.meas = m = Classic(spec)
        self.flory = name == "flory"
        self.ell = l_flory(m, t) if self.flory else ell_smolu(m, t)
        if self.flory:
            self.log_amp = t * m.M0
        else:
            self.log_amp = t * m.g0(self.ell) - math.log(self.ell)
        self.mass = m.g0(self.ell)

    def phi(self, x):
        if x == 0.0:
            return 0.0
        return math.exp(math.log(x) + self.log_amp - self.t * self.meas.g0(x))

    def h_inverse(self, x):
        if x == 0.0:
            return 0.0
        if x == 1.0:
            return self.ell
        return root(lambda z: self.phi(z) - x, 0.0, self.ell)

    def gen_fun(self, x):
        return self.meas.g0(self.h_inverse(x))

    def second_moment(self):
        m, t = self.meas, self.t
        if t < m.t_gel:
            return m.K / (1.0 - t * m.K)
        if not self.flory or t == m.t_gel:
            return INF
        return self._flory_second_moment(self.ell)

    def _flory_second_moment(self, l):
        m, t = self.meas, self.t
        return m.g0p(l) / (math.exp(t * (m.M0 - m.g0(l))) * (1.0 - t * l * m.g0p(l)))

    def second_moment_slack(self):
        """Error in the second moment that a root off by SOLVER_ROOT_TOL causes."""
        if not self.flory or self.t <= self.meas.t_gel:
            return 0.0
        return root_slack(self._flory_second_moment, self.ell)

    def concentrations(self, n):
        """c_t(m), m = 0..n, on lattice data (index 0 unused)."""
        m, t = self.meas, self.t
        out = np.zeros(n + 1)
        if m.atoms == [(1, 1.0)]:
            # Borel: c_t(k) = k^(k-3) t^(k-1) / (k-1)! / A^k with A = e^{log_amp}
            k = np.arange(1, n + 1, dtype=float)
            logc = (
                (k - 3) * np.log(k)
                + (k - 1) * math.log(t)
                - np.array([math.lgamma(v) for v in k])
                - k * self.log_amp
            )
            out[1:] = np.exp(logc)
            return out
        return _lattice_concentrations(m, t, self.log_amp, n)


def root_slack(f, x):
    """10 x SOLVER_ROOT_TOL x |f'(x)|, by a central difference."""
    h = 1e-7 * x
    return 10.0 * SOLVER_ROOT_TOL * abs(f(x + h) - f(x - h)) / (2.0 * h)


def _lattice_concentrations(meas: Classic, t, log_amp, n):
    """Lagrange-Buermann by Cauchy integrals on saddle-point circles.

    c_t(m) = A^-m / m^2 [z^(m-1)] g0'(z) exp(m t g0(z)), with A the amplitude
    of phi(x) = A x e^{-t g0(x)}.  Needs an atom at mass 1, so every
    coefficient is positive and g0'(0) > 0.  All m are done at once: one
    circle radius per m, one FFT size for all.
    """
    ps = np.array([p for p, _ in meas.atoms], dtype=float)
    ws = np.array([w for _, w in meas.atoms])
    w1 = sum(w for p, w in meas.atoms if p == 1)
    if w1 <= 0.0:
        raise ValueError("lattice reference needs an atom at mass 1")
    out = np.zeros(n + 1)
    out[1] = w1 * math.exp(-log_amp)
    if n < 2:
        return out
    m = np.arange(2, n + 1, dtype=float)
    k = m - 1.0
    target = k / (m * t)

    def moments(r, order):  # sum_p w p r^p p^order, i.e. (r d/dr)^order r g0'(r) / r
        return (ws * ps ** (1 + order) * r[:, None] ** ps).sum(1)

    # saddle radius: r g0'(r) = k / (m t), by bisection in log r (r g0' >= w1 r)
    lo, hi = np.full(k.shape, -745.0), np.log(target / w1)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = moments(np.exp(mid), 1) < target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    r = np.exp(0.5 * (lo + hi))
    # width of the coefficient profile around index k on that circle; the
    # FFT size only has to exceed it many times over, not k itself
    sigma = np.sqrt(m * t * moments(r, 2))
    size = 1 << max(7, math.ceil(math.log2(16.0 * sigma.max() + 64.0)))
    j = np.arange(size)
    g0z = np.zeros((k.size, size), complex)
    g0pz = np.zeros((k.size, size), complex)
    for p, w in zip(ps, ws):
        turn = np.exp(2j * math.pi * j * p / size)
        g0z += np.outer(w * p * r**p, turn)
        g0pz += np.outer(w * p * p * r ** (p - 1), turn / np.exp(2j * math.pi * j / size))
    g0r = (ws * ps * r[:, None] ** ps).sum(1)
    f = g0pz * np.exp(m[:, None] * t * (g0z - g0r[:, None]))
    coeff = np.fft.fft(f, axis=1)[np.arange(k.size), k.astype(int) % size].real / size
    with np.errstate(divide="ignore", invalid="ignore"):
        out[2:] = np.exp(
            -m * log_amp - 2.0 * np.log(m) + m * t * g0r - k * np.log(r) + np.log(coeff))
    return out


# ---------------------------------------------------------------------------
# Arms measures

class Arms:
    """Monodisperse arm law mu(a): K0(x) = sum mu_a x^a, k0 = K0'."""

    def __init__(self, spec):
        if spec["type"] != "arm-law":
            raise ValueError(f"not an arm law: {spec!r}")
        self.mu = {int(a): float(w) for a, w in spec["mu"].items() if float(w) > 0}
        mu = self.mu
        self.A0 = sum(a * w for a, w in mu.items())
        self.K = sum(a * (a - 1) * w for a, w in mu.items())
        self.M0 = sum(mu.values())
        self.t_gel = 1.0 / (self.K - self.A0) if self.K > self.A0 else INF
        amax = max(mu)
        # size-biased offspring law nu(j) = (j+1) mu(j+1), j = 0..amax-1
        self.nu = np.array([(j + 1) * mu.get(j + 1, 0.0) for j in range(amax)])

    def K0(self, x):
        return sum(w * x**a for a, w in self.mu.items())

    def k0(self, x):
        return sum(a * w * x ** (a - 1) for a, w in self.mu.items() if a >= 1)

    def k0p(self, x):
        return sum(a * (a - 1) * w * x ** (a - 2) for a, w in self.mu.items() if a >= 2)

    def k0pp(self, x):
        return sum(
            a * (a - 1) * (a - 2) * w * x ** (a - 3) for a, w in self.mu.items() if a >= 3
        )

    def G(self, x):
        return x - self.k0(x) / self.k0p(x)

    def conv_powers(self, m_max, length):
        """nu^{*m}(0..length-1) for m = 1..m_max, built incrementally."""
        pws = [None, np.zeros(length)]
        n = min(length, self.nu.size)
        pws[1][:n] = self.nu[:n]
        for _ in range(2, m_max + 1):
            pws.append(np.convolve(pws[-1], self.nu)[:length])
        return pws


def smolu_arms_flow(arms: Arms, times):
    """(ell, alpha, beta) of the gel-inert arms model at the given times.

    Past T_gel, G(ell) = 1/alpha and alpha' = k0(ell) give
    ell' = -(ell k0'(ell) - k0(ell))^2 / k0''(ell) and beta' = G(ell)^2,
    regular at T_gel where ell = 1; integrated with DOP853.
    """
    tg, A0 = arms.t_gel, arms.A0
    out = {}
    post = sorted(t for t in times if t > tg)
    for t in times:
        if t <= tg:
            out[t] = (1.0, 1.0 + A0 * t, t / (1.0 + A0 * t))
    if post:
        def rhs(_, y):
            l = y[0]
            return [
                -((l * arms.k0p(l) - arms.k0(l)) ** 2) / arms.k0pp(l),
                arms.G(l) ** 2,
            ]

        sol = solve_ivp(
            rhs, (tg, post[-1]), [1.0, tg / (1.0 + A0 * tg)],
            method="DOP853", rtol=1e-13, atol=1e-15, t_eval=post,
        )
        if not sol.success:
            raise RuntimeError(f"reference flow failed: {sol.message}")
        for t, l, b in zip(post, sol.y[0], sol.y[1]):
            out[t] = (l, 1.0 / arms.G(l), b)
    return out


class ArmsModel:
    """Reference solution of SmoluchowskiArms or FloryArms at one time."""

    def __init__(self, name, arms: Arms, t, flow=None):
        self.arms, self.t = arms, t
        self.flory = name == "flory-arms"
        A0 = arms.A0
        if self.flory:
            self.alpha, self.beta = 1.0 + A0 * t, t / (1.0 + A0 * t)
            self.ell = 1.0 if t <= arms.t_gel else self._flory_ell()
        else:
            self.ell, self.alpha, self.beta = flow or smolu_arms_flow(arms, [t])[t]
        self.A = arms.k0(self.ell) / self.alpha
        # Lagrange-Buermann summed over the closed-form c_t(a, m): the sol
        # mass is K0(h_t(1)) = K0(ell); M0 before the gel time
        self.M = arms.K0(self.ell)

    def _phi_x(self, x):
        return self.alpha - self.t * self.arms.k0p(x)

    def _flory_ell(self):
        top = 1.0 if self._phi_x(1.0) >= 0.0 else root(self._phi_x, 0.0, 1.0)
        return root(lambda x: self.alpha * x - self.t * self.arms.k0(x) - 1.0, 0.0, top)

    def second_moment(self):
        arms, t = self.arms, self.t
        if not self.flory:
            if t >= arms.t_gel:
                return INF
            return arms.K / (self.alpha**2 * (1.0 - self.beta * arms.K)) + self.A
        if t == arms.t_gel:
            return INF
        return self._flory_second_moment(self.ell)

    def _flory_second_moment(self, l):
        dphi = self._phi_x(l)
        if dphi <= 0.0:
            return INF
        return (self.arms.k0p(l) / dphi + self.arms.k0(l)) / self.alpha

    def second_moment_slack(self):
        """Error in the second moment that a root off by SOLVER_ROOT_TOL causes."""
        if not self.flory or self.t <= self.arms.t_gel:
            return 0.0
        return root_slack(self._flory_second_moment, self.ell)

    def concentrations(self, a_max, m_max):
        """c_t(a, m); the m = 1 column is the initial law (gelsolve's convention)."""
        return arms_closed_form(
            self.arms, a_max, m_max, math.log(self.beta), -math.log(self.alpha)
        )


def arms_closed_form(arms: Arms, a_max, m_max, log_ratio_m, log_ratio_a):
    """(a+m-2)!/(a! m!) ratio_m^(m-1) ratio_a^a nu^{*m}(a+m-2), in log space."""
    out = np.zeros((a_max + 1, m_max + 1))
    for a, w in arms.mu.items():
        if a <= a_max:
            out[a, 1] = w
    pws = arms.conv_powers(m_max, a_max + m_max)
    a_idx = np.arange(a_max + 1)
    lg_a = np.array([math.lgamma(a + 1) for a in a_idx])
    for m in range(2, m_max + 1):
        pw = pws[m][a_idx + m - 2]
        with np.errstate(divide="ignore"):
            logpw = np.log(pw)
        logc = (
            np.array([math.lgamma(a + m - 1) for a in a_idx])
            - lg_a
            - math.lgamma(m + 1)
            + (m - 1) * log_ratio_m
            + a_idx * log_ratio_a
            + logpw
        )
        out[:, m] = np.exp(logc)
    return out


def arms_limits(name, arms: Arms, m_max):
    """T -> infinity limits as the CLI `limits` reports them."""
    if name == "flory-arms":
        f = lambda x: arms.k0(x) - x  # noqa: E731 - convex, f(0) = mu(1) > 0
        if f(1.0) < 0.0:
            point = root(f, 0.0, 1.0)
        else:
            xmin = root(lambda x: arms.k0p(x) - 1.0, 0.0, 1.0)
            point = root(f, 0.0, xmin) if f(xmin) < 0.0 else 1.0
        beta_inf = 1.0
    else:
        point = root(arms.G, 1e-300, 1.0)  # k0'(c) = k0(c)/c
        beta_inf = point / arms.k0(point)
    pws = arms.conv_powers(m_max, m_max)
    c_inf = [
        beta_inf ** (m - 1) * pws[m][m - 2] / (m * (m - 1)) for m in range(2, m_max + 1)
    ]
    return {
        "T_gel": arms.t_gel,
        "p_nu_or_c": point,
        "beta_inf": beta_inf,
        "M_inf": arms.K0(point),
        "c_inf": c_inf,
    }
