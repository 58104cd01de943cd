"""Initial mass / arm distributions and their generating functions.

The mass measures expose g0(x) = <mu0, m x^m> and its first two derivatives;
the parametric families carry hand-derived closed forms so no quadrature is
needed when evaluating them.  Arm measures expose the bivariate generating
function k0(x, y) = sum_a,m a c0(a,m) x^(a-1) y^m and its first two
x-derivatives.

Discrete and ArmMeasure evaluate from coefficient tables built at the first
evaluation: per order, each atom's coefficient and exponents.  A call forms
each term as the formula's product, left to right, and adds the terms from
the int 0 in atom order; in Discrete.g0 a term whose x^e overflows or
divides by zero, x = 0 included, is its limit.  Outside this module only the
oracle, kept independent, reads a law's atoms or weights.

This module owns the package's one numpy binding, `np`, which every other
module imports from here.  If numpy is already imported, `np` is numpy.
Otherwise it is a private stand-in whose first attribute read runs `import
numpy`, so building measures and the scalar solves load no numpy.  Nothing
is put in sys.modules: numpy's import is the ordinary one, under the import
lock, for every thread and every other library.
"""
from __future__ import annotations

import importlib.util
import math
import sys
from contextlib import contextmanager
from typing import Mapping, NamedTuple, Sequence

from .errors import DomainError, GelsolveError


class _Numpy:
    """numpy's attributes, importing numpy at the first read; each name read is kept."""

    def __getattr__(self, name):
        import numpy  # a thread that finds numpy half-imported waits for the rest

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


def _numpy():
    """numpy if it is imported, else a _Numpy; ModuleNotFoundError if numpy is missing."""
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    # None also when sys.modules["numpy"] is None, the entry that blocks the import
    if importlib.util.find_spec("numpy") is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    return _Numpy()


np = _numpy()

INF = math.inf


class Moments(NamedTuple):
    M0: float  # first moment, may be +inf
    K: float   # second moment, may be +inf
    m0: float  # infimum of the support


def _check_unit_interval(x: float, name: str = "x") -> None:
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"{name}={x!r} outside [0, 1]")


class MassMeasure:
    """Base class for initial mass distributions."""

    #: True when the measure lives on the positive-integer lattice, which
    #: is what the truncated power-series route requires.
    is_lattice = False

    def moments(self) -> Moments:
        raise NotImplementedError

    def g0(self, x: float, order: int = 0) -> float:
        """Evaluate g0, g0' or g0'' at x in [0, 1] (may return +-inf)."""
        raise NotImplementedError

    def lattice_weights(self, n: int) -> np.ndarray:
        """Weights on masses 1..n (index 0 unused) for lattice measures."""
        raise DomainError(f"{type(self).__name__} is not an integer-lattice measure")


class Discrete(MassMeasure):
    """Finite collection of atoms (mass, weight), masses and weights finite and > 0."""

    def __init__(self, atoms: Sequence[tuple[float, float]]):
        atoms = tuple((float(m), float(w)) for m, w in atoms)
        if not atoms:
            raise DomainError("discrete measure must have at least one atom")
        for m, w in atoms:
            if not 0.0 < m < INF:
                raise DomainError(f"atom mass {m} must be finite and > 0")
            if not 0.0 < w < INF:
                raise DomainError(f"atom weight {w} must be finite and > 0")
        self.atoms = atoms
        self.is_lattice = all(m == int(m) for m, _ in atoms)
        self._moments = None
        self._terms = None

    def __repr__(self):
        return f"Discrete({list(self.atoms)!r})"

    def moments(self) -> Moments:
        # summed on the first call, not in __init__: a measure only built pays nothing
        if self._moments is None:
            M0 = sum(w * m for m, w in self.atoms)
            K = sum(w * m * m for m, w in self.atoms)
            if INF in (M0, K):  # both: below mass 1, M0 can overflow while K does not
                raise DomainError(f"the moments overflow a double: M0={M0}, K={K}")
            self._moments = Moments(M0=M0, K=K, m0=min(m for m, _ in self.atoms))
        return self._moments

    def _tables(self):
        # (coefficient, exponent) per atom and order: w m x^m, w m^2 x^(m-1),
        # w m^2 (m-1) x^(m-2); built at the first evaluation, so a measure
        # only built pays nothing
        if self._terms is None:
            atoms = self.atoms
            self._terms = (
                tuple((w * m, m) for m, w in atoms),
                tuple((w * m * m, m - 1.0) for m, w in atoms),
                tuple((w * m * m * (m - 1.0), m - 2.0) for m, w in atoms),
            )
        return self._terms

    def lattice_weights(self, n: int) -> np.ndarray:
        if not self.is_lattice:
            raise DomainError("measure has non-integer atom masses")
        out = np.zeros(n + 1)
        for m, w in self.atoms:
            if int(m) <= n:
                out[int(m)] += w
        return out

    def g0(self, x: float, order: int = 0) -> float:
        if not 0.0 <= x <= 1.0:
            _check_unit_interval(x)
        if order not in (0, 1, 2):
            raise DomainError(f"order must be 0, 1 or 2, got {order}")
        terms = self._tables()[order]
        total = 0
        try:
            for c, e in terms:
                total += c * x**e
        except (OverflowError, ZeroDivisionError):
            # x^e, e < 0, overflows at tiny x and divides by zero at x = 0: such a term
            # is its limit, 0 or +-inf by the coefficient's sign; inf - inf is nan
            total = 0
            for c, e in terms:
                try:
                    term = c * x**e
                except (OverflowError, ZeroDivisionError):
                    term = math.copysign(INF, c) if c else 0.0
                total += term
        return total


class Monodisperse(Discrete):
    """All initial particles of unit mass (delta_1)."""

    def __init__(self):
        super().__init__([(1.0, 1.0)])

    def __repr__(self):
        return "Monodisperse()"


class ExponentialDensity(MassMeasure):
    """mu0(dm) = e^{-m} dm; g0(x) = (1 - ln x)^{-2}."""

    def __repr__(self):
        return "ExponentialDensity()"

    def moments(self) -> Moments:
        return Moments(M0=1.0, K=2.0, m0=0.0)

    def g0(self, x: float, order: int = 0) -> float:
        if not 0.0 <= x <= 1.0:
            _check_unit_interval(x)
        if x == 0.0:
            return 0.0 if order == 0 else (INF if order == 1 else -INF)
        u = 1.0 - math.log(x)
        if order == 0:
            return u**-2
        if order == 1:
            return 2.0 / (x * u**3)
        if order == 2:
            # divided by x twice: x * x underflows to 0 below about 1.5e-154
            return 2.0 * (3.0 - u) / u**4 / x / x
        raise DomainError(f"order must be 0, 1 or 2, got {order}")


class PowerLawDensity(MassMeasure):
    """mu0(dm) = m^{-p} dm; g0(x) = Gamma(2-p) (-ln x)^{p-2}.

    Admissibility <mu0, m ^ 1> < inf forces p in (1, 2): at p = 1 the tail
    integral diverges, so that endpoint is rejected.
    """

    def __init__(self, p: float):
        p = float(p)
        if not 1.0 < p < 2.0:
            raise DomainError(
                f"power-law exponent p={p} must lie in (1, 2) for <mu0, m^1> < inf"
            )
        self.p = p
        self._gammas = None

    def __repr__(self):
        return f"PowerLawDensity(p={self.p})"

    def _gamma_table(self):
        # Gamma(2-p), Gamma(3-p), Gamma(4-p), computed at the first evaluation
        if self._gammas is None:
            p = self.p
            self._gammas = (math.gamma(2.0 - p), math.gamma(3.0 - p), math.gamma(4.0 - p))
        return self._gammas

    def moments(self) -> Moments:
        return Moments(M0=INF, K=INF, m0=0.0)

    def g0(self, x: float, order: int = 0) -> float:
        if not 0.0 <= x <= 1.0:
            _check_unit_interval(x)
        p = self.p
        if x == 0.0:
            return 0.0 if order == 0 else INF
        if x == 1.0:
            # -ln x = 0 and p - 2 < 0: monotone limit is +inf for all orders
            return INF
        u = -math.log(x)
        gamma2, gamma3, gamma4 = self._gamma_table()
        if order == 0:
            return gamma2 * u ** (p - 2.0)
        if order == 1:
            return gamma3 * u ** (p - 3.0) / x
        if order == 2:
            # divided by x twice: x * x underflows to 0 below about 1.5e-154
            return (gamma4 * u ** (p - 4.0) - gamma3 * u ** (p - 3.0)) / x / x
        raise DomainError(f"order must be 0, 1 or 2, got {order}")


class ArmMeasure:
    """Finite-support initial concentrations c0(a, m) on arms x mass.

    At y = 1 the law is one polynomial, K0 (`polynomial`), with K0' = k0(., 1);
    on monodisperse data K0(ell_t) is the arms models' sol mass (`sol_mass`).
    """

    def __init__(self, weights: Mapping[tuple[int, int], float]):
        clean: dict[tuple[int, int], float] = {}
        for (a, m), w in weights.items():
            # int() would truncate a fraction: 1.5 arms would be taken as 1
            if not (float(a).is_integer() and float(m).is_integer()):
                raise DomainError(
                    f"arm count {a!r} and mass {m!r} must be whole numbers"
                )
            a, m, w = int(a), int(m), float(w)
            if a < 0:
                raise DomainError(f"arm count {a} must be >= 0")
            if m < 1:
                raise DomainError(f"mass {m} must be >= 1")
            if not 0.0 <= w < INF:
                raise DomainError(f"weight {w} must be finite and >= 0")
            if w > 0.0:
                clean[(a, m)] = clean.get((a, m), 0.0) + w
        if not clean:
            raise DomainError("arm measure must be non-null")
        self.weights = clean
        self.A0 = sum(a * w for (a, _), w in clean.items())
        if self.A0 <= 0.0:
            raise DomainError("initial arm count A0 must be positive")
        self.K = sum(a * (a - 1) * w for (a, _), w in clean.items())
        self.M0 = sum(m * w for (_, m), w in clean.items())
        self.total = sum(clean.values())
        if INF in (self.A0, self.K, self.M0, self.total):
            raise DomainError(f"the arm data's sums overflow a double: A0={self.A0}, "
                              f"K={self.K}, M0={self.M0}, total={self.total}")
        self.is_monodisperse = all(m == 1 for _, m in clean)
        self._terms = None
        self._k0_poly = None

    def __repr__(self):
        return f"ArmMeasure({self.weights!r})"

    @classmethod
    def monodisperse(cls, mu: Mapping[int, float]) -> "ArmMeasure":
        """All particles of mass 1, arms distributed by the law mu."""
        return cls({(a, 1): w for a, w in mu.items()})

    def _tables(self):
        # per order o, (a (a-1) ... (a-o) c0(a, m), a-1-o, m) for the atoms
        # with a > o.  Built at the first evaluation.
        if self._terms is None:
            items = self.weights.items()
            self._terms = tuple(
                tuple((math.perm(a, o + 1) * w, a - 1 - o, m) for (a, m), w in items if a > o)
                for o in range(3)
            )
        return self._terms

    def k0(self, x: float, y: float = 1.0, order: int = 0) -> float:
        """k0 or its first or second x-derivative at (x, y)."""
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            _check_unit_interval(x, "x")
            _check_unit_interval(y, "y")
        if order not in (0, 1, 2):
            raise DomainError(f"order must be 0, 1 or 2, got {order}")
        # a (a-1) ... (a-order) c0(a, m) x^(a-1-order) y^m; k0'' vanishes
        # identically iff every particle has <= 2 arms, and is then the int 0
        total = 0
        for c, e, m in self._tables()[order]:
            total += c * x**e * y**m
        return total

    def polynomial(self) -> tuple:
        """The Horner tuple of K0(x) = sum_(a,m) c0(a, m) x^a, built at the first call."""
        if self._k0_poly is None:
            coeffs = [0.0] * (max(self.weights)[0] + 1)  # the largest key has the most arms
            for (a, _), w in self.weights.items():
                coeffs[a] += w
            coeffs.reverse()
            self._k0_poly = tuple(coeffs)
        return self._k0_poly

    def sol_mass(self, p: tuple) -> tuple:
        """p, a Horner tuple of K0, as the sol mass's; (nan,) on general data: no closed form."""
        return p if self.is_monodisperse else (math.nan,)

    def nu(self) -> np.ndarray:
        """Size-biased offspring law nu(k) = (k+1) mu(k+1), k = 0..amax-1.

        Its total is A0.  nu(0) = 0, no particle with exactly one arm, leaves
        every cluster of mass >= 2 with at least two free arms.
        """
        if not self.is_monodisperse:
            raise DomainError("the closed forms need monodisperse arm data")
        # the coefficients of k0(x, 1) = K0'(x), lowest power first
        return np.array([a * w for a, w in enumerate(reversed(self.polynomial()))][1:])


def conv_power(nu, m: int, max_index: int):
    """Yield the rows nu^{*1}, ..., nu^{*m} on 0..max_index of the weights nu.

    nu is truncated to the window first, and each row is one convolution of
    the row before it with nu; only the current row is held.
    """
    if m < 1:
        raise DomainError(f"convolution power m={m} must be >= 1")
    base = np.asarray(nu, dtype=float)[: max_index + 1]
    row = np.zeros(max_index + 1)
    row[: base.size] = base
    yield row
    for _ in range(1, m):
        row = np.convolve(row, base)[: max_index + 1]
        yield row


# ---------------------------------------------------------------------------
# Config-file loading

def _number(value):
    """value, unless it is a JSON true or false, which float() would take as 1 or 0."""
    if isinstance(value, bool):
        raise DomainError(f"measure value {str(value).lower()} is not a number")
    return value


@contextmanager
def _malformed_spec(spec):
    """Report a missing key or a value of the wrong shape as a DomainError."""
    try:
        yield
    except GelsolveError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise DomainError(f"bad measure spec {spec!r}: {exc!r}") from exc


def mass_measure_from_config(spec) -> MassMeasure:
    """Build a MassMeasure from a config object.

    Accepted shapes:
      {"type": "monodisperse"}
      {"type": "exponential"}
      {"type": "powerlaw", "p": 1.5}
      {"type": "discrete", "atoms": [[mass, weight], ...]}
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise DomainError(f"bad measure spec: {spec!r}")
    kind = spec["type"]
    with _malformed_spec(spec):
        if kind == "monodisperse":
            return Monodisperse()
        if kind == "exponential":
            return ExponentialDensity()
        if kind == "powerlaw":
            return PowerLawDensity(_number(spec["p"]))
        if kind == "discrete":
            return Discrete([(_number(m), _number(w)) for m, w in spec["atoms"]])
    raise DomainError(f"unknown mass-measure type {kind!r}")


def arm_measure_from_config(spec) -> ArmMeasure:
    """Build an ArmMeasure from a config object.

    Accepted shapes:
      {"type": "arms", "triples": [[arms, mass, weight], ...]}
      {"type": "arm-law", "mu": {"0": 0.5, "1": 0.25, "3": 0.25}}
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise DomainError(f"bad measure spec: {spec!r}")
    kind = spec["type"]
    with _malformed_spec(spec):
        if kind == "arms":
            triples = [map(_number, triple) for triple in spec["triples"]]
            return ArmMeasure({(a, m): w for a, m, w in triples})
        if kind == "arm-law":
            mu = {int(a): float(_number(w)) for a, w in spec["mu"].items()}
            return ArmMeasure.monodisperse(mu)
    raise DomainError(f"unknown arm-measure type {kind!r}")
