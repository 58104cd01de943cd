import math
from fractions import Fraction

import numpy as np
import pytest

from gelsolve import oracle
from gelsolve.errors import DomainError, SolverError, UsageError
from gelsolve.measures import ArmMeasure, Discrete, Monodisperse
from gelsolve.models import Flory, FloryArms, Smoluchowski, SmoluchowskiArms
from gelsolve.oracle import (
    OracleState,
    _Work,
    _rhs,
    compare,
    initial_arms,
    initial_classic,
    integrate,
)
from gelsolve.series import arms_concentrations, concentrations

MU = {0: 0.5, 1: 0.25, 3: 0.25}
ARM = ArmMeasure.monodisperse(MU)


def _half(n, arms):
    """h = (n - 1 + shift)//2 + 1: a pair j <= l that lands in an n-cell window has j < h."""
    return (n - 1 + (2 if arms else 0)) // 2 + 1


def _doubling(n, arms):
    """D(k) of an n-cell window: 1 below its half h, 2 from h on."""
    d = np.ones(n)
    d[_half(n, arms) :] = 2.0
    return d


def _rhs_of(t, v, *, arms, total, work=None):
    """The doubled rate g = 2 dc/dt that oracle._rhs gives at the stored window v.

    v is written as it is into the window of a step's start, of a fresh
    work unless one is given.
    """
    if work is None:
        work = _Work(v.size, arms, total)
    work.start.v[:] = v
    return _rhs(t, work, work.start)


def _rhs_at(t, w, *, arms, total, work=None):
    """The doubled rate at the window w(k) = k y(k), stored doubled: v = D w."""
    return _rhs_of(t, _doubling(w.size, arms) * w, arms=arms, total=total, work=work)


def _dcdt(t, c, *, arms, total, work=None):
    """dc/dt at the state c through oracle._rhs: half the doubled rate at c's window.

    The window is k c(k), with -total at k = 0 on a classic state, as
    integrate writes a step's start.
    """
    w = np.arange(c.size) * c
    if not arms:
        w[0] = -total
    return 0.5 * _rhs_at(t, w, arms=arms, total=total, work=work)


def _work_arrays(work):
    """Every array a work holds."""
    return [
        work.loss,
        work.loss_weight,
        work.doubling,
        work.doubled,
        *vars(work.start).values(),
        *vars(work.stage).values(),
    ]


def _doubled(value):
    """A stand-in for oracle._rhs whose doubled rate is 2 value in every cell: dc/dt = value."""
    return lambda t, work, y: np.full(y.v.size, 2.0 * value)


class TestInitialStates:
    def test_classic(self):
        st = initial_classic(Discrete([(1, 0.5), (3, 0.25)]), 10)
        assert st.c[1] == 0.5 and st.c[3] == 0.25
        assert st.mass == pytest.approx(1.25)

    def test_arms(self):
        st = initial_arms(ARM, 10)
        assert st.arms and st.c.shape == (11,)
        assert st.c[0] == 0.5 and st.c[3] == 0.25
        assert st.arm_count == pytest.approx(1.0)

    def test_arms_sums_general_data_over_mass(self):
        # any {"type":"arms"} data: each a holds its weights summed over m,
        # at any mass
        st = initial_arms(ArmMeasure({(1, 1): 0.4, (3, 50): 0.2, (3, 7): 0.1}), 4)
        assert st.c.tolist() == [0.0, 0.4, 0.0, 0.2 + 0.1, 0.0]
        assert st.arm_count == pytest.approx(1.3)

    def test_window_too_small(self):
        with pytest.raises(DomainError):
            initial_classic(Monodisperse(), 1)
        with pytest.raises(DomainError):
            initial_arms(ARM, 2)  # a=3 atom does not fit
        with pytest.raises(DomainError):
            initial_arms(ARM, 0)

    def test_classic_atom_outside_the_window(self):
        # the lattice weights up to m_max would drop it, and the oracle would
        # start from less than the initial mass
        with pytest.raises(DomainError, match=r"^initial atom \(m=60\) outside"):
            initial_classic(Discrete([(1, 0.5), (60, 0.001)]), 50)
        assert initial_classic(Discrete([(1, 0.5), (60, 0.001)]), 60).c[60] == 0.001

    def test_arms_state_has_no_mass(self):
        # the arm marginal holds no masses: gel_mass is nan, mass undefined
        st = initial_arms(ARM, 10)
        for out in integrate(st, [0.0, 1.0, 3.0], 1e-2):
            assert out.arms and math.isnan(out.gel_mass)
            with pytest.raises(DomainError):
                out.mass
        with pytest.raises(DomainError):
            initial_classic(Monodisperse(), 10).arm_count


class TestIntegrate:
    def test_zero_time(self):
        init = initial_classic(Monodisperse(), 20)
        (out,) = integrate(init, [0.0], 1e-2)
        assert np.array_equal(out.c, init.c)
        assert out.gel_mass == 0.0

    def test_pre_gel_mass_conserved(self):
        # before T_gel = 1 the window's equations are exact: its mass is the
        # closed-form window sum, what the window loses is in larger clusters
        model = Smoluchowski(Monodisperse())
        times = [0.3, 0.6, 0.9]
        traj = integrate(initial_classic(Monodisperse(), 200), times, 1e-3)
        for t, st in zip(times, traj):
            window = (np.arange(201) * concentrations(model, t, 200)).sum()
            assert abs(st.mass - window) <= 1e-9

    def test_gel_bookkeeping_exact(self):
        init = initial_classic(Monodisperse(), 150)
        traj = integrate(init, [1.0, 2.0, 3.0], 1e-3)
        for st in traj:
            assert st.gel_mass + st.mass == pytest.approx(1.0, abs=1e-10)
            assert st.gel_mass >= 0.0

    def test_gel_interacting_tracks_analytic(self):
        model = Flory(Monodisperse())
        init = initial_classic(Monodisperse(), 400)
        times = [2.0, 3.0]
        traj = integrate(init, times, 1e-3)
        for t, st in zip(times, traj):
            assert st.mass == pytest.approx(model.mass(t), abs=1e-3)

    def test_bad_inputs(self):
        init = initial_classic(Monodisperse(), 20)
        with pytest.raises(DomainError):
            integrate(init, [1.0], 0.0)
        with pytest.raises(UsageError):
            integrate(initial_classic(Monodisperse(), 20), [-1.0], 1e-2)

    @pytest.mark.parametrize(
        "grid, dt",
        [([1.0, math.inf], 1e-2), ([math.nan], 1e-2), ([1.0], math.nan)],
        ids=["inf-time", "nan-time", "nan-dt"],
    )
    def test_non_finite_time_or_step_rejected_before_any_step(self, grid, dt, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("integrate stepped")

        monkeypatch.setattr(oracle, "_rhs", no_step)
        with pytest.raises(DomainError):
            integrate(initial_classic(Monodisperse(), 20), grid, dt)

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_initial_time_rejected_before_any_step(self, t0, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("integrate stepped")

        monkeypatch.setattr(oracle, "_rhs", no_step)
        init = OracleState(t=t0, c=initial_classic(Monodisperse(), 20).c)
        with pytest.raises(DomainError):
            integrate(init, [0.5], 1e-2)

    @pytest.mark.parametrize("arms", [False, True])
    @pytest.mark.parametrize(
        "value, message",
        [
            (math.inf, "concentrations are no longer finite at t=0.01; reduce dt"),
            (-math.inf, "concentrations are no longer finite at t=0.01; reduce dt"),
            (math.nan, "concentrations are no longer finite at t=0.01; reduce dt"),
            (
                -1e-6,
                "concentration went negative (-1.000e-08) at t=0.01; "
                "reduce dt or enlarge the truncation window",
            ),
        ],
        ids=["inf", "-inf", "nan", "negative"],
    )
    def test_a_bad_step_is_a_solver_error(self, value, message, arms, monkeypatch):
        # the first step's state is checked before any other: a non-finite
        # entry first, then one below -1e-9
        monkeypatch.setattr(oracle, "_rhs", _doubled(value))
        init = initial_arms(ARM, 6) if arms else initial_classic(Monodisperse(), 20)
        with pytest.raises(SolverError) as raised:
            integrate(init, [0.05], 1e-2)
        assert str(raised.value) == message

    @pytest.mark.parametrize("arms", [False, True])
    def test_small_negatives_are_clipped_to_zero(self, arms, monkeypatch):
        monkeypatch.setattr(oracle, "_rhs", _doubled(-1e-12))
        init = initial_arms(ARM, 6) if arms else initial_classic(Monodisperse(), 20)
        (out,) = integrate(init, [0.05], 1e-2)
        assert out.c.min() == 0.0
        assert not np.signbit(out.c).any()

    @pytest.mark.parametrize("arms", [False, True])
    def test_one_step_is_the_rk4_combination(self, arms):
        # each step runs on the doubled rate g = 2 dc/dt: the stage inputs
        # enter the window as D(k) k c(k) + ((h/4) D(k) k) g(k), and the step
        # sums (2 (g2 + g3) + g1) + g4 in place, bit for bit, with the steps
        # evaluating into integrate's work arrays
        init = initial_arms(ARM, 6) if arms else initial_classic(Monodisperse(), 30)
        h, total = 0.3, (init.arm_count if arms else init.mass)
        dk = _doubling(init.c.size, arms) * np.arange(init.c.size)

        def g(t, v):
            return _rhs_of(t, v, arms=arms, total=total)

        def step(t, c):
            v = dk * c
            if not arms:
                v[0] = -total
            g1 = g(t, v)
            g2 = g(t + 0.5 * h, (0.25 * h * dk) * g1 + v)
            g3 = g(t + 0.5 * h, (0.25 * h * dk) * g2 + v)
            g4 = g(t + h, (0.5 * h * dk) * g3 + v)
            return np.clip(c + (h / 12.0) * (2.0 * (g2 + g3) + g1 + g4), 0.0, None)

        first = step(0.0, init.c)
        second = step(h, first)
        out = integrate(init, [h, 2 * h], h)
        assert np.array_equal(out[0].c, first)
        assert np.array_equal(out[1].c, second)

    def test_fourth_order_convergence(self):
        init = initial_classic(Monodisperse(), 50)
        ref = integrate(init, [0.5], 1e-4)[0].c
        coarse = integrate(init, [0.5], 2e-2)[0].c
        fine = integrate(init, [0.5], 1e-2)[0].c
        ratio = np.abs(coarse - ref).max() / np.abs(fine - ref).max()
        assert 12.0 <= ratio <= 20.0


class TestArmsIntegrate:
    def test_arm_count_matches_analytic_pre_gel(self):
        # before T_gel = 2 the marginal's equations are exact but for the
        # clusters beyond a_max that a one-arm partner brings back, which
        # a_max = 960 makes negligible (at 480 the arm count is 1.4e-6 off at
        # t = 1.5).  Its arm count is then A_t, and its rows a <= 120 hold the
        # closed-form window sum over every mass (m <= 400 here, the tail past
        # m = 300 below 1e-10).  Column m = 1 is mu(a) alpha_t^-a, built here,
        # since arms_concentrations holds the initial law there.
        model = SmoluchowskiArms(ARM)
        times = [0.5, 1.0, 1.5]
        traj = integrate(initial_arms(ARM, 960), times, 5e-3)
        a = np.arange(121)
        for t, st in zip(times, traj):
            assert abs(st.arm_count - model.arms_count(t)) <= 1e-9
            c = arms_concentrations(model, t, 120, 400)
            assert (a[:, None] * c)[:, 300:].sum() < 1e-10
            alpha = model.state(t).alpha
            c[:, 1] = [MU.get(k, 0.0) * alpha**-k for k in a]
            assert abs((a * st.c[:121]).sum() - (a[:, None] * c).sum()) <= 1e-9

    def test_gel_interacting_post_gel(self):
        model = FloryArms(ARM)
        times = [3.0, 4.0]
        traj = integrate(initial_arms(ARM, 120), times, 5e-3)
        for t, st in zip(times, traj):
            assert st.arm_count == pytest.approx(model.arms_count(t), abs=2e-3)

    def test_nonnegative_concentrations(self):
        traj = integrate(initial_arms(ARM, 60), [1.0], 5e-3)
        assert (traj[0].c >= 0.0).all()

    def test_marginal_matches_the_two_dimensional_oracle(self, arms_oracle_2d):
        # at t = T_gel / 2 the (a, m) equations summed over m are the
        # marginal's, step for step: the arm counts differ only by rounding
        # and by the arms carried past the m-window, which holds less than
        # 1e-13 in its last 20 columns
        a_max, m_max, t = 12, 80, 0.5 * SmoluchowskiArms(ARM).t_gel
        (st,) = integrate(initial_arms(ARM, a_max), [t], 1e-2)
        weighted = np.arange(a_max + 1)[:, None] * arms_oracle_2d(ARM, a_max, m_max, t, 1e-2)
        assert weighted[:, -20:].sum() < 1e-13
        assert abs(st.arm_count - weighted.sum()) <= 1e-12


def _explicit_loss_rk4(initial, t_grid, dt):
    """The states integrate sampled on t_grid when RK4 ran on dc/dt itself.

    Each stage input y was formed first, its window w = k y(k) second, and
    the loss w(k) total(t) was subtracted from half the kept sums, never
    carried in them.
    """
    n, arms = initial.c.size, initial.arms
    k = np.arange(n, dtype=float)
    total = float(k @ initial.c)
    shift = 2 if arms else 0

    def rhs(t, c):
        w = k * c
        padded = np.zeros(2 * n - 1 + shift)
        padded[n - 1 : 2 * n - 1] = w
        gain = 0.5 * np.correlate(padded[shift:], w[::-1], "valid")
        return gain - w * (total / (1.0 + t * total) if arms else total)

    t, c, out = initial.t, initial.c.copy(), []
    for target in t_grid:
        while t < target - 1e-12:
            h = min(dt, target - t)
            k1 = rhs(t, c)
            k2 = rhs(t + 0.5 * h, c + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, c + 0.5 * h * k2)
            k4 = rhs(t + h, c + h * k3)
            c = np.maximum(c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.0)
            t += h
        out.append(c)
    return out


class TestMatchesTheExplicitLossForm:
    # the doubled rate and the loss in the kept sums change only the
    # rounding: masses and arm counts agree to 1e-14 at every sampled time
    @pytest.mark.parametrize(
        "measure",
        [Monodisperse(), Discrete([(1, 0.5), (2, 0.25), (3, 0.125), (5, 0.0625)])],
        ids=["monodisperse", "four-atoms"],
    )
    def test_classic_masses(self, measure):
        t_end = 0.55 * Smoluchowski(measure).t_gel
        times = np.linspace(0.0, t_end, 11)
        init = initial_classic(measure, 300)
        new = integrate(init, times, t_end / 175)
        old = _explicit_loss_rk4(init, times, t_end / 175)
        for st, c in zip(new, old):
            assert st.c[0] == 0.0
            mass = float(np.arange(c.size) @ c)
            assert abs(st.mass - mass) <= 1e-14 * mass

    @pytest.mark.parametrize(
        "mu, a_max",
        [({0: 0.5, 1: 0.5}, 1), ({0: 0.25, 1: 0.5, 2: 0.25}, 2), (MU, 45)],
        ids=["a_max-1", "a_max-2", "a_max-45"],
    )
    def test_arm_counts(self, mu, a_max):
        t_end = 1.0
        times = np.linspace(0.0, t_end, 11)
        init = initial_arms(ArmMeasure.monodisperse(mu), a_max)
        new = integrate(init, times, t_end / 175)
        old = _explicit_loss_rk4(init, times, t_end / 175)
        for st, c in zip(new, old):
            count = float(np.arange(c.size) @ c)
            assert abs(st.arm_count - count) <= 1e-14 * count


def _convolved_rhs_classic(c, M0):
    """The classic right-hand side with the gain cut from the full self-convolution.

    Returns the gain, the loss and their difference with entry 0 zeroed.
    """
    n = c.size
    w = np.arange(n) * c
    gain = 0.5 * np.convolve(w, w)[:n]
    loss = w * M0
    out = gain - loss
    out[0] = 0.0
    return gain, loss, out


def _exact_check(out, w, shift, loss):
    """Every cell of out within n eps sum|terms| + n tiny of its exact Fraction sum.

    The exact sum of cell k runs over the ordered pairs j + l = k + shift of
    the window w, less loss w(k); each double is a whole multiple of 2^-1074,
    so the sums are kept as integers in units of 2^-2148.
    """
    n = w.size
    unit = 2**1074
    ints = [int(Fraction(float(x)) * unit) for x in w]
    eps, tiny = Fraction(np.finfo(float).eps), Fraction(np.finfo(float).tiny)
    for k in range(n):
        pairs = range(max(0, k + shift - n + 1), min(n, k + shift + 1))
        terms = [ints[j] * ints[k + shift - j] for j in pairs]
        terms.append(-loss * ints[k] * unit)
        exact = Fraction(sum(terms), unit * unit)
        size = Fraction(sum(abs(x) for x in terms), unit * unit)
        err = abs(Fraction(float(out[k])) - exact)
        assert err <= n * eps * size + n * tiny, (k, float(err), float(size))


def _log_uniform_window(n, seed):
    """n cells drawn log-uniform over 1e-300..1."""
    return 10.0 ** np.random.default_rng(seed).uniform(-300.0, 0.0, n)


def _allocating_rhs_classic(c, M0):
    """The classic right-hand side with fresh arrays, no work arrays.

    The loss rides in the kept sums: w(0) holds -M0, so each sum k >= 1 is
    the gain less 2 M0 w(k); the window holds v = D w, and the kernel its
    first h cells back to front; the doubled rate is halved.
    """
    n, h = c.size, _half(c.size, False)
    w = np.arange(n) * c
    w[0] = -M0
    v = _doubling(n, False) * w
    padded = np.zeros(h - 1 + n)
    padded[h - 1 :] = v
    out = np.correlate(padded, v[:h][::-1], "valid")
    out[0] = 0.0
    return 0.5 * out


def _underflow_state():
    """A 400-cell state at t = 0.1, where most tail products underflow."""
    return integrate(initial_classic(Monodisperse(), 399), [0.1], 1e-2)[0].c


def _rhs_classic(c, M0, work=None):
    return _dcdt(0.0, c, arms=False, total=M0, work=work)


class TestClassicRhs:
    @staticmethod
    def _check(c, M0):
        # the kept sums may add in another order: each of the n terms of an
        # entry's gain and loss rounds once more, at most n eps of their size
        # where the reference is a normal double, and at most n of the
        # smallest subnormal where it is not
        n = c.size
        gain, loss, expected = _convolved_rhs_classic(c, M0)
        out = _rhs_classic(c, M0)
        assert out[0] == 0.0
        normal = np.abs(expected) >= np.finfo(float).tiny
        err = np.abs(out - expected)
        assert (err[normal] <= n * np.finfo(float).eps * (gain + np.abs(loss))[normal]).all()
        assert (err[~normal] <= n * np.finfo(float).smallest_subnormal).all()
        return normal.sum()

    @pytest.mark.parametrize("n", [2, 3, 31, 401])
    def test_matches_the_cut_full_convolution(self, n):
        c = np.random.default_rng(n).random(n)
        self._check(c, 1.3)

    def test_matches_where_the_tail_products_underflow(self):
        c = _underflow_state()
        w = np.arange(c.size) * c
        # c(m) ~ t^(m-1): the discarded outputs of the full convolution underflow
        assert (np.convolve(w, w)[c.size :] < np.finfo(float).tiny).mean() > 0.5
        assert self._check(c, 1.0) > 100

    @pytest.mark.parametrize("n", [2, 3, 4, 31, 46, 47, 400, 401])
    def test_every_cell_within_the_bound_of_the_exact_sum(self, n):
        # each unordered pair is summed once, against the kernel of the
        # window's first h cells: every cell keeps the error bound of a sum
        # of its terms, and g(0), which holds M0^2, is 0
        M0 = 0.75
        w = _log_uniform_window(n, n)
        w[0] = -M0
        work = _Work(n, False, M0)
        assert work.start.kernel.size == work.stage.kernel.size == (n - 1) // 2 + 1
        out = _rhs_at(0.0, w, arms=False, total=M0, work=work)
        assert out[0] == 0.0
        out[0] = M0 * M0
        _exact_check(out, w, 0, Fraction(0))

    @pytest.mark.parametrize("n", [2, 3, 31, 401])
    def test_matches_the_allocating_form_bit_for_bit(self, n):
        c = np.random.default_rng(n).random(n)
        assert np.array_equal(_rhs_classic(c, 1.3), _allocating_rhs_classic(c, 1.3))

    def test_matches_the_allocating_form_where_products_underflow(self):
        c = _underflow_state()
        assert np.array_equal(_rhs_classic(c, 1.0), _allocating_rhs_classic(c, 1.0))

    @pytest.mark.parametrize("n", [2, 3, 31, 401])
    def test_a_used_work_gives_the_same_result(self, n):
        rng = np.random.default_rng(n)
        c = rng.random(n)
        # a work is made for one total, as for one n: only the state differs
        work = _Work(n, False, 1.3)
        _rhs_classic(rng.random(n), 1.3, work)
        assert np.array_equal(_rhs_classic(c, 1.3), _rhs_classic(c, 1.3, work))

    def test_result_is_not_a_work_array(self):
        rng = np.random.default_rng(3)
        c1 = rng.random(31)
        work = _Work(31, False, 1.3)
        w = np.arange(31) * c1
        w[0] = -1.3
        k = _rhs_at(0.0, w, arms=False, total=1.3, work=work)
        assert not any(np.shares_memory(k, buf) for buf in _work_arrays(work))
        k *= 0.5
        _rhs_classic(rng.random(31), 1.3, work)
        assert np.array_equal(k, _allocating_rhs_classic(c1, 1.3))


def _direct_rhs_marginal(t, u, A0):
    """The arm marginal's right-hand side by a direct sum over a1 + a2 = a + 2.

    Returns the gain and the right-hand side.
    """
    n = u.size
    w = np.arange(n) * u
    gain = np.zeros(n)
    for a in range(n):
        for a1 in range(max(0, a + 3 - n), min(n, a + 3)):
            gain[a] += 0.5 * w[a1] * w[a + 2 - a1]
    return gain, gain - w * (A0 / (1.0 + t * A0))


class TestArmsRhs:
    @pytest.mark.parametrize("a_max", [1, 2, 3, 9, 45])
    def test_matches_the_direct_sum(self, a_max):
        # at a_max 1 and 2 the shift of 2 reaches past the n - 1 leading zeros
        n = a_max + 1
        u = np.random.default_rng(a_max).random(n)
        gain, expected = _direct_rhs_marginal(0.7, u, 1.3)
        loss = np.arange(n) * u * (1.3 / (1.0 + 0.7 * 1.3))
        out = _dcdt(0.7, u, arms=True, total=1.3)
        assert (np.abs(out - expected) <= n * np.finfo(float).eps * (gain + loss)).all()

    @pytest.mark.parametrize("n", [2, 3, 4, 31, 46, 47, 400, 401])
    def test_every_cell_within_the_bound_of_the_exact_sum(self, n):
        # shift 2: the kernel holds h = (n + 1)//2 + 1 cells; at A0 = 3 and
        # t = 1 the loss weight 2 A_t = 3/2 is exact, so the bound checks the
        # sums and the loss product alone
        w = _log_uniform_window(n, n)
        work = _Work(n, True, 3.0)
        assert work.start.kernel.size == work.stage.kernel.size == (n + 1) // 2 + 1
        out = _rhs_at(1.0, w, arms=True, total=3.0, work=work)
        _exact_check(out, w, 2, Fraction(3, 2))

    def test_two_arm_merger_lands_two_rows_down(self):
        # w = a u = (0, 1, 1): (1) + (1) -> (0), (2) + (1) -> (1) and
        # (2) + (2) -> (2), each loss w(a) A_0 = 2 w(a) at t = 0
        u = np.array([0.0, 1.0, 0.5])
        out = _dcdt(0.0, u, arms=True, total=2.0)
        assert out.tolist() == [0.5, 1.0 - 2.0, 0.5 - 2.0]

    @pytest.mark.parametrize("n", [2, 3, 31])
    def test_a_used_work_gives_the_same_result(self, n):
        rng = np.random.default_rng(n)
        u = rng.random(n)
        # a work is made for one total, as for one n: the state and time differ
        work = _Work(n, True, 1.3)
        _dcdt(0.2, rng.random(n), arms=True, total=1.3, work=work)
        assert np.array_equal(
            _dcdt(0.7, u, arms=True, total=1.3), _dcdt(0.7, u, arms=True, total=1.3, work=work)
        )

    def test_result_is_not_a_work_array(self):
        rng = np.random.default_rng(3)
        u1 = rng.random(8)
        work = _Work(8, True, 1.3)
        k = _rhs_at(0.7, np.arange(8) * u1, arms=True, total=1.3, work=work)
        assert not any(np.shares_memory(k, buf) for buf in _work_arrays(work))
        k *= 0.5
        _dcdt(0.2, rng.random(8), arms=True, total=1.3, work=work)
        assert np.array_equal(k, _dcdt(0.7, u1, arms=True, total=1.3))


class TestCompare:
    def test_identical(self):
        rep = compare([0.0, 1.0], [1.0, 0.5], [1.0, 0.5], tol=1e-12)
        assert rep.max_abs == 0.0 and rep.passed

    def test_tolerance_verdict(self):
        rep = compare([0.0], [1.0], [1.001], tol=1e-4)
        assert not rep.passed
        assert rep.max_abs == pytest.approx(1e-3)
        assert rep.max_rel == pytest.approx(1e-3)

    def test_nan_difference_fails(self):
        rep = compare([0.0, 1.0], [1.0, math.nan], [1.0, 0.5], tol=1e-3)
        assert rep.abs_errors[0] == 0.0 and math.isnan(rep.abs_errors[1])
        assert math.isnan(rep.max_abs)
        assert not rep.passed

    def test_grid_mismatch(self):
        with pytest.raises(UsageError):
            compare([0.0, 1.0], [1.0], [1.0, 0.5])
        with pytest.raises(UsageError):
            compare([0.0], [np.zeros(3)], [np.zeros(4)])
