import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from numpy.testing import assert_allclose

from delaylyap import (
    HistorySpec,
    P_at,
    Weight,
    cost_quadrature,
    cost_to_go,
    fundamental_matrix,
    oracle_P,
    simulate,
    solve,
    zero_kernel,
)
from delaylyap import sim
from delaylyap.model import TimeDelaySystem
from delaylyap.quadrature import integrate

from systems import benchmark_system, neutral_kernel_system, scalar_decay


def solve_ivp_reference(sys, history, T, rtol=1e-11):
    """Method of steps with scipy's DOP853, fully independent of the
    fixed-step integrator. Returns the state at multiples of h up to T."""
    h = sys.h
    n, nd = sys.n, sys.internal_dim
    EBd = scipy.linalg.expm(-sys.Ad * h) @ sys.Bd
    x0 = history.initial_state()[:, 0]
    y0 = history.convolution_state(sys)[:, 0]
    pieces = []

    def delayed(t):
        s = t - h
        if s <= 0:
            if s >= -1e-12:
                return history.value(0.0)[:, 0]
            return history.value(s)[:, 0]
        j = int(np.ceil(s / h)) - 1
        return pieces[j](min(s, (j + 1) * h))[:n]

    def rhs(t, z):
        x, y = z[:n], z[n:]
        xd = delayed(t)
        return np.concatenate([
            sys.A0 @ x + sys.Cd @ y + sys.A1 @ xd,
            sys.Bd @ x - sys.Ad @ y - EBd @ xd,
        ])

    z = np.concatenate([x0, y0])
    out = [z.copy()]
    steps = int(round(T / h))
    for j in range(steps):
        res = scipy.integrate.solve_ivp(
            rhs, (j * h, (j + 1) * h), z, method="DOP853",
            rtol=rtol, atol=1e-13, dense_output=True,
        )
        assert res.success
        pieces.append(res.sol)
        z = res.y[:, -1]
        out.append(z.copy())
    return np.array(out)


def reference_simulate(sys, history, T, dt=None):
    """The per-step RK4 loop that :func:`simulate` replaced, kept literally
    as its reference: four ``rhs`` calls per step, delayed reads from the
    history or from the Hermite interpolant of the record. Returns the
    ``xs``, ``ys``, ``xd_start``, ``xd_end``, ``yd_start`` and ``yd_end``
    records with the column axis kept."""
    h = sys.h
    dt, m, steps = sim._resolve_step(h, T, dt)
    n = sys.n
    nd = sys.internal_dim
    c = history.columns
    A0, A1, Ad, Bd, Cd = sys.A0, sys.A1, sys.Ad, sys.Bd, sys.Cd
    EBd = scipy.linalg.expm(-Ad * h) @ Bd

    X = np.zeros((steps + 1, n, c))
    Y = np.zeros((steps + 1, nd, c))
    Xd0 = np.zeros((steps, n, c))
    Xd1 = np.zeros((steps, n, c))
    Yd0 = np.zeros((steps, nd, c))
    Yd1 = np.zeros((steps, nd, c))
    X[0] = history.initial_state()
    Y[0] = history.convolution_state(sys)

    def rhs(x, y, xd):
        xd = x if xd is None else xd
        dx = A0 @ x + Cd @ y + A1 @ xd
        dy = Bd @ x - Ad @ y - EBd @ xd
        return dx, dy

    def history_read(theta):
        if theta >= -1e-12 * max(1.0, h):
            return history.value(0.0)
        return history.value(max(theta, -h))

    for k in range(steps):
        x = X[k]
        y = Y[k]
        if h == 0:
            # the delayed argument coincides with each stage's own state
            xd_a = xd_m = xd_b = None
        elif k >= m:
            base = k - m
            xd_a = X[base]
            xd_b = X[base + 1]
            xd_m = sim.Trajectory._hermite(
                X[base], X[base + 1], Xd0[base], Xd1[base], dt, 0.5
            )
        else:
            theta = (k - m) * dt
            xd_a = history_read(theta)
            xd_m = history_read(theta + 0.5 * dt)
            xd_b = history_read(theta + dt)
        k1x, k1y = rhs(x, y, xd_a)
        k2x, k2y = rhs(x + 0.5 * dt * k1x, y + 0.5 * dt * k1y, xd_m)
        k3x, k3y = rhs(x + 0.5 * dt * k2x, y + 0.5 * dt * k2y, xd_m)
        k4x, k4y = rhs(x + dt * k3x, y + dt * k3y, xd_b)
        X[k + 1] = x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        Y[k + 1] = y + dt / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y)
        Xd0[k] = k1x
        Yd0[k] = k1y
        Xd1[k] = k4x
        Yd1[k] = k4y
        if not (np.all(np.isfinite(X[k + 1])) and np.all(np.isfinite(Y[k + 1]))):
            raise OverflowError("simulation diverged at t=%g" % ((k + 1) * dt))
    return X, Y, Xd0, Xd1, Yd0, Yd1


def wave(theta):
    """A smooth history of the benchmark system, ``(cos 2 th, sin 2 th)``."""
    return np.stack([np.cos(2 * theta), np.sin(2 * theta)], axis=-1)


def recurrence_case(case):
    """System, history and horizon of one reference-recurrence case; the
    ``"function"`` case runs the smooth history :func:`wave`."""
    sys, _ = benchmark_system()
    if case == "point_mass":
        return sys, HistorySpec.point_mass([1.0, -0.5]), 6.0
    if case == "function":
        return sys, HistorySpec.from_function(wave), 6.0
    if case == "fundamental":
        return sys, HistorySpec.point_mass(np.eye(2)), 6.0
    # h = 0: the delayed argument is the state itself
    sys = TimeDelaySystem(sys.A0, sys.A1, sys.Ad, sys.Bd, sys.Cd, 0.0)
    return sys, HistorySpec.point_mass([1.0, -0.5]), 3.0


class TestHistorySpec:
    def test_point_mass(self):
        hist = HistorySpec.point_mass([1.0, 2.0])
        assert hist.dim == 2 and hist.columns == 1
        assert np.array_equal(hist.initial_state(), [[1.0], [2.0]])
        assert np.all(hist.value(-0.5) == 0)
        # the left limit at the seam, not the state after the jump
        assert np.all(hist.value(0.0) == 0)

    def test_fundamental(self):
        # the identity block: a point mass of one column per state
        hist = HistorySpec.point_mass(np.eye(3))
        assert hist.dim == 3 and hist.columns == 3
        assert np.array_equal(hist.initial_state(), np.eye(3))
        assert np.all(hist.value(-0.2) == 0)
        assert np.array_equal(hist.value(np.full((4, 3), -0.2)), np.zeros((4, 3, 3, 3)))

    @pytest.mark.parametrize("x0", [1.0, [], np.zeros((2, 0)), np.zeros((2, 2, 2))],
                             ids=["scalar", "empty", "empty-block", "3-d"])
    def test_point_mass_is_a_vector_or_a_matrix(self, x0):
        with pytest.raises(ValueError, match="nonempty vector or matrix"):
            HistorySpec.point_mass(x0)

    def test_function_history_reads_phi(self):
        # a function history reads phi, and its state at zero is phi(0)
        hist = HistorySpec.from_function(lambda th: np.cos(2.0 * th)[..., None])
        assert hist.columns == 1
        assert_allclose(hist.initial_state(), [[1.0]], atol=1e-12)
        assert_allclose(hist.value(-0.37), [[np.cos(-0.74)]], atol=1e-8)
        assert_allclose(hist.value(0.0), [[1.0]], atol=1e-12)
        # an array of lags is one read, stacked on the array's axes
        lags = np.array([[-0.37, -1.0, -0.75], [-0.5, -1e-3, 0.0]])
        assert np.array_equal(hist.value(lags),
                              [[hist.value(t) for t in row] for row in lags])

    @pytest.mark.parametrize("phi", [lambda th: np.cos(th), lambda th: np.zeros(0),
                                     lambda th: np.eye(2) * np.cos(th)],
                             ids=["scalar", "empty", "matrix"])
    def test_function_value_at_zero_is_a_vector(self, phi):
        with pytest.raises(ValueError, match=r"phi\(0\) must be a nonempty vector"):
            HistorySpec.from_function(phi)

    def test_function_must_be_vectorised(self):
        # phi of a grid of theta gives one value per theta
        sys, _ = benchmark_system()
        hist = HistorySpec.from_function(lambda th: np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match=r"phi returned shape \(2,\) for theta "
                           r"of shape \(64, 3\), not theta.shape \+ \(2,\)"):
            simulate(sys, hist, 2.0)

    def test_convolution_state_closed_form(self):
        # scalar kernel: y(0) = c (1 - e^-(a+b) h) / (a + b) for phi = e^(a th)
        a, b, c = 0.5, 0.3, 2.0
        sys = TimeDelaySystem([[-1.0]], [[0.0]], [[b]], [[c]], [[1.0]], 1.0)
        hist = HistorySpec.from_function(lambda th: np.exp(a * th)[..., None])
        expected = c * (1.0 - np.exp(-(a + b))) / (a + b)
        assert_allclose(hist.convolution_state(sys), [[expected]], atol=1e-8)

    def test_convolution_state_zero_for_jump_histories(self):
        sys, _ = benchmark_system()
        assert np.all(HistorySpec.point_mass([1.0, 0.0]).convolution_state(sys) == 0)
        assert np.all(HistorySpec.point_mass(np.eye(2)).convolution_state(sys) == 0)


class TestSimulate:
    def test_delay_free_matches_matrix_exponential(self):
        A0 = np.array([[-1.0, 0.5], [0.0, -2.0]])
        Ad, Bd, Cd = zero_kernel(2)
        sys = TimeDelaySystem(A0, np.zeros((2, 2)), Ad, Bd, Cd, 1.0)
        x0 = np.array([1.0, -1.0])
        traj = simulate(sys, HistorySpec.point_mass(x0), 5.0, dt=1.0 / 50)
        worst = max(
            np.max(np.abs(traj.xs[k] - scipy.linalg.expm(A0 * t) @ x0))
            for k, t in enumerate(traj.ts)
        )
        assert worst <= 1e-8

    def test_against_adaptive_reference(self):
        sys, _ = benchmark_system()
        hist = HistorySpec.point_mass([1.0, -0.5])
        ref = solve_ivp_reference(sys, hist, 3.0)
        traj = simulate(sys, hist, 3.0, dt=1.0 / 128)
        for j in range(4):
            k = int(round(j * 1.0 / traj.dt))
            assert np.max(np.abs(traj.xs[k] - ref[j][:2])) < 1e-8
            assert np.max(np.abs(traj.ys[k] - ref[j][2:])) < 1e-8

    def test_fourth_order_convergence(self):
        sys, _ = benchmark_system()
        hist = HistorySpec.point_mass([1.0, 0.0])
        fine = simulate(sys, hist, 3.0, dt=1.0 / 512)
        errs = []
        for m in (32, 64):
            traj = simulate(sys, hist, 3.0, dt=1.0 / m)
            stride = 512 // m
            errs.append(np.max(np.abs(traj.xs - fine.xs[::stride])))
        assert errs[0] / errs[1] > 8.0

    def test_initial_state_and_grid(self):
        sys, _ = benchmark_system()
        traj = simulate(sys, HistorySpec.point_mass([2.0, 3.0]), 2.0)
        assert np.array_equal(traj.xs[0], [2.0, 3.0])
        assert np.array_equal(traj.ys[0], [0.0, 0.0])
        assert_allclose(np.diff(traj.ts), traj.dt, rtol=1e-12)
        assert traj.ts[-1] >= 2.0 - 1e-12

    def test_internal_variable_tracks_convolution(self):
        # y(t) must equal the kernel-weighted moving average of x, so a run
        # of the augmented system solves the original delay equation; the
        # point-mass, function and identity-block starts each run once
        for case in ("point_mass", "function", "fundamental"):
            sys, hist, _ = recurrence_case(case)
            traj = simulate(sys, hist, 4.0)
            for t in (1.5, 2.5, 3.7):
                def f(thetas):
                    return np.array([scipy.linalg.expm(sys.Ad * theta) @ sys.Bd
                                     @ traj.x_at(t + theta) for theta in thetas])

                expected = integrate(f, -1.0, 0.0, tol=1e-7)
                assert_allclose(traj.y_at(t), expected, atol=1e-6)

    def test_function_history_run(self):
        sys, _ = benchmark_system()
        hist = HistorySpec.from_function(wave)
        ref = solve_ivp_reference(sys, hist, 2.0)
        traj = simulate(sys, hist, 2.0)
        assert np.array_equal(traj.xs[0], hist.initial_state()[:, 0])
        k = int(round(2.0 / traj.dt))
        assert np.max(np.abs(traj.xs[k] - ref[2][:2])) < 1e-7

    @pytest.mark.parametrize("case", ["point_mass", "function", "fundamental", "h0"])
    def test_matches_reference_recurrence(self, case):
        # the precomputed step matrix reorders the loop's arithmetic only
        sys, hist, T = recurrence_case(case)
        traj = simulate(sys, hist, T)
        records = (traj.xs, traj.ys, traj.xd_start, traj.xd_end,
                   traj.yd_start, traj.yd_end)
        for got, want in zip(records, reference_simulate(sys, hist, T)):
            want = want.reshape(got.shape)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("case", ["point_mass", "fundamental"])
    def test_longer_run_extends_shorter_bitwise(self, case):
        # oracle_P sizes its run by the largest pending lag, so a lag read
        # from a longer run must equal the same lag read from its own run
        sys, hist, _ = recurrence_case(case)
        short = simulate(sys, hist, 2.5)
        long = simulate(sys, hist, 6.0)
        K = short.steps
        for field in ("xs", "ys"):
            assert getattr(long, field)[:K + 1].tobytes() \
                == getattr(short, field).tobytes()
        for field in ("xd_start", "xd_end", "yd_start", "yd_end"):
            assert getattr(long, field)[:K].tobytes() \
                == getattr(short, field).tobytes()

    @pytest.mark.parametrize("case", ["point_mass", "function", "fundamental",
                                      "h0", "h0_default_step"])
    def test_continued_run_is_bitwise_a_fresh_run(self, case):
        # the oracles continue one run across their horizons: from inside
        # the first delay interval, past it, and back to a shorter prefix.
        # With h = 0 the default step follows the horizon, so that run
        # starts over each time
        sys, hist, T = recurrence_case(case.replace("_default_step", ""))
        dt = 1.0 / 64 if case == "h0" else None
        run = sim._Run(sys, hist, dt)
        for horizon in (0.4, 2.5, T, 1.7):
            got, want = run.to(horizon), simulate(sys, hist, horizon, dt=dt)
            assert got.dt == want.dt
            for field in ("ts", "xs", "ys", "xd_start", "xd_end", "yd_start",
                          "yd_end"):
                assert getattr(got, field).tobytes() \
                    == getattr(want, field).tobytes()

    def test_block_start_keeps_its_column_axis(self):
        # a one-column block runs as the vector does, column axis kept
        sys, _ = benchmark_system()
        vector = simulate(sys, HistorySpec.point_mass([1.0, -0.5]), 2.0)
        block = simulate(sys, HistorySpec.point_mass([[1.0], [-0.5]]), 2.0)
        assert vector.xs.shape == (vector.steps + 1, 2)
        assert block.xs.shape == (vector.steps + 1, 2, 1)
        for field in ("xs", "ys", "xd_start", "xd_end", "yd_start", "yd_end"):
            assert getattr(block, field).tobytes() == getattr(vector, field).tobytes()

    def test_step_validation(self):
        sys, _ = benchmark_system()
        hist = HistorySpec.point_mass([1.0, 0.0])
        with pytest.raises(ValueError):
            simulate(sys, hist, 2.0, dt=0.3)
        with pytest.raises(ValueError):
            simulate(sys, hist, 2.0, dt=1.0 / 10)
        with pytest.raises(ValueError):
            simulate(sys, hist, 0.0)

    def test_dimension_mismatch(self):
        sys, _ = benchmark_system()
        with pytest.raises(ValueError):
            simulate(sys, HistorySpec.point_mass([1.0]), 2.0)

    def test_divergence_detected(self):
        Ad, Bd, Cd = zero_kernel(1)
        sys = TimeDelaySystem([[50.0]], [[0.0]], Ad, Bd, Cd, 1.0)
        with pytest.raises(OverflowError):
            with np.errstate(over="ignore", invalid="ignore"):
                simulate(sys, HistorySpec.point_mass([1.0]), 50.0)


class TestTrajectory:
    def test_interpolation_matches_nodes(self):
        sys, _ = benchmark_system()
        traj = simulate(sys, HistorySpec.point_mass([1.0, 0.0]), 2.0)
        for k in (0, 10, traj.steps):
            assert np.array_equal(traj.x_at(traj.ts[k]), traj.xs[k])

    def test_interpolation_between_nodes(self):
        sys, _ = benchmark_system()
        hist = HistorySpec.point_mass([1.0, 0.0])
        coarse = simulate(sys, hist, 2.0, dt=1.0 / 64)
        fine = simulate(sys, hist, 2.0, dt=1.0 / 128)
        worst = 0.0
        for k in range(0, coarse.steps):
            t = (k + 0.5) * coarse.dt
            worst = max(worst, np.max(np.abs(coarse.x_at(t) - fine.xs[2 * k + 1])))
        assert worst < 1e-7
        # one read of many times, on and between nodes, equals one read each
        ts = np.concatenate([coarse.ts[::7], np.linspace(0.0, coarse.ts[-1], 301)])
        for read in (coarse.x_at, coarse.y_at):
            assert np.array_equal(read(ts), np.array([read(t) for t in ts]))

    def test_domain(self):
        sys, _ = benchmark_system()
        traj = simulate(sys, HistorySpec.point_mass([1.0, 0.0]), 2.0)
        with pytest.raises(ValueError):
            traj.x_at(-0.5)
        with pytest.raises(ValueError):
            traj.x_at(traj.ts[-1] + 0.1)
        with pytest.raises(ValueError):
            traj.y_at([0.5, np.nan])

    def test_csv_roundtrip(self, tmp_path):
        sys, _ = benchmark_system()
        traj = simulate(sys, HistorySpec.point_mass([1.0, 0.0]), 1.0)
        path = tmp_path / "trajectory.csv"
        traj.to_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        header = path.read_text().splitlines()[0]
        assert header == "t,x_1,x_2,y_1,y_2"
        assert np.array_equal(data[:, 0], traj.ts)
        assert np.array_equal(data[:, 1:3], traj.xs)
        assert np.array_equal(data[:, 3:5], traj.ys)

    def test_csv_is_byte_for_byte_per_row_formatting(self, tmp_path):
        # one formatting pass writes what per-row "%.17g" joins wrote,
        # signed zeros included
        sys, _ = benchmark_system()
        traj = simulate(sys, HistorySpec.point_mass([1.0, -0.0]), 3.0)
        assert np.signbit(traj.xs[0, 1])
        path = tmp_path / "trajectory.csv"
        traj.to_csv(path)
        want = ["t,x_1,x_2,y_1,y_2"]
        for k in range(traj.ts.size):
            row = [traj.ts[k], *traj.xs[k], *traj.ys[k]]
            want.append(",".join("%.17g" % v for v in row))
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()

    def test_csv_rejects_matrix_runs(self, tmp_path):
        sys, _ = benchmark_system()
        traj = fundamental_matrix(sys, 1.0)
        with pytest.raises(ValueError):
            traj.to_csv(tmp_path / "x.csv")


class TestCost:
    def test_pure_exponential(self):
        # x' = -x from 1: integral of x^2 is exactly one half
        sys, weight = scalar_decay(a0=-1.0, h=1.0, q=1.0)
        traj = simulate(sys, HistorySpec.point_mass([1.0]), 20.0)
        est = cost_quadrature(traj, weight)
        assert est.decaying
        assert_allclose(est.value, 0.5, atol=1e-6)
        assert est.tail < 1e-5

    def test_zero_weight(self):
        sys, _ = benchmark_system()
        traj = simulate(sys, HistorySpec.point_mass([1.0, 0.0]), 5.0)
        est = cost_quadrature(traj, Weight(np.zeros((2, 2))))
        assert est.value == 0.0
        assert est.tail == 0.0
        assert est.decaying

    def test_growth_is_flagged(self):
        Ad, Bd, Cd = zero_kernel(1)
        sys = TimeDelaySystem([[0.2]], [[0.0]], Ad, Bd, Cd, 1.0)
        traj = simulate(sys, HistorySpec.point_mass([1.0]), 20.0)
        est = cost_quadrature(traj, Weight([[1.0]]))
        assert not est.decaying

    def test_matrix_trajectory_rejected(self):
        sys, weight = benchmark_system()
        traj = fundamental_matrix(sys, 2.0)
        with pytest.raises(ValueError):
            cost_quadrature(traj, weight)

    def test_cost_to_go_doubles_horizon(self):
        sys, weight = benchmark_system()
        est, traj = cost_to_go(sys, weight, HistorySpec.point_mass([1.0, 0.0]))
        assert est.decaying
        assert abs(est.tail) <= 1e-5
        assert traj.ts[-1] > 21.0

    def test_cost_identity(self):
        sys, weight = benchmark_system()
        sol = solve(sys, weight)
        x0 = np.array([1.0, 1.0])
        est, _ = cost_to_go(sys, weight, HistorySpec.point_mass(x0))
        predicted = float(x0 @ P_at(sol, 0.0) @ x0)
        assert abs(est.value - predicted) <= 1e-3 * max(1.0, abs(predicted))

    def test_error_floor_is_not_growth(self):
        # the cost falls to the undamped truncation-error floor of the
        # augmented state, where the last tenth fits a slow growth
        sys, weight = neutral_kernel_system()
        est, traj = cost_to_go(sys, weight, HistorySpec.point_mass([-1.0]))
        predicted = float(P_at(solve(sys, weight), 0.0)[0, 0])
        assert est.decaying and est.tail == 0.0
        assert traj.ts[-1] < 21.0
        assert abs(est.value - predicted) <= 1e-3 * max(1.0, abs(predicted))


@pytest.mark.parametrize("samples", [2, 3, 4, 1281, 1282])
@pytest.mark.parametrize("shape", [(), (2, 2)])
def test_simpson_matches_scipy(samples, shape):
    # odd interval counts take scipy's last-interval correction (>= 1.11)
    dt = 1.0 / 64
    ts = dt * np.arange(samples)
    g = np.exp(-0.5 * ts) * (1.0 + 0.3 * np.cos(3.0 * ts))
    g = g.reshape((samples,) + (1,) * len(shape)) * np.ones(shape)
    if shape:
        g = g * np.array([[1.0, 0.4], [-0.3, 2.0]]) + 0.1 * np.sin(ts)[:, None, None]
    got = sim._simpson(g, dt)
    want = scipy.integrate.simpson(g, x=ts, axis=0)
    assert np.shape(got) == np.shape(want) == shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.fixture
def fm_runs(monkeypatch):
    """Horizons of the fundamental-matrix runs made during a test: one
    entry per horizon a run from an identity block is taken to, whether
    it starts or continues the run."""
    runs = []
    original = sim._Run.to

    def counting(self, T):
        if np.ndim(self.history.x0) == 2:
            runs.append(T)
        return original(self, T)

    monkeypatch.setattr(sim._Run, "to", counting)
    return runs


@pytest.fixture
def rk4_steps(monkeypatch):
    """RK4 steps taken during a test, one entry per stretch a run steps."""
    stretches = []
    original = sim._Run._advance

    def counting(self, steps):
        stretches.append(steps - self.steps)
        return original(self, steps)

    monkeypatch.setattr(sim._Run, "_advance", counting)
    return stretches


class TestOracleP:
    def test_delay_free_closed_form(self):
        sys, weight = scalar_decay(a0=-1.0, h=1.0, q=1.0)
        for tau in (0.0, 0.3, 1.0):
            got = oracle_P(sys, weight, tau)
            assert_allclose(got, [[0.5 * np.exp(-tau)]], atol=1e-5)

    def test_symmetric_at_zero(self):
        sys, weight = benchmark_system()
        M = oracle_P(sys, weight, 0.0)
        assert np.max(np.abs(M - M.T)) < 1e-6

    def test_negative_lag_is_transpose(self):
        sys, weight = benchmark_system()
        assert np.array_equal(oracle_P(sys, weight, -0.5),
                              oracle_P(sys, weight, 0.5).T)
        P = oracle_P(sys, weight, [0.5, -0.5, -0.3, 0.3])
        assert np.array_equal(P[1], P[0].T)
        assert np.array_equal(P[2], P[3].T)

    @pytest.mark.parametrize("case", ["benchmark", "scalar_T5.25"])
    def test_sequence_is_bitwise_a_stack_of_scalar_calls(self, case, fm_runs):
        # one fundamental-matrix run per horizon serves every lag; on the
        # short scalar horizon the lags 0 and 0.25 need a second horizon
        # while the others settle on the first
        if case == "benchmark":
            (sys, weight), T, per_lag = benchmark_system(), None, [2] * 5
        else:
            (sys, weight), T, per_lag = scalar_decay(-1.0, 1.0, 1.0), 5.25, [2, 2, 1, 1, 1]
        taus = [0.0, 0.25, 0.5, 0.75, 1.0]
        stacked, counts = [], []
        for tau in taus:
            fm_runs.clear()
            stacked.append(oracle_P(sys, weight, tau, T=T))
            counts.append(len(fm_runs))
        fm_runs.clear()
        P = oracle_P(sys, weight, taus, T=T)
        assert counts == per_lag
        assert len(fm_runs) == 2
        assert stacked[0].shape == (sys.n, sys.n)
        assert P.shape == (5, sys.n, sys.n)
        assert P.tobytes() == np.stack(stacked).tobytes()

    def test_validate_runs_the_fundamental_matrix_once_per_horizon(
            self, tmp_path, fm_runs):
        # the five lags of validate share the runs at T = 20 and T = 40
        from delaylyap.cli import main

        config = Path(__file__).resolve().parents[1] / "demos/configs/example1.json"
        rc = main(["validate", "--config", str(config), "--out", str(tmp_path),
                   "--quiet"])
        assert rc == 0
        assert len(fm_runs) == 2

    @pytest.mark.parametrize("oracle", ["oracle_P", "cost_to_go"])
    def test_doubled_horizon_continues_the_record(self, oracle, fm_runs,
                                                  rk4_steps):
        # the run to T = 40 steps on from the end of the run to T = 20, so
        # every step is taken once
        sys, weight = benchmark_system()
        dt = sys.h / 64
        if oracle == "oracle_P":
            oracle_P(sys, weight, [0.0, 0.5, 1.0])
            horizons = list(fm_runs)
        else:
            _, traj = cost_to_go(sys, weight, HistorySpec.point_mass([1.0, 0.0]))
            horizons = [traj.ts[-1]]
        assert len(rk4_steps) == 2
        assert sum(rk4_steps) == int(round(max(horizons) / dt))

    def test_lag_shape_validation(self):
        sys, weight = benchmark_system()
        for tau in ([], [[0.5]]):
            with pytest.raises(ValueError, match="1-d sequence"):
                oracle_P(sys, weight, tau)

    def test_zero_weight(self):
        sys, _ = benchmark_system()
        got = oracle_P(sys, Weight(np.zeros((2, 2))), 0.25)
        assert np.max(np.abs(got)) < 1e-14

    def test_matches_boundary_solve_off_grid(self):
        # non-aligned lag exercises the interpolated shift
        sys, weight = benchmark_system()
        sol = solve(sys, weight)
        tau = 0.3
        assert np.max(np.abs(oracle_P(sys, weight, tau) - P_at(sol, tau))) < 1e-3

    def test_error_floor_is_not_growth(self):
        sys, weight = neutral_kernel_system()
        taus = [0.0, 0.5]
        got = oracle_P(sys, weight, taus)
        assert np.max(np.abs(got - P_at(solve(sys, weight), taus))) < 1e-3

    def test_nondecaying_raises(self):
        Ad, Bd, Cd = zero_kernel(1)
        sys = TimeDelaySystem([[0.1]], [[0.0]], Ad, Bd, Cd, 1.0)
        with pytest.raises((RuntimeError, OverflowError)):
            with np.errstate(over="ignore", invalid="ignore"):
                oracle_P(sys, Weight([[1.0]]), 0.0)

    def test_horizon_doublings_are_capped(self, monkeypatch):
        # x' = -0.05 x decays, but too slowly for the tail bound by T = 40
        monkeypatch.setattr(sim, "MAX_DOUBLINGS", 1)
        sys, weight = scalar_decay(a0=-0.05, h=1.0, q=1.0)
        with pytest.raises(RuntimeError, match=r"does not decay fast enough \(tail "
                           r"above 1e-05 after 1 horizon doublings\)"):
            oracle_P(sys, weight, 0.0)

    def test_growth_stops_after_two_horizons(self, monkeypatch):
        # x' = x: both the oracle and the cost see growth at T = 20 and
        # T = 40 and stop there, long before the run overflows
        Ad, Bd, Cd = zero_kernel(1)
        sys = TimeDelaySystem([[1.0]], [[0.0]], Ad, Bd, Cd, 1.0)
        weight = Weight([[1.0]])
        runs = []
        original = sim._Run.to

        def counting(self, T):
            runs.append("block" if np.ndim(self.history.x0) == 2 else "vector")
            return original(self, T)

        monkeypatch.setattr(sim._Run, "to", counting)
        for tau in (0.0, [0.0, 0.5, 1.0]):
            runs.clear()
            with pytest.raises(RuntimeError, match="grows.*T=20.*T=40"):
                oracle_P(sys, weight, tau)
            assert runs == ["block"] * 2

        runs.clear()
        est, traj = cost_to_go(sys, weight, HistorySpec.point_mass([1.0]))
        assert runs == ["vector"] * 2
        assert not est.decaying
        assert traj.ts[-1] == pytest.approx(40.0)


class TestFundamentalMatrix:
    def test_identity_at_zero(self):
        sys, _ = benchmark_system()
        traj = fundamental_matrix(sys, 1.0)
        assert np.array_equal(traj.xs[0], np.eye(2))

    def test_delay_free_is_matrix_exponential(self):
        A0 = np.array([[-1.0, 0.5], [0.0, -2.0]])
        Ad, Bd, Cd = zero_kernel(2)
        sys = TimeDelaySystem(A0, np.zeros((2, 2)), Ad, Bd, Cd, 1.0)
        traj = fundamental_matrix(sys, 5.0, dt=1.0 / 50)
        worst = max(
            np.max(np.abs(traj.xs[k] - scipy.linalg.expm(A0 * t)))
            for k, t in enumerate(traj.ts)
        )
        assert worst <= 1e-8

    def test_benchmark_decays(self):
        sys, _ = benchmark_system()
        traj = fundamental_matrix(sys, 20.0)
        assert np.max(np.abs(traj.xs[-1])) < 1e-2


def _imported_modules(module):
    """Every name in the import statements of a package module's source,
    the module given as an object or as the path of its file."""
    tree = ast.parse(Path(getattr(module, "__file__", module)).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return names


def test_oracles_share_no_code_with_the_boundary_route():
    # the simulation oracles check the boundary-value route, so neither
    # side may import the other
    from delaylyap import solver, spectrum

    assert not {"solver", "spectrum"} & _imported_modules(sim)
    for module in (solver, spectrum):
        assert "sim" not in _imported_modules(module)


def test_spectrum_imports_linalg_alone():
    # the characteristic matrix is a closed form, with no quadrature and
    # no kernel evaluator of its own
    import pkgutil

    import delaylyap
    from delaylyap import spectrum

    package = {m.name for m in pkgutil.iter_modules(delaylyap.__path__)}
    assert package & _imported_modules(spectrum) == {"linalg"}


def test_package_imports_no_scipy():
    # numpy alone carries the package; scipy serves the tests and bench/
    import delaylyap

    modules = sorted(Path(delaylyap.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        assert "scipy" not in _imported_modules(path), path.name


@pytest.mark.parametrize("call, name", [
    (lambda sys, w: HistorySpec.point_mass([np.nan, 0.0]), "x0"),
    (lambda sys, w: HistorySpec.from_function(
        lambda th: np.full(np.shape(th) + (2,), np.inf)), r"phi\(0\) contains non-finite"),
    # finite at the seam, so refused by the run before its convolution
    # quadrature reads the history
    (lambda sys, w: simulate(sys, HistorySpec.from_function(
        lambda th: np.where(np.asarray(th)[..., None] < -0.5, np.nan, [1.0, 0.0])), 2.0),
     "phi is not finite at theta = -1"),
    (lambda sys, w: simulate(sys, HistorySpec.point_mass([1.0, 0.0]), 2.0,
                             dt=np.nan), "dt"),
    (lambda sys, w: simulate(scalar_decay(h=0.0)[0], HistorySpec.point_mass([1.0]),
                             2.0, dt=np.nan), "dt"),
    (lambda sys, w: oracle_P(sys, w, [np.nan]), "tau"),
], ids=["history-x0", "history-phi", "history-phi-before-seam", "simulate-dt",
        "simulate-dt-no-delay", "oracle-tau"])
def test_non_finite_inputs_are_refused(call, name):
    sys, weight = benchmark_system()
    with pytest.raises(ValueError, match=name):
        call(sys, weight)
