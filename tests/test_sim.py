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
    equation_residual,
    fundamental_matrix,
    oracle_P,
    simulate,
    solve,
    zero_kernel,
)
from delaylyap import sim
from delaylyap.model import TimeDelaySystem
from delaylyap.quadrature import integrate

from systems import benchmark_system, scalar_decay


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
                return history.seam_value()[:, 0]
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


class TestHistorySpec:
    def test_point_mass(self):
        hist = HistorySpec.point_mass([1.0, 2.0])
        assert hist.dim == 2 and hist.columns == 1
        assert np.array_equal(hist.initial_state(), [[1.0], [2.0]])
        assert np.all(hist.value(-0.5) == 0)
        assert np.all(hist.seam_value() == 0)

    def test_fundamental(self):
        hist = HistorySpec.fundamental(3)
        assert hist.columns == 3
        assert np.array_equal(hist.initial_state(), np.eye(3))
        assert np.all(hist.value(-0.2) == 0)

    def test_samples_interpolation(self):
        thetas = np.linspace(-1.0, 0.0, 201)
        values = np.cos(2.0 * thetas)[:, None]
        hist = HistorySpec.from_samples(thetas, values)
        assert hist.columns == 1
        assert_allclose(hist.initial_state(), [[1.0]], atol=1e-12)
        assert_allclose(hist.value(-0.37), [[np.cos(-0.74)]], atol=1e-8)
        assert_allclose(hist.seam_value(), [[1.0]], atol=1e-12)

    def test_samples_validation(self):
        with pytest.raises(ValueError):
            HistorySpec.from_samples([-1.0], [[1.0]])
        with pytest.raises(ValueError):
            HistorySpec.from_samples([0.0, -1.0], [[1.0], [2.0]])
        with pytest.raises(ValueError):
            HistorySpec.from_samples([-1.0, -0.5], [[1.0], [2.0]])
        # values must be (k,) or (k, n): neither a scalar nor a 3-d stack
        for values in (1.0, np.zeros((3, 2, 2))):
            with pytest.raises(ValueError, match=r"\(k,\) or \(k, n\)"):
                HistorySpec.from_samples([-1.0, -0.5, 0.0], values)

    def test_spline_built_once(self, monkeypatch):
        import scipy.interpolate

        built = []
        spline = scipy.interpolate.CubicSpline

        def counting(*args, **kwargs):
            built.append(args)
            return spline(*args, **kwargs)

        monkeypatch.setattr(scipy.interpolate, "CubicSpline", counting)
        sys, _ = benchmark_system()
        thetas = np.linspace(-1.0, 0.0, 201)
        hist = HistorySpec.from_samples(thetas, np.cos(2 * thetas)[:, None] * [1.0, 0.5])
        simulate(sys, hist, 2.0)
        assert len(built) == 1

    def test_convolution_state_closed_form(self):
        # scalar kernel: y(0) = c (1 - e^-(a+b) h) / (a + b) for phi = e^(a th)
        a, b, c = 0.5, 0.3, 2.0
        sys = TimeDelaySystem([[-1.0]], [[0.0]], [[b]], [[c]], [[1.0]], 1.0)
        thetas = np.linspace(-1.0, 0.0, 401)
        hist = HistorySpec.from_samples(thetas, np.exp(a * thetas)[:, None])
        expected = c * (1.0 - np.exp(-(a + b))) / (a + b)
        assert_allclose(hist.convolution_state(sys), [[expected]], atol=1e-8)

    def test_convolution_state_zero_for_jump_histories(self):
        sys, _ = benchmark_system()
        assert np.all(HistorySpec.point_mass([1.0, 0.0]).convolution_state(sys) == 0)
        assert np.all(HistorySpec.fundamental(2).convolution_state(sys) == 0)


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
        # y(t) must equal the kernel-weighted moving average of x
        sys, _ = benchmark_system()
        traj = simulate(sys, HistorySpec.point_mass([1.0, -0.5]), 4.0)
        for t in (1.5, 2.5, 3.7):
            def f(thetas):
                return np.array([scipy.linalg.expm(sys.Ad * theta) @ sys.Bd
                                 @ traj.x_at(t + theta) for theta in thetas])

            expected = integrate(f, -1.0, 0.0, tol=1e-7)
            assert_allclose(traj.y_at(t), expected, atol=1e-6)

    def test_sampled_history_run(self):
        sys, _ = benchmark_system()
        thetas = np.linspace(-1.0, 0.0, 201)
        values = np.column_stack([np.cos(2 * thetas), np.sin(2 * thetas)])
        hist = HistorySpec.from_samples(thetas, values)
        ref = solve_ivp_reference(sys, hist, 2.0)
        traj = simulate(sys, hist, 2.0)
        assert np.array_equal(traj.xs[0], hist.initial_state()[:, 0])
        k = int(round(2.0 / traj.dt))
        assert np.max(np.abs(traj.xs[k] - ref[2][:2])) < 1e-7

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

    def test_history_must_cover_delay(self):
        sys, _ = benchmark_system()
        hist = HistorySpec.from_samples(
            np.linspace(-0.5, 0.0, 11), np.zeros((11, 2)))
        with pytest.raises(ValueError):
            simulate(sys, hist, 2.0)

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

    def test_csv_rejects_matrix_runs(self, tmp_path):
        sys, _ = benchmark_system()
        traj = fundamental_matrix(sys, 1.0)
        with pytest.raises(ValueError):
            traj.to_csv(tmp_path / "x.csv")


class TestEquationResidual:
    def test_point_mass_run(self):
        sys, _ = benchmark_system()
        traj = simulate(sys, HistorySpec.point_mass([1.0, 0.0]), 8.0)
        assert equation_residual(sys, traj) <= 1e-5

    def test_fundamental_run(self):
        sys, _ = benchmark_system()
        traj = fundamental_matrix(sys, 6.0)
        assert equation_residual(sys, traj) <= 1e-5

    def test_sampled_history_run(self):
        sys, _ = benchmark_system()
        thetas = np.linspace(-1.0, 0.0, 201)
        values = np.column_stack([np.cos(2 * thetas), np.sin(2 * thetas)])
        traj = simulate(sys, HistorySpec.from_samples(thetas, values), 6.0)
        assert equation_residual(sys, traj) <= 1e-5

    def test_rejects_kink_times(self):
        sys, _ = benchmark_system()
        traj = simulate(sys, HistorySpec.point_mass([1.0, 0.0]), 6.0)
        with pytest.raises(ValueError):
            equation_residual(sys, traj, times=[2.0])

    def test_short_trajectory_rejected(self):
        sys, _ = benchmark_system()
        traj = simulate(sys, HistorySpec.point_mass([1.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            equation_residual(sys, traj)


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


@pytest.fixture
def fm_runs(monkeypatch):
    """Horizons of the ``sim.fundamental_matrix`` runs made during a test."""
    runs = []
    original = sim.fundamental_matrix

    def counting(sys, T, dt=None):
        runs.append(T)
        return original(sys, T, dt=dt)

    monkeypatch.setattr(sim, "fundamental_matrix", counting)
    return runs


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

    def test_nondecaying_raises(self):
        Ad, Bd, Cd = zero_kernel(1)
        sys = TimeDelaySystem([[0.1]], [[0.0]], Ad, Bd, Cd, 1.0)
        with pytest.raises((RuntimeError, OverflowError)):
            with np.errstate(over="ignore", invalid="ignore"):
                oracle_P(sys, Weight([[1.0]]), 0.0)

    def test_growth_stops_after_two_horizons(self, monkeypatch):
        # x' = x: both the oracle and the cost see growth at T = 20 and
        # T = 40 and stop there, long before the run overflows
        Ad, Bd, Cd = zero_kernel(1)
        sys = TimeDelaySystem([[1.0]], [[0.0]], Ad, Bd, Cd, 1.0)
        weight = Weight([[1.0]])
        runs = []

        def counting(original):
            def run(*args, **kwargs):
                runs.append(original.__name__)
                return original(*args, **kwargs)
            return run

        monkeypatch.setattr(sim, "fundamental_matrix",
                            counting(sim.fundamental_matrix))
        for tau in (0.0, [0.0, 0.5, 1.0]):
            runs.clear()
            with pytest.raises(RuntimeError, match="grows.*T=20.*T=40"):
                oracle_P(sys, weight, tau)
            assert runs == ["fundamental_matrix"] * 2

        runs.clear()
        monkeypatch.setattr(sim, "simulate", counting(sim.simulate))
        est, traj = cost_to_go(sys, weight, HistorySpec.point_mass([1.0]))
        assert runs == ["simulate"] * 2
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
    """Every name in the import statements of a package module's source."""
    tree = ast.parse(Path(module.__file__).read_text())
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
