"""Time-domain simulation and quadrature oracles.

The delay system is integrated in its augmented form: an internal
variable ``y(t)`` carries the distributed-delay convolution, so the pair
``(x, y)`` obeys

    x'(t) = A0 x(t) + Cd y(t) + A1 x(t - h)
    y'(t) = Bd x(t) - Ad y(t) - expm(-Ad h) Bd x(t - h)

with ``y(0)`` seeded from the history. Differentiating the convolution
shows the two forms agree; :func:`equation_residual` checks that on any
produced trajectory.

Integration is a fixed-step RK4 method of steps with the step an integer
fraction of the delay, so every propagated discontinuity sits on a grid
node and the scheme keeps fourth order on each smooth piece. Delayed
reads during the first delay interval take the history's value, with the
left limit used at the seam; later reads come from the computed record,
interpolated with cubic Hermite segments built from the stored stage
derivatives.

The oracles :func:`cost_to_go` and :func:`oracle_P` share one horizon
loop (Simpson's rule plus an exponential tail, the horizon doubled up to
``MAX_DOUBLINGS`` times); :func:`oracle_P` serves a sequence of lags from
one fundamental-matrix run per horizon.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.integrate

from . import linalg
from .model import kernel_at
from .quadrature import integrate

POINT_MASS = "point_mass"
SAMPLES = "samples"
FUNDAMENTAL = "fundamental"

MAX_DOUBLINGS = 8


@dataclass(frozen=True, eq=False)
class HistorySpec:
    """Initial history segment on ``[-h, 0]``.

    Three kinds are supported: a point mass (zero history, state jumps to
    ``x0`` at time zero), a sampled segment interpolated with a cubic
    spline, and the fundamental start (zero history, identity state) used
    to build the fundamental matrix column by column in one run.
    """

    kind: str
    dim: int
    x0: np.ndarray = None
    thetas: np.ndarray = None
    values: np.ndarray = None

    @classmethod
    def point_mass(cls, x0):
        x0 = np.asarray(x0, dtype=float)
        if x0.ndim != 1 or x0.size == 0:
            raise ValueError("x0 must be a nonempty vector")
        return cls(POINT_MASS, x0.size, x0=x0)

    @classmethod
    def from_samples(cls, thetas, values):
        thetas = np.asarray(thetas, dtype=float)
        values = np.asarray(values, dtype=float)
        if thetas.ndim != 1 or thetas.size < 2:
            raise ValueError("need at least two history samples")
        if np.any(np.diff(thetas) <= 0):
            raise ValueError("history sample times must be strictly increasing")
        if thetas[-1] != 0.0:
            raise ValueError("history samples must end at theta = 0")
        if values.ndim not in (1, 2) or values.shape[0] != thetas.size:
            raise ValueError("values must have shape (k,) or (k, n), k = %d" % thetas.size)
        values = values.reshape(thetas.size, -1)
        return cls(SAMPLES, values.shape[1], thetas=thetas, values=values)

    @classmethod
    def fundamental(cls, n):
        if n < 1:
            raise ValueError("dimension must be positive")
        return cls(FUNDAMENTAL, n)

    @property
    def columns(self):
        return self.dim if self.kind == FUNDAMENTAL else 1

    @cached_property
    def _spline(self):
        import scipy.interpolate  # only sampled histories need it

        return scipy.interpolate.CubicSpline(
            self.thetas, self.values, axis=0, bc_type="natural"
        )

    def initial_state(self):
        """State at time zero, shape ``(n, columns)``."""
        if self.kind == POINT_MASS:
            return self.x0[:, None].copy()
        if self.kind == FUNDAMENTAL:
            return np.eye(self.dim)
        return self._spline(0.0)[:, None]

    def value(self, theta):
        """History value for ``theta < 0``, shape ``(n, columns)``."""
        if self.kind in (POINT_MASS, FUNDAMENTAL):
            return np.zeros((self.dim, self.columns))
        theta = max(theta, float(self.thetas[0]))
        return self._spline(theta)[:, None]

    def seam_value(self):
        """Value used when a delayed read lands exactly at time zero.

        The point-mass and fundamental histories jump at zero, so reads
        from the left take the history limit, not the post-jump state.
        """
        if self.kind == SAMPLES:
            return self._spline(0.0)[:, None]
        return np.zeros((self.dim, self.columns))

    def convolution_state(self, sys):
        """Initial internal variable ``int_{-h}^0 expm(Ad th) Bd phi(th) dth``."""
        nd = sys.internal_dim
        if self.kind in (POINT_MASS, FUNDAMENTAL) or sys.h == 0:
            return np.zeros((nd, self.columns))

        def f(theta):
            E = np.array([linalg.expm(sys.Ad, th) for th in theta])
            return E @ sys.Bd @ self._spline(theta)[..., None]

        return integrate(f, -sys.h, 0.0, tol=1e-12)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Dense fixed-step record of one simulation.

    ``xs``/``ys`` have shape ``(K+1, n)`` and ``(K+1, nd)`` for vector
    runs, or ``(K+1, n, n)`` and ``(K+1, nd, n)`` for fundamental runs.
    The four stage-derivative arrays hold the first and last RK4 stage of
    each step and drive the cubic Hermite interpolation.
    """

    ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    xd_start: np.ndarray
    xd_end: np.ndarray
    yd_start: np.ndarray
    yd_end: np.ndarray
    dt: float
    h: float

    @property
    def steps(self):
        return self.ts.size - 1

    @staticmethod
    def _hermite(p0, p1, d0, d1, dt, s):
        s2 = s * s
        s3 = s2 * s
        return ((2 * s3 - 3 * s2 + 1) * p0 + (-2 * s3 + 3 * s2) * p1
                + dt * ((s3 - 2 * s2 + s) * d0 + (s3 - s2) * d1))

    def _read(self, values, d_start, d_end, t):
        """Record ``values`` at the times ``t``, stacked on the axes of
        ``t``: the recorded value on a node, the cubic Hermite segment of
        the step between nodes."""
        t = np.asarray(t, dtype=float)
        T = self.ts[-1]
        bad = ~((t >= -1e-12 * max(1.0, T)) & (t <= T * (1 + 1e-12) + 1e-12))
        if np.any(bad):
            raise ValueError("time %g outside the recorded range [0, %g]"
                             % (t[bad].flat[0], T))
        j = np.clip(np.floor(t / self.dt), 0, self.steps - 1).astype(int)
        s = np.clip((t - self.ts[j]) / self.dt, 0.0, 1.0)
        s = s.reshape(s.shape + (1,) * (values.ndim - 1))
        return np.where(s == 0.0, values[j], self._hermite(
            values[j], values[j + 1], d_start[j], d_end[j], self.dt, s))

    def x_at(self, t):
        """State at the time or times ``t``."""
        return self._read(self.xs, self.xd_start, self.xd_end, t)

    def y_at(self, t):
        """Internal variable at the time or times ``t``."""
        return self._read(self.ys, self.yd_start, self.yd_end, t)

    def to_csv(self, path):
        """Write ``t, x_1..x_n, y_1..y_nd`` rows with 17 significant digits.

        Only defined for vector trajectories.
        """
        if self.xs.ndim != 2:
            raise ValueError("CSV export is defined for vector trajectories only")
        n = self.xs.shape[1]
        nd = self.ys.shape[1]
        header = ["t"] + ["x_%d" % (i + 1) for i in range(n)] \
            + ["y_%d" % (i + 1) for i in range(nd)]
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for k in range(self.ts.size):
                row = [self.ts[k], *self.xs[k], *self.ys[k]]
                fh.write(",".join("%.17g" % v for v in row) + "\n")


def _resolve_step(h, T, dt):
    if not np.isfinite(T) or T <= 0:
        raise ValueError("horizon T must be positive, got %r" % T)
    if h > 0:
        if dt is None:
            m = 64
        else:
            if dt <= 0:
                raise ValueError("dt must be positive")
            m = int(round(h / dt))
            if m < 20 or abs(m * dt - h) > 1e-9 * h:
                raise ValueError(
                    "dt must be h/m for an integer m >= 20; got dt=%g, h=%g" % (dt, h)
                )
        dt = h / m
    else:
        m = 0
        if dt is None:
            dt = T / 2048
        if dt <= 0:
            raise ValueError("dt must be positive")
    steps = int(math.ceil(T / dt - 1e-9))
    return dt, m, max(steps, 1)


def simulate(sys, history, T, dt=None):
    """Integrate the augmented system from a history segment.

    Parameters
    ----------
    sys : TimeDelaySystem
    history : HistorySpec
    T : float
        Horizon; the run covers ``[0, ceil(T/dt) dt]``.
    dt : float, optional
        Step, an integer fraction ``h/m`` with ``m >= 20``. Defaults to
        ``h/64`` (or ``T/2048`` when ``h = 0``).

    Returns
    -------
    Trajectory
    """
    if history.dim != sys.n:
        raise ValueError(
            "history dimension %d does not match state dimension %d"
            % (history.dim, sys.n)
        )
    h = sys.h
    if history.kind == SAMPLES and history.thetas[0] > -h + 1e-12 * max(1.0, h):
        raise ValueError("history samples must cover [-h, 0] with h=%g" % h)
    dt, m, steps = _resolve_step(h, T, dt)
    n = sys.n
    nd = sys.internal_dim
    c = history.columns
    A0, A1, Ad, Bd, Cd = sys.A0, sys.A1, sys.Ad, sys.Bd, sys.Cd
    EBd = linalg.expm(Ad, -h) @ Bd

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
            return history.seam_value()
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
            xd_m = Trajectory._hermite(
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

    ts = dt * np.arange(steps + 1)
    if c == 1 and history.kind != FUNDAMENTAL:
        X, Y = X[:, :, 0], Y[:, :, 0]
        Xd0, Xd1, Yd0, Yd1 = Xd0[:, :, 0], Xd1[:, :, 0], Yd0[:, :, 0], Yd1[:, :, 0]
    return Trajectory(ts, X, Y, Xd0, Xd1, Yd0, Yd1, dt, h)


def fundamental_matrix(sys, T, dt=None):
    """Matrix trajectory whose columns solve the system from a unit jump."""
    return simulate(sys, HistorySpec.fundamental(sys.n), T, dt=dt)


@dataclass(frozen=True)
class CostEstimate:
    """Quadratic-cost integral with its extrapolated tail.

    ``decaying`` is cleared when the tail estimate is more than a tenth of
    the integrated part, which signals an unreliable (possibly divergent)
    value.
    """

    value: float
    integral: float
    tail: float
    rate: float
    decaying: bool


def _simpson_tail(ts, g):
    """Simpson integral of the samples ``g`` along ``ts`` and the tail
    ``g[-1] / rate``, the decay rate fitted to the max-abs magnitudes of
    the last tenth; zero for a vanished integrand, infinite for one that
    does not decay."""
    size = np.abs(g).reshape(ts.size, -1).max(axis=1)
    count = min(max(10, (ts.size + 9) // 10), ts.size)
    t, s = ts[-count:], size[-count:]
    mask = s > s.max() * 1e-12
    rate = tail = math.inf
    if s.max() > 1e-280 and np.count_nonzero(mask) > 1:
        rate = -float(np.polyfit(t[mask], np.log(s[mask]), 1)[0])
        if rate > 0:
            tail = g[-1] / rate
    elif s[-1] <= 1e-280:
        tail = 0.0
    return scipy.integrate.simpson(g, x=ts, axis=0), tail, rate


def _horizons(sys, T, run, tail_tol, count=1):
    """``_simpson_tail`` of ``count`` integrands on horizons doubling from
    ``T`` (default ``max(20, 20 h)``). ``run(T, pending)`` simulates once
    to ``T`` and returns the sample times and the samples of each pending
    integrand; each keeps its first result with a tail within ``tail_tol``.
    Returns the values ``integral + tail`` and ``None``, or why one failed.
    """
    T = max(20.0, 20.0 * sys.h) if T is None else T
    values = [None] * count
    last = dict.fromkeys(range(count))  # pending index -> its previous fit
    for _ in range(MAX_DOUBLINGS + 1):
        ts, samples = run(T, list(last))
        for i, g in zip(list(last), samples):
            integral, tail, rate = _simpson_tail(ts, g)
            if np.all(np.isfinite(tail)) and linalg.maxabs(tail) <= tail_tol:
                values[i] = integral + tail
                del last[i]
                continue
            prev, last[i] = last[i], (T, rate, linalg.maxabs(g[-1]))
            # a fitted growth on two horizons, with the final magnitude
            # rising, only grows further on a doubled one
            if prev and prev[1] < 0 and rate < 0 and last[i][2] > prev[2]:
                return values, ("grows: fitted rate %.3g at T=%g and %.3g at "
                                "T=%g" % (-prev[1], prev[0], -rate, T))
        if not last:
            return values, None
        T *= 2
    return values, ("does not decay fast enough (tail above %g after %d "
                    "horizon doublings)" % (tail_tol, MAX_DOUBLINGS))


def _running_cost(traj, weight):
    """Samples of the integrand ``x(t).T Q x(t)`` of a vector trajectory."""
    if traj.xs.ndim != 2:
        raise ValueError("cost is defined for vector trajectories only")
    Q = weight.matrix
    if Q.shape[0] != traj.xs.shape[1]:
        raise ValueError("weight dimension does not match the trajectory")
    return np.einsum("ki,ij,kj->k", traj.xs, Q, traj.xs)


def cost_quadrature(traj, weight):
    """Quadratic running cost of a vector trajectory.

    Simpson's rule over the recorded grid plus an exponential-tail
    correction fitted to the final tenth of the samples.
    """
    integral, tail, rate = _simpson_tail(traj.ts, _running_cost(traj, weight))
    integral, tail = float(integral), float(tail)
    decaying = math.isfinite(tail) and abs(tail) <= 0.1 * max(abs(integral), 1e-300)
    return CostEstimate(integral + tail, integral, tail, rate, decaying)


def cost_to_go(sys, weight, history, T=None, dt=None, tail_tol=1e-5):
    """Simulate and integrate the cost, doubling the horizon until the
    tail correction drops below ``tail_tol``.

    Returns the final estimate together with the trajectory it came from.
    The doubling also stops once two consecutive horizons show a growing
    integrand; the estimate returned then is not ``decaying``.
    """
    runs = []

    def run(T, pending):
        runs.append(simulate(sys, history, T, dt=dt))
        return runs[-1].ts, [_running_cost(runs[-1], weight)]

    _horizons(sys, T, run, tail_tol)
    return cost_quadrature(runs[-1], weight), runs[-1]


def oracle_P(sys, weight, tau, T=None, dt=None, tail_tol=1e-5):
    """Delay Lyapunov matrix by direct quadrature of the defining integral.

    Integrates ``Phi(t).T Q Phi(t + tau)`` over ``[0, T]`` with Simpson's
    rule on the simulation grid, ``Phi`` being the fundamental matrix,
    then adds an exponential-tail correction. ``tau`` is one lag, giving
    ``(n, n)``, or a 1-d sequence, giving ``(k, n, n)``; a negative lag
    gives the transpose of its mirror. The lags share one fundamental-
    matrix run per horizon, which doubles until each lag's tail is below
    ``tail_tol``; a system whose fundamental matrix does not decay makes
    this fail with ``RuntimeError``, raised as soon as two consecutive
    horizons fit a growing integrand.

    This is deliberately independent of the boundary-value construction
    and serves as its cross-check.
    """
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError("tau must be a lag or a nonempty 1-d sequence of lags")
    lags = np.abs(taus)
    Q = weight.matrix
    if Q.shape[0] != sys.n:
        raise ValueError("weight dimension does not match the system")
    if dt is None:
        dt = sys.h / 64 if sys.h > 0 else 1.0 / 64

    def run(T, pending):
        # margin keeps the shifted reads t + tau inside the record
        traj = fundamental_matrix(sys, T + lags[pending].max() + 2 * dt, dt=dt)
        kT = int(round(T / traj.dt))
        ts = traj.ts[: kT + 1]
        samples = []
        for lag in lags[pending]:
            j = int(round(lag / traj.dt))
            if abs(lag / traj.dt - j) < 1e-9:
                Phis = traj.xs[j: j + kT + 1]
            else:
                Phis = traj.x_at(ts + lag)
            samples.append(np.einsum("kji,jl,klm->kim", traj.xs[: kT + 1], Q, Phis))
        return ts, samples

    values, failure = _horizons(sys, T, run, tail_tol, taus.size)
    if failure is not None:
        raise RuntimeError("fundamental matrix " + failure)
    P = np.array(values)
    P[taus < 0] = P[taus < 0].transpose(0, 2, 1)
    return P if np.ndim(tau) else P[0]


def equation_residual(sys, traj, times=None, quad_tol=1e-8):
    """Defect of the original delay equation along a simulated trajectory.

    Differentiates the record with a fourth-order stencil and evaluates
    the distributed term by quadrature against the interpolated record, so
    it checks the augmented form against the original one. Check times
    must sit at least one delay past the start and clear of the
    discontinuity points by a few steps; the default picks such times
    automatically.
    """
    dt = traj.dt
    T = float(traj.ts[-1])
    h = sys.h
    K = traj.steps

    def clear_of_kinks(i):
        if i < 2 or i > K - 2 or i * dt < h:
            return False
        if h == 0:
            return True
        j = 0
        while j * h <= T + dt:
            if abs(i * dt - j * h) < 2.5 * dt:
                return False
            j += 1
        return True

    if times is None:
        lo = max(h, 0.0) + 3 * dt
        hi = T - 3 * dt
        if hi <= lo:
            raise ValueError("trajectory too short for a residual check")
        idx = []
        for t in np.linspace(lo, hi, 12):
            i = int(round(t / dt))
            while i <= K - 2 and not clear_of_kinks(i):
                i += 1
            if clear_of_kinks(i) and i not in idx:
                idx.append(i)
        if len(idx) < 3:
            raise ValueError("could not place residual check times")
    else:
        idx = [int(round(t / dt)) for t in times]
        for i in idx:
            if not clear_of_kinks(i):
                raise ValueError(
                    "check time %g is too close to a discontinuity or an end"
                    % (i * dt)
                )

    worst = 0.0
    for i in idx:
        t = i * dt
        dx = (traj.xs[i - 2] - 8 * traj.xs[i - 1]
              + 8 * traj.xs[i + 1] - traj.xs[i + 2]) / (12 * dt)
        delayed = traj.xs[i - int(round(h / dt))] if h > 0 else traj.xs[i]

        def f(theta):
            return np.einsum("kij,kj...->ki...", kernel_at(sys, theta),
                             traj.x_at(t + theta))

        conv = np.zeros_like(traj.xs[i])
        if h > 0:
            cuts = [-h]
            j = int(math.ceil((t - h) / h))
            while j * h < t:
                if t - h < j * h:
                    cuts.append(j * h - t)
                j += 1
            cuts.append(0.0)
            for lo_c, hi_c in zip(cuts[:-1], cuts[1:]):
                if hi_c > lo_c + 1e-14:
                    conv = conv + integrate(f, lo_c, hi_c, tol=quad_tol)
        rhs = sys.A0 @ traj.xs[i] + sys.A1 @ delayed + conv
        worst = max(worst, linalg.maxabs(dx - rhs))
    return worst
