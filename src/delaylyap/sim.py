"""Time-domain simulation and quadrature oracles.

The delay system is integrated in its augmented form: an internal
variable ``y(t)`` carries the distributed-delay convolution, so the pair
``(x, y)`` obeys

    x'(t) = A0 x(t) + Cd y(t) + A1 x(t - h)
    y'(t) = Bd x(t) - Ad y(t) - expm(-Ad h) Bd x(t - h)

with ``y(0)`` seeded from the history. Differentiating the convolution
shows the two forms agree.

Integration is a fixed-step RK4 method of steps with the step an integer
fraction of the delay, so every propagated discontinuity sits on a grid
node and the scheme keeps fourth order on each smooth piece. Delayed
reads during the first delay interval take the history's value, which at
the seam is its left limit (zero for a point mass, ``phi(0)`` for a
function history); later reads come from the computed record,
interpolated with cubic Hermite segments built from the stored stage
derivatives. The system is linear with constant coefficients, so one
step, Hermite midpoint included, is one fixed matrix: :func:`simulate`
builds it once per run by applying the four stages to unit vectors, and
each step is then two small matrix products, one on the state and one on
the delayed reads.

The oracles :func:`cost_to_go` and :func:`oracle_P` share one horizon
loop (composite Simpson's rule plus an exponential tail, the horizon
doubled up to ``MAX_DOUBLINGS`` times); :func:`oracle_P` serves a
sequence of lags from one fundamental-matrix run. Each oracle continues
one run across its horizons: a doubled horizon steps on from the end of
the last record, which a fresh run would repeat bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .model import kernel_exp
from .quadrature import integrate

MAX_DOUBLINGS = 8
# default bound on the oracles' extrapolated tail
TAIL_TOL = 1e-5


@dataclass(frozen=True, eq=False)
class HistorySpec:
    """Initial data of a run: the state ``x0`` at time zero and the
    history ``phi`` on ``[-h, 0]``.

    A point mass has a zero history, the state jumping to ``x0`` at time
    zero; it may be an ``(n, c)`` block, run as ``c`` columns at once, and
    the identity block gives the fundamental matrix. A function history
    is continuous at the seam: ``phi`` maps an array of ``theta`` to
    values of shape ``theta.shape + (n,)``, and ``x0 = phi(0)``.
    """

    dim: int
    x0: np.ndarray
    phi: object = None

    @classmethod
    def point_mass(cls, x0):
        x0 = np.asarray(x0, dtype=float)
        if x0.ndim not in (1, 2) or x0.size == 0:
            raise ValueError("x0 must be a nonempty vector or matrix")
        if not np.isfinite(x0).all():
            raise ValueError("x0 contains non-finite entries")
        return cls(x0.shape[0], x0)

    @classmethod
    def from_function(cls, phi):
        x0 = np.asarray(phi(0.0), dtype=float)
        if x0.ndim != 1 or x0.size == 0:
            raise ValueError("phi(0) must be a nonempty vector, got shape %s"
                             % (x0.shape,))
        if not np.isfinite(x0).all():
            raise ValueError("phi(0) contains non-finite entries")
        return cls(x0.size, x0, phi)

    @property
    def columns(self):
        return self.x0.shape[1] if np.ndim(self.x0) == 2 else 1

    def initial_state(self):
        """State at time zero, shape ``(n, columns)``."""
        return self.x0.reshape(self.dim, -1).copy()

    def value(self, theta):
        """History value for ``theta`` in ``[-h, 0]``, shape ``(n,
        columns)``, stacked on the axes of an array of ``theta``. At
        ``theta = 0`` it is the left limit: zero for a point mass, ``phi(0)``
        for a function."""
        theta = np.asarray(theta, dtype=float)
        if self.phi is None:
            return np.zeros(theta.shape + (self.dim, self.columns))
        return np.asarray(self.phi(theta), dtype=float)[..., None]

    def convolution_state(self, sys):
        """Initial internal variable ``int_{-h}^0 expm(Ad th) Bd phi(th) dth``,
        zero for a point mass."""
        if self.phi is None or sys.h == 0:
            return np.zeros((sys.internal_dim, self.columns))

        def f(theta):
            return kernel_exp(sys, theta) @ sys.Bd @ self.value(theta)

        return integrate(f, -sys.h, 0.0, tol=1e-12)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Dense fixed-step record of one simulation.

    ``xs``/``ys`` have shape ``(K+1, n)`` and ``(K+1, nd)`` for vector
    runs, or ``(K+1, n, c)`` and ``(K+1, nd, c)`` for runs from an
    ``(n, c)`` block. The four stage-derivative arrays hold the first and
    last RK4 stage of each step and drive the cubic Hermite interpolation.
    """

    ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    xd_start: np.ndarray
    xd_end: np.ndarray
    yd_start: np.ndarray
    yd_end: np.ndarray
    dt: float

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
        rows = np.column_stack([self.ts, self.xs, self.ys])
        row = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            fh.write(row * rows.shape[0] % tuple(rows.ravel().tolist()))


def _resolve_step(h, T, dt):
    if not np.isfinite(T) or T <= 0:
        raise ValueError("horizon T must be positive, got %r" % T)
    if dt is not None and not 0 < dt < math.inf:
        raise ValueError("dt must be positive and finite, got %r" % dt)
    m = 0
    if h > 0:
        m = 64 if dt is None else int(round(h / dt))
        if dt is not None and (m < 20 or abs(m * dt - h) > 1e-9 * h):
            raise ValueError(
                "dt must be h/m for an integer m >= 20; got dt=%g, h=%g" % (dt, h)
            )
        dt = h / m
    elif dt is None:
        dt = T / 2048
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
    return _Run(sys, history, dt).to(T)


class _Run:
    """One simulation, continued on demand: :meth:`to` returns the
    trajectory to a horizon, stepping on from the end of the longest one
    taken so far.

    A fixed-step record does not depend on its length, so each trajectory
    is bitwise that of a fresh :func:`simulate` to the same horizon. The
    oracles' doubled horizons therefore step each interval once. A horizon
    that resolves to another step, as the default step of a system with
    ``h = 0`` does, starts the record over.
    """

    def __init__(self, sys, history, dt=None):
        if history.dim != sys.n:
            raise ValueError(
                "history dimension %d does not match state dimension %d"
                % (history.dim, sys.n)
            )
        self.sys, self.history, self.requested_dt = sys, history, dt
        self.n, self.nd = sys.n, sys.internal_dim
        self.dt = None

    def _start(self, dt, m):
        """Build the step matrices for step ``dt`` and an empty record
        holding the initial state; ``m`` steps span the delay."""
        sys, history = self.sys, self.history
        h = sys.h
        n, nd = self.n, self.nd
        s = n + nd
        L = 3 * s
        c = history.columns
        A0, A1, Ad, Bd, Cd = sys.A0, sys.A1, sys.Ad, sys.Bd, sys.Cd
        EBd = linalg.expm(Ad, -h) @ Bd

        def rhs(x, y, xd):
            xd = x if xd is None else xd
            dx = A0 @ x + Cd @ y + A1 @ xd
            dy = Bd @ x - Ad @ y - EBd @ xd
            return dx, dy

        def step_matrix(width, delayed):
            """The RK4 step applied to ``width`` unit vectors, whose first
            ``s`` rows are the state ``(x, y)``; ``delayed(u)`` gives the
            delayed argument at the start, middle and end of the step, or
            ``None`` for the stage's own state. The matrix's rows are the
            first and the last stage, then the next state; it is returned
            as its columns on the state and those on the delayed reads."""
            u = np.eye(width)
            x, y = u[:n], u[n:s]
            xd_a, xd_m, xd_b = delayed(u)
            k1x, k1y = rhs(x, y, xd_a)
            k2x, k2y = rhs(x + 0.5 * dt * k1x, y + 0.5 * dt * k1y, xd_m)
            k3x, k3y = rhs(x + 0.5 * dt * k2x, y + 0.5 * dt * k2y, xd_m)
            k4x, k4y = rhs(x + dt * k3x, y + dt * k3y, xd_b)
            M = np.concatenate([
                k1x, k1y, k4x, k4y,
                x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x),
                y + dt / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y)])
            return M[:, :s].copy(), M[:, s:].copy()

        def record_reads(u):
            # rows k - m and k - m + 1 of the record, the second up to its x
            xd_a, xd_b = u[s:s + n], u[s + L:]
            xd_m = Trajectory._hermite(xd_a, xd_b, u[2 * s:2 * s + n],
                                       u[3 * s:3 * s + n], dt, 0.5)
            return xd_a, xd_m, xd_b

        # The first ``m`` steps read the delay from the history, whose value
        # at theta = 0 is its left limit; with h = 0 every step is one of
        # them and reads nothing.
        if h == 0:
            m = math.inf
            self.first, self.later = step_matrix(s, lambda u: (None, None, None)), None
            no_reads = np.zeros((0, c))
            self.history_reads = lambda k: no_reads
        else:
            self.first = step_matrix(s + 3 * n, lambda u: np.split(u[s:], 3))
            self.later = step_matrix(s + L + n, record_reads)
            theta = (np.arange(m) - m) * dt
            times = np.stack([theta, theta + 0.5 * dt, theta + dt], axis=1)
            times = np.maximum(times, -h)
            reads = history.value(times)
            if reads.shape != times.shape + (n, c):
                raise ValueError("phi returned shape %s for theta of shape %s, "
                                 "not theta.shape + (%d,)"
                                 % (reads.shape[:-1], times.shape, n))
            bad = ~np.isfinite(reads).all(axis=(-2, -1))
            if bad.any():
                raise ValueError("phi is not finite at theta = %g" % times[bad][0])
            self.history_reads = reads.reshape(m, 3 * n, c).__getitem__
        # Row k of the record holds x_k, y_k and the first and last stage
        # of step k, so each step writes its stages and the next state as
        # one slice.
        self.record = np.zeros((L, c))
        self.record[:n] = history.initial_state()
        self.record[n:s] = history.convolution_state(sys)
        self.dt, self.m, self.steps = dt, m, 0

    def _advance(self, steps):
        """Step the record on from its end to ``steps`` steps."""
        n, s, m = self.n, self.n + self.nd, self.m
        L = 3 * s
        record = np.zeros(((steps + 1) * L, self.history.columns))
        record[:self.record.shape[0]] = self.record
        for k in range(self.steps, steps):
            a = k * L
            if k < m:
                now, delayed = self.first
                reads = self.history_reads(k)
            else:
                b = a - m * L
                now, delayed = self.later
                reads = record[b:b + L + n]
            out = np.dot(now, record[a:a + s]) + np.dot(delayed, reads)
            record[a + s:a + s + L] = out
            if not np.isfinite(out[2 * s:]).all():
                raise OverflowError("simulation diverged at t=%g" % ((k + 1) * self.dt))
        self.record, self.steps = record, steps

    def to(self, T):
        """The trajectory to the horizon ``T``, as :func:`simulate` runs it."""
        dt, m, steps = _resolve_step(self.sys.h, T, self.requested_dt)
        if dt != self.dt:
            self._start(dt, m)
        if steps > self.steps:
            self._advance(steps)
        n, nd = self.n, self.nd
        rows = self.record[:(steps + 1) * 3 * (n + nd)] \
            .reshape(steps + 1, -1, self.history.columns)
        if np.ndim(self.history.x0) < 2:  # a vector start
            rows = rows[:, :, 0]
        X, Y, *stages = np.split(rows, np.cumsum([n, nd, n, nd, n]), axis=1)
        Xd0, Yd0, Xd1, Yd1 = (d[:-1] for d in stages)
        return Trajectory(dt * np.arange(steps + 1), *map(
            np.ascontiguousarray, (X, Y, Xd0, Xd1, Yd0, Yd1)), dt)


def fundamental_matrix(sys, T, dt=None):
    """Matrix trajectory whose columns solve the system from a unit jump."""
    return simulate(sys, HistorySpec.point_mass(np.eye(sys.n)), T, dt=dt)


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


def _simpson(g, dt):
    """Composite Simpson integral along axis 0 of samples spaced ``dt``
    apart. An odd interval count adds the parabolic last-interval
    correction of ``scipy.integrate.simpson`` (scipy >= 1.11), and two
    samples give the trapezoid."""
    if len(g) == 2:
        return 0.5 * dt * (g[0] + g[1])
    e = len(g) - 1 - (len(g) - 1) % 2  # the even-count part ends at sample e
    result = dt / 3.0 * np.sum(g[0:e - 1:2] + 4.0 * g[1:e:2] + g[2:e + 1:2], axis=0)
    if e < len(g) - 1:
        result = result + dt * (5 / 12 * g[-1] + 2 / 3 * g[-2] - 1 / 12 * g[-3])
    return result


def _simpson_tail(ts, g):
    """Simpson integral of the samples ``g`` along the uniform grid ``ts``
    and the tail ``g[-1] / rate``, the decay rate fitted to the max-abs
    magnitudes of the last tenth; zero for a vanished integrand, infinite
    for one that does not decay.

    A last tenth that fits no decay but stays below rounding level of the
    peak magnitude also gets a zero tail: it shows the run's error floor,
    not the solution. A kernel with ``Ad`` eigenvalues on the imaginary
    axis gives the augmented state undamped modes, which keep the
    truncation error of the early steps, about 1e-9 of ``x`` at the
    default step."""
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
    if rate <= 0 and s.max() <= np.finfo(float).eps * size.max():
        tail = 0.0
    return _simpson(g, ts[1] - ts[0]), tail, rate


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


def cost_to_go(sys, weight, history, T=None, dt=None, tail_tol=TAIL_TOL):
    """Simulate and integrate the cost, doubling the horizon until the
    tail correction drops below ``tail_tol``.

    Returns the final estimate together with the trajectory it came from.
    The doubling also stops once two consecutive horizons show a growing
    integrand; the estimate returned then is not ``decaying``.
    """
    record = _Run(sys, history, dt)
    last = None

    def run(T, pending):
        nonlocal last
        last = record.to(T)
        return last.ts, [_running_cost(last, weight)]

    _horizons(sys, T, run, tail_tol)
    return cost_quadrature(last, weight), last


def oracle_P(sys, weight, tau, T=None, dt=None, tail_tol=TAIL_TOL):
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
    if not np.isfinite(taus).all():
        raise ValueError("tau contains non-finite lags")
    lags = np.abs(taus)
    Q = weight.matrix
    if Q.shape[0] != sys.n:
        raise ValueError("weight dimension does not match the system")
    if dt is None:
        dt = sys.h / 64 if sys.h > 0 else 1.0 / 64

    record = _Run(sys, HistorySpec.point_mass(np.eye(sys.n)), dt)

    def run(T, pending):
        # margin keeps the shifted reads t + tau inside the record
        traj = record.to(T + lags[pending].max() + 2 * dt)
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

