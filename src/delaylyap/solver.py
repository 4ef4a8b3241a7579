"""Delay Lyapunov matrix construction.

The matrix ``P(tau)`` solves a delay differential equation with a symmetry
condition and an algebraic boundary condition. Collapsing the kernel's
internal dynamics turns that problem into a linear ODE for six coupled
matrix blocks with conditions split between ``tau = 0`` and ``tau = h``:

    blocks 1, 2 : (n, n)    forward and adjoint propagators of P
    blocks 3, 4 : (n, nd)   kernel convolutions entering the derivative
    blocks 5, 6 : (nd, n)   their transposed counterparts

Stacking the vectorized blocks gives a state of size ``ns = 2 n^2 +
4 n nd`` with dynamics ``omega' = E omega`` and boundary condition
``F1 omega(0) + F2 omega(h) = rhs``. The boundary solve reduces to one
linear system in ``G = F1 + F2 expm(E h)`` for ``omega(0)``: one SVD of
``G`` grades its solvability and one LU factorization solves it, and
``omega(h)`` reuses that exponential. Inside the interval a solution
propagates ``omega(0)`` once, into a :class:`~delaylyap.linalg.ExpmTable`
of ``expm(E tau) omega(0)`` on ``[0, h]``, and every value of the Lyapunov
matrix, and of the kernel, that :func:`P_at` and the residual checks use
is sampled from that table or from the kernel's table of ``expm(-Ad s)``.
:func:`evaluate_omega` keeps the direct exponential as a reference.

``P`` on ``[-h, 0)`` is defined by the reflection ``P(-tau) = P(tau).T``,
which leaves a derivative kink at ``tau = 0``; the residual checks below
keep their difference stencils and quadrature panels on one side of it.
"""

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np
import scipy.linalg

from . import linalg
from . import spectrum as spectrum_mod
from .linalg import vec
from .quadrature import integrate


@cache
def _layout(n, nd):
    """Shapes of the six blocks in stacking order, and their offsets in
    the stacked state, ending with its length ``ns``."""
    shapes = ((n, n), (n, n), (n, nd), (n, nd), (nd, n), (nd, n))
    return shapes, tuple(accumulate((r * c for r, c in shapes), initial=0))


def block_sizes(n, nd):
    """Lengths of the six vectorized blocks in the stacked state."""
    return [r * c for r, c in _layout(n, nd)[0]]


def block_offsets(n, nd):
    """Start of each block in the stacked state, then its length ``ns``."""
    return list(_layout(n, nd)[1])


class OmegaBlocks(NamedTuple):
    """The stacked auxiliary state as its six matrices, in block order.

    ``OmegaBlocks(*blocks)`` takes the matrices themselves;
    :meth:`from_stacked` splits a stacked state into views of its blocks
    and :attr:`stacked` concatenates them back.
    """

    omega1: np.ndarray
    omega2: np.ndarray
    omega3: np.ndarray
    omega4: np.ndarray
    omega5: np.ndarray
    omega6: np.ndarray

    @classmethod
    def from_stacked(cls, stacked, n, nd):
        """Split a stacked state of a system with state dimension ``n``
        and kernel dimension ``nd``; a wrong length raises ``ValueError``."""
        shapes, off = _layout(n, nd)
        v = np.asarray(stacked, dtype=float)
        if v.shape != (off[-1],):
            raise ValueError(
                "stacked state has shape %s, expected (%d,)" % (v.shape, off[-1])
            )
        # the transpose of a row-major (cols, rows) view is the column-major
        # (rows, cols) block that ``vec`` stacked, without a copy
        return cls(*[v[a:b].reshape(c, r).T
                     for a, b, (r, c) in zip(off, off[1:], shapes)])

    @property
    def stacked(self):
        return np.concatenate([vec(M) for M in self])


@dataclass(frozen=True, eq=False)
class AuxOperator:
    """Assembled constant matrices of the auxiliary boundary-value problem.

    ``E`` drives the stacked state, ``F1`` and ``F2`` weight its values at
    ``tau = 0`` and ``tau = h`` in the boundary condition, ``expm_Eh`` is
    the propagator ``expm(E h)`` across the interval, and ``G = F1 + F2
    expm_Eh`` is the combined boundary matrix whose conditioning decides
    solvability.
    """

    system: object
    E: np.ndarray
    F1: np.ndarray
    F2: np.ndarray
    expm_Eh: np.ndarray
    G: np.ndarray
    ns: int

    @property
    def n(self):
        return self.system.n

    @property
    def internal_dim(self):
        return self.system.internal_dim

    @property
    def h(self):
        return self.system.h


def assemble(sys):
    """Assemble the auxiliary operator of a delay system.

    The six rows of ``E`` encode, in order: the derivative couplings of
    the two propagator blocks and of the four convolution blocks. The six
    rows of the boundary pair ``(F1, F2)`` encode: the algebraic condition
    receiving ``-vec(Q)``, the matching of blocks 1 and 2 across the
    interval, and the four homogeneous end conditions of the convolution
    blocks.
    """
    n = sys.n
    nd = sys.internal_dim
    A0, A1, Ad, Bd, Cd = sys.A0, sys.A1, sys.Ad, sys.Bd, sys.Cd
    In = np.eye(n)
    Ead = Cd @ linalg.expm(Ad, -sys.h)

    sizes = block_sizes(n, nd)
    off = block_offsets(n, nd)
    ns = off[-1]

    def place(M, i, j, blk):
        M[off[i]:off[i + 1], off[j]:off[j + 1]] = blk

    E = np.zeros((ns, ns))
    place(E, 0, 0, np.kron(A0.T, In))
    place(E, 0, 1, np.kron(A1.T, In))
    place(E, 0, 2, np.kron(Bd.T, In))
    place(E, 0, 3, np.kron(Bd.T, In))
    place(E, 1, 0, -np.kron(In, A1.T))
    place(E, 1, 1, -np.kron(In, A0.T))
    place(E, 1, 4, -np.kron(In, Bd.T))
    place(E, 1, 5, -np.kron(In, Bd.T))
    place(E, 2, 0, np.kron(Cd.T, In))
    place(E, 2, 2, -np.kron(Ad.T, In))
    place(E, 3, 1, -np.kron(Ead.T, In))
    place(E, 3, 3, -np.kron(Ad.T, In))
    place(E, 4, 0, np.kron(In, Ead.T))
    place(E, 4, 4, np.kron(In, Ad.T))
    place(E, 5, 1, -np.kron(In, Cd.T))
    place(E, 5, 5, np.kron(In, Ad.T))

    F1 = np.zeros((ns, ns))
    place(F1, 0, 0, np.kron(A0.T, In))
    place(F1, 0, 1, np.kron(A1.T, In))
    place(F1, 0, 2, np.kron(Bd.T, In))
    place(F1, 0, 3, np.kron(Bd.T, In))
    place(F1, 1, 0, np.eye(sizes[0]))
    place(F1, 2, 2, np.eye(sizes[2]))
    place(F1, 3, 4, np.eye(sizes[4]))

    F2 = np.zeros((ns, ns))
    place(F2, 0, 0, np.kron(In, A1.T))
    place(F2, 0, 1, np.kron(In, A0.T))
    place(F2, 0, 4, np.kron(In, Bd.T))
    place(F2, 0, 5, np.kron(In, Bd.T))
    place(F2, 1, 1, -np.eye(sizes[1]))
    place(F2, 4, 3, np.eye(sizes[3]))
    place(F2, 5, 5, np.eye(sizes[5]))

    expm_Eh = linalg.expm(E, sys.h)
    return AuxOperator(sys, E, F1, F2, expm_Eh, F1 + F2 @ expm_Eh, ns)


@dataclass(frozen=True, eq=False)
class LyapunovSolution:
    """Boundary solve outcome: initial state plus everything needed to
    propagate it.

    The state at ``tau = h`` and the two tables are built on first use and
    kept: ``omega_table`` samples ``expm(E tau) omega0`` and
    ``kernel_table`` samples ``expm(-Ad s)``, both on ``[0, h]``. Only
    interior points need a table, so a system with ``h = 0``, or a caller
    that asks for ``P(0)`` and ``P(h)`` alone, never builds one.
    """

    system: object
    weight: object
    op: AuxOperator
    omega0: OmegaBlocks
    spectrum: spectrum_mod.SpectrumReport

    @cached_property
    def omega_h(self):
        return OmegaBlocks.from_stacked(self.op.expm_Eh @ self.omega0.stacked,
                                        self.op.n, self.op.internal_dim)

    @cached_property
    def omega_table(self):
        return linalg.ExpmTable(self.op.E, self.system.h, self.omega0.stacked)

    @cached_property
    def kernel_table(self):
        return linalg.ExpmTable(-self.system.Ad, self.system.h,
                                np.eye(self.system.internal_dim))


def solve_boundary(op, weight,
                   hard=spectrum_mod.HARD_THRESHOLD,
                   borderline=spectrum_mod.BORDERLINE_THRESHOLD):
    """Solve the boundary condition for the initial stacked state.

    The singular values that :func:`delaylyap.spectrum.check` takes of
    ``G`` are the only ones computed: they decide whether the system has a
    solution, so what remains is one LU solve of ``G x = rhs``, the
    residual rows of ``rhs`` being ``-vec(Q)`` and zeros.

    Parameters
    ----------
    op : AuxOperator
    weight : Weight
        Symmetric running-cost matrix, dimension matching the system.
    hard, borderline : float, optional
        Solvability thresholds, see :func:`delaylyap.spectrum.check`.

    Returns
    -------
    LyapunovSolution

    Raises
    ------
    SpectrumConditionViolated
        When the combined boundary matrix is singular below ``hard``;
        inside the borderline band the solve proceeds and the verdict is
        recorded on the returned solution.
    """
    n = op.n
    if weight.n != n:
        raise ValueError(
            "weight dimension %d does not match state dimension %d" % (weight.n, n)
        )
    report = spectrum_mod.check(op.G, hard=hard, borderline=borderline)
    if report.verdict == spectrum_mod.VIOLATED:
        raise spectrum_mod.SpectrumConditionViolated(report)
    rhs = np.zeros(op.ns)
    rhs[: n * n] = -vec(weight.matrix)
    omega0 = OmegaBlocks.from_stacked(scipy.linalg.solve(op.G, rhs),
                                      n, op.internal_dim)
    return LyapunovSolution(op.system, weight, op, omega0, report)


def solve(sys, weight, **kwargs):
    """Assemble and solve in one call."""
    return solve_boundary(assemble(sys), weight, **kwargs)


def evaluate_omega(sol, tau):
    """Propagate the stacked state to ``tau`` (any finite value)."""
    tau = float(tau)
    if not np.isfinite(tau):
        raise ValueError("tau must be finite")
    stacked = linalg.expm(sol.op.E, tau) @ sol.omega0.stacked
    return OmegaBlocks.from_stacked(stacked, sol.op.n, sol.op.internal_dim)


def _omega(sol, t):
    """Stacked state at ``t`` in ``[0, h]``: the boundary values at the
    ends, the solution's table inside."""
    if t == 0:
        return sol.omega0
    if t == sol.system.h:
        return sol.omega_h
    return OmegaBlocks.from_stacked(sol.omega_table(t), sol.op.n,
                                    sol.op.internal_dim)


def _kernel_factor(sol, theta):
    """``Cd expm(Ad theta)`` for ``theta`` in ``[-h, 0]``."""
    return sol.system.Cd @ sol.kernel_table(-theta)


def _kernel(sol, theta):
    """The kernel ``Cd expm(Ad theta) Bd`` for ``theta`` in ``[-h, 0]``."""
    return _kernel_factor(sol, theta) @ sol.system.Bd


def P_at(sol, tau):
    """Delay Lyapunov matrix at ``tau``, for ``|tau| <= h``.

    Values on ``[0, h]`` average block 1 of ``omega(tau)`` and the
    transpose of block 2 of ``omega(h - tau)``; negative arguments use the
    reflection ``P(-tau) = P(tau).T``. ``P(0)`` and ``P(h)`` read the
    boundary states ``omega(0)`` and ``omega(h) = expm(E h) omega(0)``;
    interior lags sample the solution's table of ``expm(E tau) omega(0)``,
    built on the first such call, so each further lag costs ``O(ns)``
    instead of two ``ns x ns`` exponentials.
    """
    h = sol.system.h
    tau = float(tau)
    slack = 1e-9 * max(1.0, h)
    if not np.isfinite(tau) or abs(tau) > h + slack:
        raise ValueError("tau=%r outside [-h, h] with h=%g" % (tau, h))
    tau = min(h, max(-h, tau))
    if tau < 0:
        return P_at(sol, -tau).T
    o1 = _omega(sol, tau).omega1
    o2 = _omega(sol, h - tau).omega2
    return 0.5 * (o1 + o2.T)


def residual_dde(sol, taus=None, quad_tol=1e-10):
    """Max-abs defect of the delay differential equation for ``P``.

    The derivative is approximated with second-order difference stencils
    (one-sided near both endpoints, keeping clear of the reflection kink)
    and the convolution term integrates the kernel against ``P``, with the
    quadrature split at the kink crossing. ``P`` and the kernel come from
    the solution's tables, as in :func:`P_at`. Requires ``h > 0``.
    """
    sys = sol.system
    h = sys.h
    if h <= 0:
        raise ValueError("residual_dde needs h > 0")
    if taus is None:
        taus = np.linspace(0.0, h, 21)
    eps = 1e-6 * h
    worst = 0.0
    for tau in np.asarray(taus, dtype=float):
        if tau < 0 or tau > h:
            raise ValueError("residual grid point %g outside [0, h]" % tau)
        if tau < 2 * eps:
            dP = (-3 * P_at(sol, tau) + 4 * P_at(sol, tau + eps)
                  - P_at(sol, tau + 2 * eps)) / (2 * eps)
        elif tau > h - 2 * eps:
            dP = (3 * P_at(sol, tau) - 4 * P_at(sol, tau - eps)
                  + P_at(sol, tau - 2 * eps)) / (2 * eps)
        else:
            dP = (P_at(sol, tau + eps) - P_at(sol, tau - eps)) / (2 * eps)

        def f(theta):
            return P_at(sol, tau + theta) @ _kernel(sol, theta)

        conv = np.zeros((sys.n, sys.n))
        for lo, hi in ((-h, -tau), (-tau, 0.0)):
            if hi > lo:
                conv = conv + integrate(f, lo, hi, tol=quad_tol)
        rhs = P_at(sol, tau) @ sys.A0 + P_at(sol, tau - h) @ sys.A1 + conv
        worst = max(worst, linalg.maxabs(dP - rhs))
    return worst


def residual_algebraic(sol, quad_tol=1e-10):
    """Max-abs defect of the algebraic boundary condition tying ``P`` to
    the weight."""
    sys = sol.system
    Q = sol.weight.matrix
    P0 = P_at(sol, 0.0)
    Ph = P_at(sol, sys.h)

    def f(theta):
        K = _kernel(sol, theta)
        return K.T @ P_at(sol, -theta) + P_at(sol, theta) @ K

    if sys.h > 0:
        conv = integrate(f, -sys.h, 0.0, tol=quad_tol)
    else:
        conv = np.zeros((sys.n, sys.n))
    term = sys.A0.T @ P0 + P0 @ sys.A0 + sys.A1.T @ Ph + Ph.T @ sys.A1 + conv
    return linalg.maxabs(term + Q)


def residual_collapsed(sol, taus=None, quad_tol=1e-10):
    """Max-abs defect of the convolution blocks against their defining
    integrals.

    Each of blocks 3 to 6 equals a finite convolution of the kernel with
    one propagator block; evaluating those integrals by quadrature and
    comparing confirms the collapsed internal dynamics. Both sides sample
    the solution's tables."""
    h = sol.system.h
    if taus is None:
        taus = np.linspace(0.0, h, 11)

    def ker(theta):
        return _kernel_factor(sol, theta)

    worst = 0.0
    for tau in np.asarray(taus, dtype=float):
        if tau < 0 or tau > h:
            raise ValueError("residual grid point %g outside [0, h]" % tau)
        om = _omega(sol, tau)
        pieces = [
            (om.omega3, -tau, 0.0,
             lambda th, t=tau: _omega(sol, t + th).omega1 @ ker(th)),
            (om.omega4, -h, -tau,
             lambda th, t=tau: _omega(sol, t + th + h).omega2 @ ker(th)),
            (om.omega5, -h, -h + tau,
             lambda th, t=tau: ker(th).T @ _omega(sol, t - th - h).omega1),
            (om.omega6, -h + tau, 0.0,
             lambda th, t=tau: ker(th).T @ _omega(sol, t - th).omega2),
        ]
        for target, lo, hi, f in pieces:
            if hi > lo:
                val = integrate(f, lo, hi, tol=quad_tol)
            else:
                val = np.zeros_like(target)
            worst = max(worst, linalg.maxabs(val - target))
    return worst


def flip_residuals(sol, taus=None):
    """Defects of the reversal symmetries relating the blocks across the
    interval, plus the symmetry of block 1 at the origin."""
    h = sol.system.h
    if taus is None:
        taus = np.linspace(0.0, h, 11)
    r1 = r3 = r4 = 0.0
    for tau in np.asarray(taus, dtype=float):
        om = _omega(sol, tau)
        rev = _omega(sol, h - tau)
        r1 = max(r1, linalg.maxabs(om.omega1 - rev.omega2.T))
        r3 = max(r3, linalg.maxabs(om.omega3 - rev.omega6.T))
        r4 = max(r4, linalg.maxabs(om.omega4 - rev.omega5.T))
    o1 = sol.omega0.omega1
    return {
        "omega1_flip": r1,
        "omega3_flip": r3,
        "omega4_flip": r4,
        "omega1_symmetry_at_0": linalg.maxabs(o1 - o1.T),
    }


def endpoint_residuals(sol):
    """Defects of the boundary conditions at the interval ends."""
    om0 = sol.omega0
    omh = sol.omega_h
    return {
        "omega1_0_minus_omega2_h": linalg.maxabs(om0.omega1 - omh.omega2),
        "omega3_at_0": linalg.maxabs(om0.omega3),
        "omega5_at_0": linalg.maxabs(om0.omega5),
        "omega4_at_h": linalg.maxabs(omh.omega4),
        "omega6_at_h": linalg.maxabs(omh.omega6),
    }


def residual_report(sol, taus=None, quad_tol=1e-10):
    """Bundle every residual diagnostic into one flat mapping."""
    out = {
        "algebraic": residual_algebraic(sol, quad_tol=quad_tol),
        "collapsed": residual_collapsed(sol, taus=taus, quad_tol=quad_tol),
    }
    if sol.system.h > 0:
        out["dde"] = residual_dde(sol, taus=taus, quad_tol=quad_tol)
    out.update(flip_residuals(sol, taus=taus))
    out.update(endpoint_residuals(sol))
    return out
