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
linear system in ``G = F1 + F2 expm(E h)`` for ``omega(0)``: the smallest
singular value of ``G`` grades its solvability (one SVD for a small
``G``; for a large one, a Lanczos iteration on one inverse of the core
left when the unit rows ``omega3(0) = 0`` and ``omega5(0) = 0`` are split
off, see :func:`delaylyap.linalg.smallest_singular_value`), one LU
factorization solves it, and ``omega(h)`` reuses that exponential.
Only ``rhs`` depends on the weight, so :func:`assemble` grades ``G`` when
it forms it, and below :data:`delaylyap.linalg.KRYLOV_MIN_ORDER` keeps
``||E||_1``, ``expm(E h)``, ``G`` and that grade per system: every weight's
solve shares them, and only the LU solve runs per weight.
Inside the interval a solution propagates ``omega(0)`` once, by products
with ``E`` alone, into a :class:`~delaylyap.linalg.ExpmTable` of ``expm(E
tau) omega(0)`` on ``[0, h]``, so ``expm(E h)`` is its only dense
exponential. Every value of the Lyapunov matrix that :func:`P_at` and the
residual checks use is sampled from that table; the kernel comes from
:func:`delaylyap.model.kernel_exp`, the system's own table of ``expm(-Ad
s)``.

:class:`BlockAction` is the one definition of the dynamics: it
multiplies by ``E`` through its blocks, in ``O(ns (n + nd))`` per column
instead of ``O(ns^2)``, and ``E`` itself is never formed. :func:`_reversal`,
the map that swaps and transposes blocks 1 and 2, 3 and 6, and 4 and 5,
negates ``E`` exactly, so the action on the unit columns of blocks 1, 3
and 4 gives every entry of ``E``, half of them negated and permuted.
``F1`` and ``F2`` are never formed either: ``G`` is built from their
structure, ``E``'s first block row, one row block of ``E expm(E h)`` and
copied row blocks of ``expm(E h)`` (see :func:`assemble`). Only that row
block of the product, the rows landing in block 2, is formed, by
:meth:`BlockAction.omega2_rows`. Those rows and every Taylor step and term
of the table go through the action, and ``expm(E h)`` is taken at half the
order from those columns: in the sums and differences of paired entries
``E`` is block off-diagonal and its exponential is a cosh/sinh pair of
order ``ns / 2`` (see :func:`delaylyap.linalg.odd_expm`). The boundary
states and the kernel table keep their dense products.

Evaluation takes arrays: :func:`P_at`, the kernel and the stacked state
accept an array of points and return the values stacked on its axes, so
each round of a residual check's quadrature, whose integrand receives the
nodes of all of its pending integrals at once, is one read of each table.
:func:`P_at` and the convolution integrands read only the columns of
blocks 1 and 2.

``P`` on ``[-h, 0)`` is defined by the reflection ``P(-tau) = P(tau).T``,
which leaves a derivative kink at ``tau = 0``; the residual checks below
keep their difference stencils and quadrature panels on one side of it.
The stencils difference the served values rather than taking the table's
Taylor derivative, so near the ends they compare the table against the
boundary states it was propagated from.
"""

import weakref
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import linalg
from . import spectrum as spectrum_mod
from .linalg import vec
from .model import kernel_at, kernel_exp
from .quadrature import integrate, integrate_batch

# default tolerance of the residual checks' quadrature
QUAD_TOL = 1e-10


@cache
def _layout(n, nd):
    """Shapes of the six blocks in stacking order, and their offsets in
    the stacked state, ending with its length ``ns``."""
    shapes = ((n, n), (n, n), (n, nd), (n, nd), (nd, n), (nd, n))
    return shapes, tuple(accumulate((r * c for r, c in shapes), initial=0))


@cache
def _reversal(n, nd):
    """Index map ``pi`` of the reversal of the stacked state: ``w[pi]``
    swaps blocks 1 and 2, 3 and 6, and 4 and 5, each transposed, so that
    ``pi[pi]`` is the identity and no index is fixed. The dynamics are odd
    under it, ``E[pi][:, pi] = -E`` exactly, which pairs the spectrum of
    ``E`` as ``(lambda, -lambda)``; a solution satisfies ``w(tau)[pi] =
    w(h - tau)``. The array is read-only, shared by every caller."""
    shapes, off = _layout(n, nd)
    pi = np.empty(off[-1], dtype=np.intp)
    for a, b in ((0, 1), (2, 5), (3, 4)):
        r, c = shapes[a]
        # entry (i, j) of block a, at i + j r, pairs with entry (j, i) of
        # block b, at j + i c
        partner = off[b] + np.arange(r * c).reshape(r, c).ravel(order="F")
        pi[off[a]:off[a + 1]] = partner
        pi[partner] = np.arange(off[a], off[a + 1])
    pi.flags.writeable = False
    return pi


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
        and kernel dimension ``nd``. States stacked along leading axes,
        shape ``(..., ns)``, give blocks of shape ``(..., r, c)``; a wrong
        length raises ``ValueError``."""
        shapes, off = _layout(n, nd)
        v = np.asarray(stacked, dtype=float)
        if v.shape[-1:] != (off[-1],):
            raise ValueError("stacked state has shape %s, expected (..., %d)"
                             % (v.shape, off[-1]))
        # the transpose of a row-major (cols, rows) view is the column-major
        # (rows, cols) block that ``vec`` stacked, without a copy
        return cls(*[v[..., a:b].reshape(v.shape[:-1] + (c, r)).swapaxes(-1, -2)
                     for a, b, (r, c) in zip(off, off[1:], shapes)])

    @property
    def stacked(self):
        return np.concatenate([vec(M) for M in self])


class BlockAction:
    """``X -> E @ X`` for ``X`` of shape ``(ns, ...)``, from the blocks of
    ``E`` without forming it: the one definition of the auxiliary
    dynamics, from which :func:`assemble` also takes ``E``'s columns.

    Each block of ``E`` is a Kronecker product with an identity, so with
    the blocks of a state written ``o1 .. o6``, its derivative is

        o1' =  o1 A0 + o2 A1 + o3 Bd + o4 Bd      o3' = o1 Cd - o3 Ad
        o2' = -A1' o1 - A0' o2 - Bd' o5 - Bd' o6  o4' = -o2 Ead - o4 Ad
        o5' =  Ead' o1 + Ad' o5                   o6' = -Cd' o2 + Ad' o6

    with ``Ead = Cd expm(-Ad h)``. Blocks 1, 2, 3 and 4 all have ``n``
    rows, so the leading ``2 n^2 + 2 n nd`` entries of a stacked state are
    ``vec([o1 o2 o3 o4])``, and the right products landing in blocks 1, 3
    and 4 are one product of those entries, reshaped, with a ``(2 n + 2
    nd, n + 2 nd)`` coefficient matrix, kept transposed as
    :attr:`right_T`. Blocks 1, 2, 5 and 6
    all have ``n`` columns, and the left products landing in blocks 2, 5
    and 6 are :attr:`left` times ``[o1; o2; o5; o6]``, batched over those
    columns: its leading ``n`` rows give block 2, which
    :meth:`omega2_rows` also forms alone, and the rest blocks 5 and 6. Per
    column of ``X`` that is ``O(ns (n + nd))`` work against ``O(ns^2)``
    for ``E @ X``.
    """

    def __init__(self, sys):
        A0, A1, Ad, Bd, Cd = sys.A0, sys.A1, sys.Ad, sys.Bd, sys.Cd
        n, nd = sys.n, sys.internal_dim
        Ead = Cd @ linalg.expm(Ad, -sys.h)
        right = np.zeros((2 * n + 2 * nd, n + 2 * nd))
        right[:n, :n], right[:n, n:n + nd] = A0, Cd
        right[n:2 * n, :n], right[n:2 * n, n + nd:] = A1, -Ead
        right[2 * n:, :n] = np.vstack([Bd, Bd])
        right[2 * n:2 * n + nd, n:n + nd] = -Ad
        right[2 * n + nd:, n + nd:] = -Ad
        left = np.zeros((n + 2 * nd, 2 * n + 2 * nd))
        left[:n] = -np.hstack([A1.T, A0.T, Bd.T, Bd.T])
        left[n:n + nd, :n], left[n:n + nd, 2 * n:2 * n + nd] = Ead.T, Ad.T
        left[n + nd:, n:2 * n], left[n + nd:, 2 * n + nd:] = -Cd.T, Ad.T
        self.right_T = right.T.copy()
        self.left = left
        self.n, self.nd = n, nd
        self.off = _layout(n, nd)[1]

    def __call__(self, X, out=None):
        """``E @ X``, written into ``out`` (C-contiguous) if given, as
        ``np.matmul(E, X, out=out)`` does."""
        X = np.asarray(X)
        if out is None:
            out = np.empty(X.shape, np.result_type(X, self.left))
        X = X.reshape(X.shape[0], -1)
        n, nd, off, p = self.n, self.nd, self.off, X.shape[1]
        Y = out.reshape(X.shape)
        # blocks 1, 3 and 4: vec([o1' o3' o4']) = vec([o1 o2 o3 o4] right)
        R = (self.right_T @ X[:off[4]].reshape(2 * n + 2 * nd, -1)).reshape(-1, p)
        Y[:off[1]] = R[:n * n]
        Y[off[2]:off[4]] = R[n * n:]
        # blocks 2, 5 and 6: [o2'; o5'; o6'] = left [o1; o2; o5; o6], block 2
        # from the leading n rows of left as in omega2_rows
        V = self._columns(X)
        Y[off[1]:off[2]] = (self.left[:n] @ V).reshape(-1, p)
        L = self.left[n:] @ V
        Y[off[4]:off[5]].reshape(n, nd, p)[...] = L[:, :nd]
        Y[off[5]:].reshape(n, nd, p)[...] = L[:, nd:]
        return out

    def omega2_rows(self, X):
        """The rows of ``E @ X`` that land in block 2, ``(E @ X)[off[1]:
        off[2]]``, bitwise as :meth:`__call__` writes them, without the
        rest of the product."""
        X = np.asarray(X)
        V = self._columns(X.reshape(X.shape[0], -1))
        return (self.left[:self.n] @ V).reshape((self.n ** 2,) + X.shape[1:])

    def _columns(self, X):
        """``[o1; o2; o5; o6]`` of the 2-d ``X``, batched over the ``n``
        columns of those blocks: shape ``(n, 2 n + 2 nd, p)``, column
        ``j`` at ``[j]``."""
        n, off, p = self.n, self.off, X.shape[1]
        return np.concatenate([X[off[i]:off[i + 1]].reshape(n, -1, p)
                               for i in (0, 1, 4, 5)], axis=1)


@dataclass(frozen=True, eq=False)
class AuxOperator:
    """Assembled constant matrices of the auxiliary boundary-value problem.

    ``E`` drives the stacked state and ``E_norm`` is its 1-norm,
    ``expm_Eh`` is the propagator ``expm(E h)`` across the interval, and
    ``G = F1 + F2 expm_Eh`` is the combined boundary matrix whose
    conditioning decides solvability, ``F1`` and ``F2`` weighting the
    state's values at ``tau = 0`` and ``tau = h`` in the boundary
    condition (see :func:`assemble`; neither is kept). The dimensions
    ``n`` and ``nd`` are those of ``system``.

    ``sigma_min`` and ``max_abs`` are the grade of ``G``, its smallest
    singular value and its largest entry magnitude, taken once when ``G``
    is formed. :func:`delaylyap.spectrum.check` reads them and applies its
    thresholds on every call, so no verdict is kept.

    :func:`assemble` returns a new operator on every call. Below
    :data:`delaylyap.linalg.KRYLOV_MIN_ORDER`, every operator of one
    system shares the same ``E_norm``, ``expm_Eh``, ``G`` and grade, which
    the memo keeps for as long as the system lives. ``expm_Eh`` and ``G``
    are read-only at every order.

    ``action`` is the :class:`BlockAction` of ``E``, which is not formed:
    the block-2 rows of ``E expm_Eh`` in ``G`` and the solution's
    propagation table go through it, and ``expm_Eh`` was taken at half the
    order from its columns through the reversal of the blocks. ``E_norm``
    spaces the table's nodes.
    """

    system: object
    E_norm: float
    expm_Eh: np.ndarray
    G: np.ndarray
    sigma_min: float
    max_abs: float
    ns: int
    action: BlockAction


# The assembly of each live system of order below linalg.KRYLOV_MIN_ORDER,
# ``(E_norm, expm_Eh, G, sigma_min, max_abs, ns, action)``, keyed by the
# system itself, which is immutable and hashes by identity. No value refers
# to its system, so an entry goes when its system does. A larger assembly
# is not kept: its two dense arrays would take 16 ns^2 bytes, 12 MB at ns =
# 864, for as long as the system lives.
_assembled = weakref.WeakKeyDictionary()


def assemble(sys):
    """Assemble the auxiliary operator of a delay system.

    The operator depends on the system alone: a weight enters only the
    right-hand side of the boundary condition. So a system of order below
    :data:`delaylyap.linalg.KRYLOV_MIN_ORDER` is assembled once and its
    arrays are kept for as long as the system lives; every call returns a
    new :class:`AuxOperator` over them. A larger system is assembled on
    every call, since its arrays are large. ``expm_Eh`` and ``G`` are
    read-only at every order, since operators may share them.

    Solvability is a property of the system alone, so ``G`` is graded
    here, once per assembly: :func:`delaylyap.linalg.smallest_singular_value`
    gives ``sigma_min`` (one SVD below the cutoff, Lanczos on one inverse
    of ``G``'s core from it) and :func:`delaylyap.linalg.maxabs` gives
    ``max_abs``. A kept system keeps its grade with its arrays, so every
    weight's :func:`solve_boundary` shares it; the thresholds and the LU
    solve run on every call. A non-finite ``G`` raises ``ValueError``.

    ``E`` is not formed. ``E_I = E[:, I]``, its columns ``I`` of blocks
    1, 3 and 4, is the system's :class:`BlockAction` applied to those unit
    columns, and ``E`` is odd under :func:`_reversal` ``pi``, so its other
    columns are ``E[:, pi[I]] = -E_I[pi]`` and ``||E||_1 = ||E_I||_1``.
    ``expm(E h)`` is :func:`delaylyap.linalg.odd_expm` of ``E_I``: with
    ``p`` and ``q`` the sums and differences of the entries of blocks 1, 3
    and 4 and of their partners, ``p' = B q`` and ``q' = C p``, and
    ``expm(E h)`` follows from ``c``, ``s`` and ``d``, the cosh, sinh and
    cosh-minus-one series of ``W = h^2 B C``, each of order ``ns / 2``, by
    scaling and double-angle steps. An overflow of that exponential raises
    ``OverflowError`` naming ``h`` and ``||E h||_1``.

    The six rows of the boundary pair ``(F1, F2)`` encode: the algebraic
    condition receiving ``-vec(Q)``, whose rows are ``E``'s first block
    row in ``F1`` and minus its second in ``F2``; the matching ``omega1(0)
    = omega2(h)``; and the four homogeneous end conditions ``omega3(0) =
    omega5(0) = 0`` and ``omega4(h) = omega6(h) = 0``. Every other block of
    the pair is zero or a signed identity, so ``G = F1 + F2 expm(E h)`` is
    formed from that structure: its first rows are ``E``'s first block
    row, read from ``E_I`` in the columns ``I`` and from ``-E_I[pi]`` in
    the columns ``pi[I]``, minus the omega2 rows of ``E expm(E h)``, and
    the rest are ``F1``'s identity blocks plus signed row blocks of
    ``expm(E h)``. Only those ``n^2`` rows of the product are formed, by
    :meth:`BlockAction.omega2_rows`, never the whole ``E expm(E h)``.

    With the exponential's temporaries freed as it goes (see
    :func:`delaylyap.linalg._half_order_expm`) and ``E_I`` freed once
    ``G``'s first rows are read from it, the assembly's peak is the Lanczos
    grade's inverse of the core of ``G`` on top of ``expm(E h)`` and
    ``G``: under three and a half ``ns x ns`` arrays in all at ``n = nd =
    8``, the Lanczos vectors kept only for the steps taken.
    """
    parts = _assembled.get(sys)
    if parts is None:
        parts = _assemble_parts(sys)
        if parts[5] < linalg.KRYLOV_MIN_ORDER:
            _assembled[sys] = parts
    return AuxOperator(sys, *parts)


def _assemble_parts(sys):
    """The fields of :func:`assemble`'s operator after ``system``:
    ``||E||_1``, ``expm_Eh`` and ``G`` read-only, the grade of ``G``,
    ``ns`` and the action."""
    action = BlockAction(sys)
    off = action.off
    ns = off[-1]
    pi = _reversal(sys.n, sys.internal_dim)
    # E's columns I (blocks 1, 3 and 4); its columns pi[I] are -EI[pi]
    I = np.flatnonzero(np.arange(ns) < pi)
    units = np.zeros((ns, I.size))
    units[I, np.arange(I.size)] = 1.0
    EI = action(units)
    del units
    E_norm = linalg.norm1(EI)
    try:
        expm_Eh = linalg.odd_expm(EI, sys.h, pi)
    except OverflowError as exc:
        raise OverflowError("expm(E h) overflowed at h = %g, ||E h||_1 = %.3g"
                            % (sys.h, E_norm * sys.h)) from exc
    G = np.zeros((ns, ns))
    # F1's first rows are E's omega1 rows, F2's minus its omega2 rows
    G[:off[1], I] = EI[:off[1]]
    G[:off[1], pi[I]] = -EI[pi[:off[1]]]
    del EI
    G[:off[1]] -= action.omega2_rows(expm_Eh)
    # F1's identity blocks, taking column block j of omega(0) to row block i
    for i, j in ((1, 0), (2, 2), (3, 4)):
        np.fill_diagonal(G[off[i]:off[i + 1], off[j]:off[j + 1]], 1.0)
    # F2's signed identity blocks times expm_Eh: row blocks of expm_Eh
    for i, j, sign in ((1, 1, -1.0), (4, 3, 1.0), (5, 5, 1.0)):
        G[off[i]:off[i + 1]] += sign * expm_Eh[off[j]:off[j + 1]]
    for M in (expm_Eh, G):
        M.flags.writeable = False
    return (E_norm, expm_Eh, G, linalg.smallest_singular_value(G),
            linalg.maxabs(G), ns, action)


@dataclass(frozen=True, eq=False)
class LyapunovSolution:
    """Boundary solve outcome: initial state plus everything needed to
    propagate it.

    The state at ``tau = h`` and ``omega_table``, which samples ``expm(E
    tau) omega0`` on ``[0, h]``, are built on first use and kept. Only
    interior points need the table, so a system with ``h = 0``, or a
    caller that asks for ``P(0)`` and ``P(h)`` alone, never builds it.
    """

    system: object
    weight: object
    op: AuxOperator
    omega0: OmegaBlocks
    spectrum: spectrum_mod.SpectrumReport

    @cached_property
    def _ends(self):
        """The stacked states ``omega(0)`` and ``omega(h)``, shape ``(2, ns)``."""
        stacked = self.omega0.stacked
        return np.stack([stacked, self.op.expm_Eh @ stacked])

    @cached_property
    def omega_h(self):
        return OmegaBlocks.from_stacked(self._ends[1], self.system.n,
                                        self.system.internal_dim)

    @cached_property
    def omega_table(self):
        return linalg.ExpmTable(self.op.action, self.op.E_norm, self.system.h,
                                self.omega0.stacked)


def solve_boundary(op, weight,
                   hard=spectrum_mod.HARD_THRESHOLD,
                   borderline=spectrum_mod.BORDERLINE_THRESHOLD):
    """Solve the boundary condition for the initial stacked state.

    :func:`delaylyap.spectrum.check` applies ``hard`` and ``borderline``
    to the grade of ``G`` that :func:`assemble` took, which decides
    whether the system has a solution; no decomposition is taken here.
    What remains is one LU solve of ``G x = rhs``, the residual rows of
    ``rhs`` being ``-vec(Q)`` and zeros.

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
    n = op.system.n
    if weight.n != n:
        raise ValueError(
            "weight dimension %d does not match state dimension %d" % (weight.n, n)
        )
    report = spectrum_mod.check(op, hard=hard, borderline=borderline)
    if report.verdict == spectrum_mod.VIOLATED:
        raise spectrum_mod.SpectrumConditionViolated(report)
    rhs = np.zeros(op.ns)
    rhs[: n * n] = -vec(weight.matrix)
    omega0 = OmegaBlocks.from_stacked(np.linalg.solve(op.G, rhs),
                                      n, op.system.internal_dim)
    return LyapunovSolution(op.system, weight, op, omega0, report)


def solve(sys, weight):
    """Assemble and solve in one call, with the default thresholds.

    Below :data:`delaylyap.linalg.KRYLOV_MIN_ORDER` the assembly and its
    solvability grade come from :func:`assemble`'s memo, keyed by the
    system object, so solving one system for several weights assembles
    and grades it once. The thresholds and the LU solve of
    :func:`solve_boundary` run on every call."""
    return solve_boundary(assemble(sys), weight)


def _stacked_at(sol, t, cols=slice(None)):
    """Stacked state at the points ``t`` of ``[0, h]``, shape ``t.shape +
    (ns,)``, or only the columns ``cols``: the boundary values at the
    ends, one read of the solution's table for the points inside."""
    t = np.asarray(t, dtype=float)
    moved = t != 0
    # omega(0) where t = 0, omega(h) elsewhere until the table fills the inside
    stacked = sol._ends[:, cols][moved.astype(int)]
    inside = moved & (t != sol.system.h)
    if inside.any():
        stacked[inside] = sol.omega_table(t[inside], cols)
    return stacked


def _propagators(sol, t):
    """Blocks 1 and 2 of the state at the points ``t``, read row-major
    from the leading columns, so each is the transpose of its block (see
    :meth:`OmegaBlocks.from_stacked`): shape ``t.shape + (2, n, n)``."""
    n = sol.system.n
    end = _layout(n, sol.system.internal_dim)[1][2]
    return _stacked_at(sol, t, slice(end)).reshape(np.shape(t) + (2, n, n))


def _omega(sol, t):
    """:func:`_stacked_at` as blocks of shape ``t.shape + (r, c)``."""
    return OmegaBlocks.from_stacked(_stacked_at(sol, t), sol.system.n,
                                    sol.system.internal_dim)


def P_at(sol, tau):
    """Delay Lyapunov matrix at ``tau``, for ``|tau| <= h``.

    A scalar ``tau`` gives ``(n, n)``; an array of lags gives the matrices
    stacked on its axes, shape ``tau.shape + (n, n)``, from one read of
    the solution's table.

    Values on ``[0, h]`` average block 1 of ``omega(tau)`` and the
    transpose of block 2 of ``omega(h - tau)``; negative arguments use the
    reflection ``P(-tau) = P(tau).T``. ``P(0)`` and ``P(h)`` read the
    boundary states ``omega(0)`` and ``omega(h) = expm(E h) omega(0)``;
    interior lags sample the solution's table of ``expm(E tau) omega(0)``,
    built on the first such call, so each further lag costs ``O(ns)``
    instead of two ``ns x ns`` exponentials.
    """
    h = sol.system.h
    tau = np.asarray(tau, dtype=float)
    a = np.abs(tau)
    bad = ~(a <= h + 1e-9 * max(1.0, h))
    if bad.any():
        raise ValueError("tau=%r outside [-h, h] with h=%g"
                         % (float(tau[bad].flat[0]), h))
    a = np.minimum(a, h)
    R = _propagators(sol, np.array([a, h - a]))
    P = 0.5 * (R[0, ..., 0, :, :].swapaxes(-1, -2) + R[1, ..., 1, :, :])
    if (tau < 0).any():
        P = np.where((tau < 0)[..., None, None], P.swapaxes(-1, -2), P)
    return P


def residual_dde(sol, quad_tol=QUAD_TOL):
    """Max-abs defect of the delay differential equation for ``P`` at 21
    evenly spaced lags of ``[0, h]``.

    The derivative is approximated with second-order difference stencils
    (one-sided near both endpoints, keeping clear of the reflection kink)
    and the convolution term integrates the kernel against ``P``, with the
    quadrature split at the kink crossing. ``P`` comes from the solution's
    table, as in :func:`P_at`, and the kernel from the system's: every
    stencil point is read in one call, and the two pieces of every lag are
    one batched quadrature, each of whose rounds is one more. Requires
    ``h > 0``.
    """
    sys = sol.system
    h = sys.h
    if h <= 0:
        raise ValueError("residual_dde needs h > 0")
    taus = np.linspace(0.0, h, 21)
    eps = 1e-6 * h
    # +1 forward, -1 backward, 0 central
    side = np.where(taus < 2 * eps, 1.0, np.where(taus > h - 2 * eps, -1.0, 0.0))
    near = np.where(side == 0, eps, side * eps)
    far = np.where(side == 0, -eps, 2 * side * eps)
    P, P_near, P_far, P_lag = P_at(sol, np.stack([taus, taus + near, taus + far,
                                                  taus - h]))
    side = side[:, None, None]
    dP = np.where(side == 0, P_near - P_far,
                  side * (-3 * P + 4 * P_near - P_far)) / (2 * eps)

    def f(theta, i):
        return P_at(sol, taus[i // 2] + theta) @ kernel_at(sys, theta)

    # the pieces (-h, -tau) and (-tau, 0) of every lag in one batch
    ends = np.stack([np.full_like(taus, -h), -taus, np.zeros_like(taus)], axis=1)
    conv = integrate_batch(f, ends[:, :2].ravel(), ends[:, 1:].ravel(),
                           tol=quad_tol).reshape((-1, 2) + P.shape[1:]).sum(axis=1)
    return linalg.maxabs(dP - (P @ sys.A0 + P_lag @ sys.A1 + conv))


def residual_algebraic(sol, quad_tol=QUAD_TOL):
    """Max-abs defect of the algebraic boundary condition tying ``P`` to
    the weight."""
    sys = sol.system
    Q = sol.weight.matrix
    P0, Ph = P_at(sol, [0.0, sys.h])

    def f(theta):
        K = kernel_at(sys, theta)
        P_minus, P_plus = P_at(sol, np.stack([-theta, theta]))
        return K.swapaxes(-1, -2) @ P_minus + P_plus @ K

    if sys.h > 0:
        conv = integrate(f, -sys.h, 0.0, tol=quad_tol)
    else:
        conv = np.zeros((sys.n, sys.n))
    term = sys.A0.T @ P0 + P0 @ sys.A0 + sys.A1.T @ Ph + Ph.T @ sys.A1 + conv
    return linalg.maxabs(term + Q)


def residual_collapsed(sol, quad_tol=QUAD_TOL):
    """Max-abs defect of the convolution blocks against their defining
    integrals, at 11 evenly spaced lags of ``[0, h]``.

    Each of blocks 3 to 6 equals a finite convolution of the kernel with
    one propagator block; evaluating those integrals by quadrature and
    comparing confirms the collapsed internal dynamics. Both sides sample
    the solution's table, the integrals also the system's kernel table;
    the four integrals of every lag are one batched quadrature, each of
    whose rounds reads each table once."""
    h = sol.system.h
    taus = np.linspace(0.0, h, 11)
    om = _omega(sol, taus)

    # blocks 5 and 6 are compared transposed, so that every piece is a
    # propagator block times the kernel factor, read at t + sign th + shift
    want = np.stack([om.omega3, om.omega4, om.omega5.swapaxes(-1, -2),
                     om.omega6.swapaxes(-1, -2)], axis=1)
    sign, shift = np.array([1.0, 1.0, -1.0, -1.0]), np.array([0.0, h, -h, 0.0])

    def f(th, i):
        p = i % 4
        R = _propagators(sol, taus[i // 4] + sign[p] * th + shift[p])
        R = R[np.arange(th.size), p % 2]
        # the blocks 3 and 4 integrate are the transposes of these reads
        B = np.where((p < 2)[:, None, None], R.swapaxes(-1, -2), R)
        return B @ (sol.system.Cd @ kernel_exp(sol.system, th))

    if h == 0:  # every piece is empty
        return linalg.maxabs(want)
    z, low = np.zeros_like(taus), np.full_like(taus, -h)
    lo = np.stack([-taus, low, low, taus - h], axis=1).ravel()
    hi = np.stack([z, -taus, taus - h, z], axis=1).ravel()
    return linalg.maxabs(integrate_batch(f, lo, hi, tol=quad_tol).reshape(want.shape)
                         - want)


def flip_residuals(sol):
    """Defects of the reversal symmetries relating the blocks across the
    interval at 11 evenly spaced lags, ``w(tau)[pi] = w(h - tau)`` for the
    :func:`_reversal` ``pi``, block by block, plus the symmetry of block 1
    at the origin."""
    sys = sol.system
    n, nd = sys.n, sys.internal_dim
    taus = np.linspace(0.0, sys.h, 11)
    w = _stacked_at(sol, np.stack([taus, sys.h - taus]))
    d = OmegaBlocks.from_stacked(w[0] - w[1][:, _reversal(n, nd)], n, nd)
    o1 = sol.omega0.omega1
    return {
        "omega1_flip": linalg.maxabs(d.omega1),
        "omega3_flip": linalg.maxabs(d.omega3),
        "omega4_flip": linalg.maxabs(d.omega4),
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


def residual_report(sol, quad_tol=QUAD_TOL):
    """Bundle every residual diagnostic into one flat mapping."""
    out = {
        "algebraic": residual_algebraic(sol, quad_tol=quad_tol),
        "collapsed": residual_collapsed(sol, quad_tol=quad_tol),
    }
    if sol.system.h > 0:
        out["dde"] = residual_dde(sol, quad_tol=quad_tol)
    out.update(flip_residuals(sol))
    out.update(endpoint_residuals(sol))
    return out
