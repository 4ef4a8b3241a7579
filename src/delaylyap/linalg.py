"""Dense linear algebra helpers shared by the solver modules.

Vectorization follows the column-stacking convention throughout: ``vec``
stacks columns, so ``vec(A X B) = kron(B.T, A) vec(X)``.

Everything here runs on numpy alone. :func:`expm` is the scaling and
squaring method with diagonal Pade approximants of Higham (SIMAX 26, 2005),
with the degree and scaling chosen from norms of matrix powers as in
Al-Mohy & Higham (SIMAX 31, 2009); :class:`ExpmTable` samples the action
of an exponential on an interval by truncated Taylor series, from products
with the matrix alone. Both accept the matrix's action ``X -> M @ X`` in
place of the dense products with it, so a structured matrix, such as the
solver's generator at large orders, makes two products of the exponential
and every product of the table cheaper. :func:`smallest_singular_value`
is one LAPACK SVD without vectors for a small or rectangular matrix; a
large square one has its unit rows split off, the remaining core inverted
once, and ``1 / sigma_min^2`` taken by Lanczos with full
reorthogonalization (Golub & Kahan, SIAM J. Numer. Anal. 2, 1965).
"""

import math
from functools import partial

import numpy as np


def vec(M):
    """Stack the columns of a matrix into a single vector."""
    M = np.asarray(M)
    if M.ndim != 2:
        raise ValueError("vec expects a 2-d array, got shape %s" % (M.shape,))
    return M.reshape(-1, order="F")


# Numerators of the diagonal Pade approximants r_m(x) = p_m(x) / p_m(-x) of
# e^x, p_m(x) = sum_k b[k] x^k (Higham 2005, eqs. 2.2 and 2.3), and the
# largest theta_m = ||A||_1 for which r_m(A) meets unit roundoff in double
# precision (Al-Mohy & Higham 2009, Table 3.1).
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0,
        1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068e0,
          13: 5.371920351148152e0}


def _norm1(X):
    return float(np.abs(X).sum(axis=0).max())


def _weighted(coeffs, powers):
    """``sum coeffs[j] powers[j]`` over the first ``len(coeffs)`` of the
    stacked ``powers``, in one pass (a matrix-vector product)."""
    k = len(coeffs)
    c = np.asarray(coeffs, dtype=powers.dtype)
    return (c @ powers[:k].reshape(k, -1)).reshape(powers.shape[1:])


def _pade_expm(A, times):
    """``e^A`` for a square ``A`` of size 2 or more, which is scaled in
    place. ``times(X, out=None)``, unless ``None``, returns ``A @ X`` at the
    ``A`` passed in, as ``np.matmul(A, X, out=out)`` does, and replaces the two
    products with ``A`` itself: ``A^2`` and the numerator's ``A u``.

    The degree ``m`` and the scaling ``s`` follow Al-Mohy & Higham (2009),
    sections 4 and 5, without their ``ell`` correction: the backward error
    of ``r_m`` is bounded through ``d_k = ||A^k||_1^(1/k)`` of the even
    powers already formed, the higher ones bounded by submultiplicativity
    (``d_8 <= d_4``, ``||A^10|| <= ||A^4|| ||A^6||``). These are never
    larger than ``||A||_1``, so no ``A`` gets a higher degree or more
    squarings than from Higham (2005), and a non-normal one often gets
    fewer.

    The even powers share one block, so each sum in the Pade numerator
    and denominator is one pass over it, and at most eight arrays of
    ``A``'s size are live at once.
    """
    n = A.shape[0]
    P = np.empty((4,) + A.shape, dtype=A.dtype)  # A^2, A^4, A^6, A^8
    if times is None:
        np.matmul(A, A, out=P[0])
    else:
        times(A, out=P[0])
    norms = [_norm1(P[0])]
    m, s = 3, 0
    if norms[0] ** (1 / 2) > _THETA[3]:  # bounds d_4 and d_6
        np.matmul(P[0], P[0], out=P[1])
        norms.append(_norm1(P[1]))
        d4 = norms[1] ** (1 / 4)
        m = 5
        if max(d4, (norms[1] * norms[0]) ** (1 / 6)) > _THETA[5]:
            np.matmul(P[1], P[0], out=P[2])
            norms.append(_norm1(P[2]))
            d6 = norms[2] ** (1 / 6)
            eta = max(d4, d6)
            if eta <= _THETA[7]:
                m = 7
            elif eta <= _THETA[9]:
                m = 9
                np.matmul(P[1], P[1], out=P[3])
            else:
                m = 13
                eta = max(d4, min(d6, (norms[1] * norms[2]) ** (1 / 10)))
                if not math.isfinite(eta):
                    raise OverflowError("matrix exponential overflowed: "
                                        "powers of the argument are not finite")
                s = max(0, math.ceil(math.log2(eta / _THETA[13])))
                A *= 2.0 ** -s
                for j in range(3):
                    P[j] *= 2.0 ** (-2 * (j + 1) * s)
    b = _PADE[m]
    if m == 13:
        # U = A (A^6 (b13 A^6 + b11 A^4 + b9 A^2) + b7 A^6 + ...), V alike
        u = P[2] @ _weighted(b[9::2], P)
        u += _weighted(b[3:9:2], P)
        v = P[2] @ _weighted(b[8::2], P)
        v += _weighted(b[2:8:2], P)
    else:
        u = _weighted(b[3::2], P)
        v = _weighted(b[2::2], P)
    del P
    u.flat[::n + 1] += b[1]
    v.flat[::n + 1] += b[0]
    if times is None:
        U = A @ u
    else:
        U = times(u)
        U *= 2.0 ** -s
    # r_m(A) solves (V - U) X = V + U
    Q = np.subtract(v, U, out=u)
    v += U
    del U
    X = np.linalg.solve(Q, v)
    for _ in range(s):
        X = X @ X
    return X


def expm(M, scale=1.0, action=None):
    """Matrix exponential ``e^(M * scale)``.

    Scaling and squaring with a diagonal Pade approximant of degree 3, 5,
    7, 9 or 13 (Higham, SIMAX 26, 2005), the degree and the number of
    squarings chosen from the norms of powers of ``M * scale`` (Al-Mohy &
    Higham, SIMAX 31, 2009). A ``1 x 1`` input is ``np.exp`` of its entry.

    Parameters
    ----------
    M : (m, m) array_like
        Square matrix, real or complex.
    scale : float or complex, optional
        Scalar factor applied before exponentiation. ``scale=0`` returns
        the identity exactly.
    action : callable, optional
        ``action(X, out=None)`` returns ``M @ X`` for ``X`` of shape ``(m,
        p)``, as :class:`ExpmTable` takes it. The two products with
        the argument itself, ``A^2`` and the numerator's ``A u``, go
        through it instead of the dense ``M``; the powers, the solve and
        the squarings stay dense. The result agrees with the dense route
        to rounding, not bitwise.

    Returns
    -------
    (m, m) ndarray

    Raises
    ------
    OverflowError
        If the result contains non-finite entries.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expm expects a square matrix, got shape %s" % (M.shape,))
    if scale == 0:
        return np.eye(M.shape[0], dtype=np.result_type(M.dtype, float))
    A = M * scale
    if A.dtype.kind not in "fc":
        A = A.astype(float)
    times = None
    if action is not None:
        def times(X, out=None):
            Y = action(X, out=out)
            Y *= scale
            return Y
    # an overflow shows as a non-finite result, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(A) if A.shape[0] <= 1 else _pade_expm(A, times)
    if not np.isfinite(out).all():
        raise OverflowError("matrix exponential overflowed to non-finite entries")
    return out


def _taylor_degree(norm=0.5):
    """Smallest ``K`` with ``norm^(K+1) e^norm / (K+1)! <= 2^-53``: the
    truncation bound of a degree-``K`` Taylor polynomial of ``expm(Z)`` for
    ``||Z||_1 <= norm``, relative to unit roundoff. ``norm = 1/2`` gives 14
    and ``norm = 4`` gives 33."""
    K, bound = 0, norm * math.exp(norm)
    while bound > 2.0 ** -53:
        K += 1
        bound *= norm / (K + 1)
    return K


class ExpmTable:
    """Samples ``t -> expm(M t) X`` on ``[0, T]`` from products with ``M``.

    The interval is cut at ``J + 1`` nodes ``j delta``, ``delta = T / J``
    with ``J = max(1, ceil(||M||_1 T))``. Node values come from Taylor
    steps of the action, with no exponential formed: from ``W_0 = X``, one
    series about node ``j`` gives the next ``SPAN`` (4) nodes, ``W_{j+i} =
    sum_k (i delta)^k M^k W_j / k!``, whose degree ``STEP_DEGREE``
    (:func:`_taylor_degree` at norm 4, 33) truncates below unit roundoff
    for ``||M i delta||_1 <= 4``. The table keeps the Taylor terms ``M^k
    W_j / k!`` for ``k <= K`` at every node. A call
    expands about the nearest node, so the step ``s`` satisfies ``||M s||_1
    <= 1/2`` and degree ``K`` (:func:`_taylor_degree`, 14) truncates below
    unit roundoff: the value is the dot product of ``s^k`` with the terms.
    This is the truncated-Taylor stepping of Al-Mohy & Higham (SISC 2011)
    with a fixed interval and starting block. Every step and term is a
    product ``M @ block``, so an ``action`` computing it without the dense
    ``M`` (the solver's :class:`~delaylyap.solver.BlockAction`) replaces
    all of them.

    The table holds ``(J + 1)(K + 1)`` copies of ``X``. For the stacked
    state of a random stable system with ``n = nd = 12`` on ``h = 1``
    (``ns = 864``, about 20 nodes) that is about 2 MB. At ``t = 0`` the
    call returns ``X`` exactly.

    Parameters
    ----------
    M : (m, m) array_like
    T : float
        Length of the interval, positive and finite.
    X : (m,) or (m, p) array_like
    action : callable, optional
        ``action(Y, out=None)`` returns ``M @ Y`` for ``Y`` of shape ``(m,
        ...)``, written into ``out`` if given, as ``np.matmul(M, Y,
        out=out)`` does. Every Taylor step and term is then a call of it
        instead of a product with the dense ``M``, which still gives the
        node spacing through ``||M||_1``.

    Raises
    ------
    OverflowError
        If the table contains non-finite entries.
    """

    DEGREE = _taylor_degree()
    SPAN = 4
    STEP_DEGREE = _taylor_degree(SPAN)

    def __init__(self, M, T, X, action=None):
        M = np.asarray(M, dtype=float)
        X = np.array(X, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("expects a square matrix, got shape %s" % (M.shape,))
        if X.ndim not in (1, 2) or X.shape[0] != M.shape[0]:
            raise ValueError("block shape %s does not match %s" % (X.shape, M.shape))
        T = float(T)
        if not np.isfinite(T) or T <= 0:
            raise ValueError("interval length must be positive and finite, got %r" % T)
        J = max(1, math.ceil(np.linalg.norm(M, 1) * T))
        times = partial(np.matmul, M) if action is None else action
        delta = T / J
        m, K = M.shape[0], self.STEP_DEGREE
        W = np.empty((m, J + 1, X.size // m))
        W[:, 0] = X.reshape(m, -1)
        # node j + i is sum_k i^k t_k, t_k = (M delta)^k W_j / k!; i^k is
        # exact in double for i <= 4 and k <= 33
        powers = np.arange(1.0, self.SPAN + 1)[:, None] ** np.arange(K + 1)
        t = np.empty((K + 1,) + W[:, 0].shape)
        # an overflow shows as a non-finite table, checked below
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(0, J, self.SPAN):
                t[0] = W[:, j]
                for k in range(1, K + 1):
                    times(t[k - 1], out=t[k])
                    t[k] *= delta / k
                i = min(self.SPAN, J - j)
                W[:, j + 1:j + i + 1] = (powers[:i] @ t.reshape(K + 1, -1)) \
                    .reshape(i, m, -1).swapaxes(0, 1)
            # term k for every node at once, then laid out node by node
            terms = [W.reshape(m, -1)]
            for k in range(1, self.DEGREE + 1):
                terms.append(times(terms[-1]) / k)
        self.terms = np.stack(terms).reshape(self.DEGREE + 1, m, J + 1, -1) \
            .transpose(2, 0, 1, 3).reshape(J + 1, self.DEGREE + 1, X.size)
        if not np.all(np.isfinite(self.terms)):
            raise OverflowError("propagated block overflowed to non-finite entries")
        self.shape = X.shape
        self.T = T
        self.delta = delta

    @property
    def nodes(self):
        return self.terms.shape[0]

    def __call__(self, t, cols=slice(None)):
        """``expm(M t) X`` for ``t`` in ``[0, T]``. An array of ``t`` gives
        the values stacked on its leading axes. A slice ``cols`` of the
        flattened ``X`` reads only those columns, shape ``t.shape +
        (width,)``."""
        t = np.asarray(t, dtype=float)
        slack = 1e-9 * max(1.0, self.T)
        bad = ~((-slack <= t) & (t <= self.T + slack))
        if bad.any():
            raise ValueError("t=%g outside [0, %g]" % (t[bad].flat[0], self.T))
        j = np.clip(np.rint(t / self.delta), 0, self.nodes - 1).astype(int).ravel()
        s = t.ravel() - j * self.delta
        # s^k for k <= K by a running product, one row per power
        powers = np.empty((self.DEGREE + 1, s.size))
        powers[0] = 1.0
        for k in range(self.DEGREE):
            np.multiply(powers[k], s, out=powers[k + 1])
        out = np.einsum("ki,ikm->im", powers, self.terms[j, :, cols])
        return out.reshape(t.shape + (self.shape if cols == slice(None) else (-1,)))


# The order from which the large-order routes are taken. Square matrices
# of at least this order take the Krylov route of smallest_singular_value;
# below it one LAPACK SVD is the cheaper route, because the Lanczos loop's
# Python overhead dominates. Boundary problems of at least this order
# multiply by their generator through its block action
# (delaylyap.solver.BlockAction) in expm, in the product E expm(E h) that
# G reads and in ExpmTable; below it the action forms only the dense
# generator, because its fixed cost of about 30 us a call loses to the
# dense product (timings of both crossovers in CHANGES.md).
KRYLOV_MIN_ORDER = 256


def _unit_rows(A):
    """Rows of ``A`` whose one nonzero entry is a 1, at most one row per
    column, and the columns of those entries: ``(rows, cols)``."""
    nz = A != 0
    rows = np.flatnonzero(np.count_nonzero(nz, axis=1) == 1)
    cols = nz[rows].argmax(axis=1)
    unit = A[rows, cols] == 1
    cols, first = np.unique(cols[unit], return_index=True)
    return rows[unit][first], cols


def _largest_eigenvalue(apply, m):
    """Largest eigenvalue of a symmetric positive definite operator on
    ``R^m``, ``apply(v)`` being its product with a vector.

    Lanczos with full reorthogonalization (two Gram-Schmidt passes), from
    a fixed pseudo-random start so that repeated calls agree bitwise. The
    Ritz values are the eigenvalues of the tridiagonal matrix; the
    iteration stops once the largest one's residual, ``beta_j`` times the
    last entry of its eigenvector, is at most 1e-13 times the value, or
    after ``m`` steps, where it is exact. Returns ``inf`` if the operator
    overflows.
    """
    Q = np.empty((m, m))  # Lanczos vectors as rows; only those used are touched
    alpha, beta = np.zeros(m), np.zeros(m)
    q = np.random.default_rng(0).standard_normal(m)
    q /= np.linalg.norm(q)
    for j in range(m):
        Q[j] = q
        w = apply(q)
        alpha[j] = q @ w
        for _ in range(2):
            w -= (Q[:j + 1] @ w) @ Q[:j + 1]
        beta[j] = np.linalg.norm(w)
        if not (math.isfinite(alpha[j]) and math.isfinite(beta[j])):
            return math.inf
        T = np.diag(alpha[:j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
        theta, S = np.linalg.eigh(T)
        if beta[j] * abs(S[-1, -1]) <= 1e-13 * theta[-1]:
            break
        q = w / beta[j]
    return float(theta[-1])


def _smallest_singular_value_krylov(A):
    """``sigma_min`` of a square ``A`` as ``1 / ||A^-1||_2``.

    The unit rows of :func:`_unit_rows` and their columns are split off:
    permuted, ``A = [[I, 0], [X, C]]``, so ``A^-1 = [[I, 0], [-C^-1 X,
    C^-1]]`` and only the core ``C`` is inverted, once; singular values do
    not change under permutation. ``||A^-1||_2^2`` is the largest
    eigenvalue of ``A^-T A^-1``, taken by :func:`_largest_eigenvalue` with
    the operator applied block by block, so no inverse of ``A`` is formed.
    An exactly singular core gives 0. The squared operator underflows if
    ``A`` has no unit rows and every singular value is above about 1e154.
    """
    rows, cols = _unit_rows(A)
    k = rows.size
    core_rows = np.delete(np.arange(A.shape[0]), rows)
    core_cols = np.delete(np.arange(A.shape[1]), cols)
    X = A[np.ix_(core_rows, cols)]
    try:
        Ci = np.linalg.inv(A[np.ix_(core_rows, core_cols)])
    except np.linalg.LinAlgError:
        return 0.0

    def gram(v):
        u = Ci @ (v[k:] - X @ v[:k])  # A^-1 v is [v[:k], u]
        w = u @ Ci                    # C^-T u
        return np.concatenate([v[:k] - w @ X, w])

    # a nearly singular core overflows the operator, read as sigma_min = 0
    with np.errstate(over="ignore", invalid="ignore"):
        return 1.0 / math.sqrt(_largest_eigenvalue(gram, A.shape[0]))


def smallest_singular_value(A):
    """Smallest singular value of a (possibly rectangular) matrix.

    A square matrix of order :data:`KRYLOV_MIN_ORDER` or more takes
    ``1 / ||A^-1||_2`` from a Lanczos iteration on one inverse of its
    core, after its unit rows are deflated
    (:func:`_smallest_singular_value_krylov`, Golub & Kahan, SIAM J.
    Numer. Anal. 2, 1965). Smaller or rectangular matrices take one LAPACK
    SVD without vectors.

    Raises
    ------
    ValueError
        If ``A`` is not 2-d or has a non-finite entry.
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError("expects a 2-d array, got shape %s" % (A.shape,))
    bad = ~np.isfinite(A)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError("expects finite entries, got %r at (%d, %d)"
                         % (float(A[i, j]), i, j))
    if min(A.shape) == 0:
        return 0.0
    if A.shape[0] == A.shape[1] >= KRYLOV_MIN_ORDER:
        return _smallest_singular_value_krylov(A)
    return float(np.linalg.svd(A, compute_uv=False)[-1])


def maxabs(A):
    """Largest entry magnitude, zero for empty arrays."""
    A = np.asarray(A)
    return float(np.max(np.abs(A))) if A.size else 0.0
