"""Dense linear algebra helpers shared by the solver modules.

Vectorization follows the column-stacking convention throughout: ``vec``
stacks columns, so ``vec(A X B) = kron(B.T, A) vec(X)``.

Everything here runs on numpy alone, and every exponential is a truncated
Taylor series whose degree follows the norm of its argument (Al-Mohy &
Higham, SISC 33, 2011). :func:`expm` scales a square matrix to a 1-norm
of at most 2, sums the series and squares back. :func:`odd_expm` takes
the exponential of a matrix that is odd under a pairing of its indices,
as the solver's generator is under the reversal of its blocks, from half
its columns and at half the order: in the sums and differences of paired
entries the matrix is block off-diagonal, and its exponential is a
cosh/sinh pair of one matrix of half the order (the square-reduced idea
of Van Loan, LAA 61, 1984), taken by Taylor series and double-angle steps
as for the matrix cosine (Higham & Smith, Numer. Algorithms 34, 2003).
:class:`ExpmTable` samples the action of an exponential on an interval by
truncated Taylor series, from the matrix's action ``X -> M @ X`` and its
1-norm alone, so a structured matrix, such as the solver's generator,
makes every product of the table cheaper.
:func:`smallest_singular_value` is one LAPACK SVD without vectors for a
small or rectangular matrix; a large square one has its unit rows split
off, the remaining core inverted once, and ``1 / sigma_min^2`` taken by
Lanczos with full reorthogonalization (Golub & Kahan, SIAM J. Numer.
Anal. 2, 1965).
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


def norm1(X):
    """The 1-norm of a matrix, its largest absolute column sum."""
    return float(np.abs(X).sum(axis=0).max())


def _weighted(coeffs, powers):
    """``sum coeffs[j] powers[j]`` over the first ``len(coeffs)`` of the
    stacked ``powers``, for a 1-d array ``coeffs``, in one pass (a
    matrix-vector product)."""
    k = coeffs.size
    return (coeffs @ powers[:k].reshape(k, -1)).reshape(powers.shape[1:])


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


# The half-order exponential's series run on Z = W / 4^k with ||Z||_1 <=
# _HALF_THETA, so on x = sqrt(Z) of norm at most 4. Degree
# _taylor_degree(sqrt(||Z||_1)) in x, half that in Z, truncates below unit
# roundoff: 16 in Z at this bound, fewer for a smaller Z. On the tests'
# large-order generators (n, nd = 8 8, 12 12 and 9 5) the result was within
# 7.1e-15 of a Pade scaling-and-squaring reference at this bound, against
# 1.8e-14 at 4 and 9.1e-14 at 1, at about the same cost: fewer double-angle
# steps lose less to rounding.
_HALF_THETA = 16.0
_HALF_DEGREE = _taylor_degree(math.sqrt(_HALF_THETA)) // 2  # 16
# sinh(x) / x = sum z^k / (2k + 1)! and (cosh(x) - 1) / z = sum z^k / (2k + 2)!
_SINH_SERIES = np.array([1 / math.factorial(2 * k + 1)
                         for k in range(_HALF_DEGREE + 1)])
_COSH_SERIES = np.array([1 / math.factorial(2 * k + 2)
                         for k in range(_HALF_DEGREE + 1)])


def _powers(W, factor, degree):
    """The stacked powers ``[I, Z, ..., Z^b]`` of ``Z = W factor`` that
    :func:`_horner` reads for a series of this degree, ``b =
    max(1, isqrt(degree))``."""
    block = max(1, math.isqrt(degree))
    m = W.shape[0]
    P = np.empty((block + 1, m, m), dtype=W.dtype)
    P[0] = np.eye(m)
    np.multiply(W, factor, out=P[1])
    for k in range(2, block + 1):
        np.matmul(P[k - 1], P[1], out=P[k])
    return P


def _horner(coeffs, P):
    """``sum_k coeffs[k] Z^k`` from the stacked powers ``P = [I, Z, ...,
    Z^b]``: Horner's rule in ``Z^b``, one product per ``b`` coefficients
    (Paterson & Stockmeyer, SIAM J. Comput. 2, 1973)."""
    b = len(P) - 1
    t = (coeffs.size - 2) // b
    R = _weighted(coeffs[t * b:], P)
    for j in range(t - 1, -1, -1):
        R = R @ P[b]
        R += _weighted(coeffs[j * b:(j + 1) * b], P)
    return R


# The general exponential's series runs on A 2^-s with ||A 2^-s||_1 <=
# _TAYLOR_THETA, to degree _taylor_degree(||A 2^-s||_1), 24 at this bound.
# Against a 40-digit reference on 49 matrices of order 1 to 24 (random
# ones of norm 0.01 to 30, non-normal ones with couplings to 1000, stiff
# ones and a rotation) the largest relative error in the 1-norm was
# 2.1e-14 at this bound, against 5.3e-14 at 1, 2.9e-13 at 4 and 2.7e-14
# for Pade scaling and squaring of degree up to 13.
_TAYLOR_THETA = 2.0
_EXP_SERIES = np.array([1 / math.factorial(k)
                        for k in range(_taylor_degree(_TAYLOR_THETA) + 1)])


def _taylor_expm(A, scale):
    """``e^(A scale)`` for a square ``A``, by scaling and squaring with a
    truncated Taylor series (Al-Mohy & Higham, SISC 33, 2011; Sastre,
    Ibanez & Defez, Appl. Math. Comput. 340, 2019).

    ``Z = A scale 2^-s`` with the fewest squarings ``s`` that bring
    ``||Z||_1`` to at most ``_TAYLOR_THETA``; the series of ``e^Z`` runs to
    the degree :func:`_taylor_degree` gives for ``||Z||_1``, summed by
    :func:`_horner` on the powers up to ``Z^b``, ``b = isqrt(degree)``, and
    squared ``s`` times. A ``1 x 1`` input is ``np.exp`` of its entry.
    """
    A = A * scale
    if A.shape[0] <= 1:
        return np.exp(A)
    norm = norm1(A)
    if not math.isfinite(norm):
        raise OverflowError("matrix exponential overflowed: "
                            "the argument is not finite")
    s = math.ceil(math.log2(norm / _TAYLOR_THETA)) if norm > _TAYLOR_THETA else 0
    degree = _taylor_degree(norm * 2.0 ** -s)
    X = _horner(_EXP_SERIES[:degree + 1], _powers(A, 2.0 ** -s, degree))
    for _ in range(s):
        X = X @ X
    return X


def _half_order_expm(MI, scale, pi):
    """``e^(M scale)`` for an ``M`` that is odd under the pairing ``pi``,
    from its columns ``MI = M[:, I]``.

    ``I`` holds the indices ``k < pi[k]`` and ``J = pi[I]`` their partners.
    With ``p = w_I + w_J`` and ``q = w_I - w_J``, ``w' = M w`` becomes ``p'
    = B q`` and ``q' = C p``, ``B = M_II + M_JI`` and ``C = M_II - M_JI``
    (scaled here), because ``M_JJ = -M_II`` and ``M_IJ = -M_JI``, which are
    not read. The exponential of this block off-diagonal form is, with ``W
    = B C``,

        [[c(W), s(W) B], [C s(W), I + C d(W) B]]

    where ``c``, ``s`` and ``d`` are ``cosh(x)``, ``sinh(x) / x`` and
    ``(cosh(x) - 1) / x^2`` at ``x = sqrt(z)``: the square-reduced idea
    for Hamiltonian matrices (Van Loan, LAA 61, 1984). ``s`` and ``d`` are
    Taylor series on ``Z = W / 4^k``, of the degree that ``||Z||_1``
    needs, ``c = I + Z d``, and ``k`` double-angle steps ``s <- s c``,
    ``d <- d (I + c) / 2``, ``c <- 2 c^2 - I``, all from the old ``c``,
    undo the scaling, as for the matrix cosine (Higham & Smith, Numer.
    Algorithms 34, 2003). Every product has half the order of ``M``, an
    eighth of the cost, and there is no solve.

    Each array of half the order is freed after its last use, and the
    result is written once, row half by row half. At most ten such arrays
    are live at once: in the series ``B``, ``C``, up to five powers of
    ``Z``, one finished series and two temporaries of Horner's rule; at
    the end the result (four), the two row halves (two each) and one row
    half in the result's column order.
    """
    I = np.flatnonzero(np.arange(MI.shape[0]) < pi)
    J = pi[I]
    MII = MI.take(I, axis=0)
    MJI = MI.take(J, axis=0)
    B = (MII + MJI) * scale
    C = (MII - MJI) * scale
    del MII, MJI
    W = B @ C
    norm = norm1(W)
    if not math.isfinite(norm):
        raise OverflowError("matrix exponential overflowed: "
                            "the squared argument is not finite")
    steps = math.ceil(math.log2(norm / _HALF_THETA) / 2) if norm > _HALF_THETA else 0
    degree = _taylor_degree(math.sqrt(norm * 4.0 ** -steps)) // 2
    P = _powers(W, 4.0 ** -steps, degree)
    del W
    m = P.shape[1]
    sinhc = _horner(_SINH_SERIES[:degree + 1], P)
    d = _horner(_COSH_SERIES[:degree + 1], P)
    c = P[1] @ d
    c.flat[::m + 1] += 1.0
    del P
    for _ in range(steps):
        sinhc = sinhc @ c
        d += d @ c
        d *= 0.5
        c = c @ c
        c *= 2.0
        c.flat[::m + 1] -= 1.0
    X12 = sinhc @ B
    X21 = C @ sinhc
    X22 = C @ (d @ B)
    del sinhc, d, B, C
    X22.flat[::m + 1] += 1.0
    # back from (p, q) to (w_I, w_J) = ((p + q) / 2, (p - q) / 2): rows I
    # and J of the result, columns in the order [I, J], then scattered
    S, D = c + X22, c - X22
    O, Q = X12 + X21, X12 - X21
    del c, X12, X21, X22
    top = np.concatenate([S + O, D - Q], axis=1)
    bottom = np.concatenate([D + Q, S - O], axis=1)
    del S, D, O, Q
    order = np.argsort(np.concatenate([I, J]))
    out = np.empty((MI.shape[0],) * 2, dtype=top.dtype)
    for rows, half in ((I, top), (J, bottom)):
        half *= 0.5
        out[rows] = half.take(order, axis=1)
    return out


def _checked(exp, M, scale):
    """``exp(M, scale)`` with an integer ``M`` taken as float and an
    overflow, or a non-finite ``M`` at any scale, raised as
    ``OverflowError``. Both exponentials give the identity exactly at
    ``scale = 0``."""
    if M.dtype.kind not in "fc":
        M = M.astype(float)
    # an overflow shows as a non-finite result, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        out = exp(M, scale)
    if not np.isfinite(out).all():
        raise OverflowError("matrix exponential overflowed to non-finite entries")
    return out


def expm(M, scale=1.0):
    """Matrix exponential ``e^(M * scale)``.

    Scaling and squaring with a truncated Taylor series whose degree
    follows the norm of the scaled argument (:func:`_taylor_expm`; Al-Mohy
    & Higham, SISC 33, 2011). A ``1 x 1`` input is ``np.exp`` of its entry.

    Parameters
    ----------
    M : (m, m) array_like
        Square matrix, real or complex.
    scale : float or complex, optional
        Scalar factor applied before exponentiation. ``scale=0`` returns
        the identity exactly.

    Returns
    -------
    (m, m) ndarray

    Raises
    ------
    OverflowError
        If ``M`` or the result contains non-finite entries, at every
        scale.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expm expects a square matrix, got shape %s" % (M.shape,))
    return _checked(_taylor_expm, M, scale)


def odd_expm(MI, scale, pi):
    """``e^(M * scale)`` for an ``(m, m)`` matrix ``M`` that is odd under
    the pairing ``pi``, from its columns ``MI = M[:, I]``, ``I =
    flatnonzero(arange(m) < pi)``.

    ``pi`` is an index map with ``pi[pi]`` the identity and no fixed point,
    and ``M[pi][:, pi] = -M``, so the spectrum of ``M`` comes in ``(lambda,
    -lambda)`` pairs and its columns ``pi[I]`` are ``-MI[pi]``. The
    exponential is taken at half the order, by the cosh/sinh form of
    :func:`_half_order_expm`, which does not detect a violation. It
    agrees with :func:`expm` of ``M`` to rounding, not bitwise.

    Parameters
    ----------
    MI : (m, m / 2) array_like
    scale : float
        ``scale=0`` returns the identity exactly.
    pi : (m,) int array

    Returns
    -------
    (m, m) ndarray

    Raises
    ------
    OverflowError
        If ``MI`` or the result contains non-finite entries, at every
        scale.
    """
    MI = np.asarray(MI)
    if MI.ndim != 2 or 2 * MI.shape[1] != MI.shape[0]:
        raise ValueError("odd_expm expects an (m, m / 2) matrix, got shape %s"
                         % (MI.shape,))
    return _checked(partial(_half_order_expm, pi=pi), MI, scale)


class ExpmTable:
    """Samples ``t -> expm(M t) X`` on ``[0, T]`` from products with ``M``.

    ``M`` enters through its action ``X -> M @ X`` alone, and its 1-norm.
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
    with a fixed interval and starting block. Every step and term is one
    call of the action, so a structured ``M``, such as the solver's
    generator through its :class:`~delaylyap.solver.BlockAction`, makes
    every one of them cheaper than a dense product.

    The table holds ``(J + 1)(K + 1)`` copies of ``X``. For the stacked
    state of a random stable system with ``n = nd = 12`` on ``h = 1``
    (``ns = 864``, about 20 nodes) that is about 2 MB. At ``t = 0`` the
    call returns ``X`` exactly.

    Parameters
    ----------
    action : callable
        ``action(Y, out=None)`` returns ``M @ Y`` for ``Y`` of shape ``(m,
        ...)``, written into ``out`` if given, as ``np.matmul(M, Y,
        out=out)`` does; ``partial(np.matmul, M)`` is the dense one.
    norm : float
        ``||M||_1``, which spaces the nodes.
    T : float
        Length of the interval, positive and finite.
    X : (m,) or (m, p) array_like

    Raises
    ------
    OverflowError
        If the table contains non-finite entries.
    """

    DEGREE = _taylor_degree()
    SPAN = 4
    STEP_DEGREE = _taylor_degree(SPAN)

    def __init__(self, action, norm, T, X):
        X = np.array(X, dtype=float)
        if X.ndim not in (1, 2):
            raise ValueError("expects a block of 1 or 2 dimensions, got shape %s"
                             % (X.shape,))
        T = float(T)
        if not np.isfinite(T) or T <= 0:
            raise ValueError("interval length must be positive and finite, got %r" % T)
        J = max(1, math.ceil(norm * T))
        delta = T / J
        m, K = X.shape[0], self.STEP_DEGREE
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
                    action(t[k - 1], out=t[k])
                    t[k] *= delta / k
                i = min(self.SPAN, J - j)
                W[:, j + 1:j + i + 1] = (powers[:i] @ t.reshape(K + 1, -1)) \
                    .reshape(i, m, -1).swapaxes(0, 1)
            # term k for every node at once, then laid out node by node
            terms = [W.reshape(m, -1)]
            for k in range(1, self.DEGREE + 1):
                terms.append(action(terms[-1]) / k)
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


# Square matrices of at least this order take the Krylov route of
# smallest_singular_value; below it one LAPACK SVD is the cheaper route,
# because the Lanczos loop's Python overhead dominates. The solver keeps
# only assemblies below this order per system (delaylyap.solver.assemble),
# which bounds the memory its memo holds.
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
    Q = np.empty((1, m))  # Lanczos vectors as rows, doubled as steps need
    alpha, beta = np.zeros(m), np.zeros(m)
    q = np.random.default_rng(0).standard_normal(m)
    q /= np.linalg.norm(q)
    for j in range(m):
        if j == len(Q):
            Q = np.concatenate([Q, np.empty((min(j, m - j), m))])
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
