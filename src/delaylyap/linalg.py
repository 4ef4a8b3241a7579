"""Dense linear algebra helpers shared by the solver modules.

Vectorization follows the column-stacking convention throughout: ``vec``
stacks columns, so ``vec(A X B) = kron(B.T, A) vec(X)``.
"""

import math

import numpy as np
import scipy.linalg


def vec(M):
    """Stack the columns of a matrix into a single vector."""
    M = np.asarray(M)
    if M.ndim != 2:
        raise ValueError("vec expects a 2-d array, got shape %s" % (M.shape,))
    return M.reshape(-1, order="F")


def unvec(v, rows, cols):
    """Inverse of :func:`vec`. Reshapes ``v`` into a ``rows x cols`` matrix.

    Raises ``ValueError`` when the length does not factor as ``rows * cols``.
    """
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError("unvec expects a 1-d array, got shape %s" % (v.shape,))
    if v.size != rows * cols:
        raise ValueError(
            "cannot reshape length %d into %d x %d" % (v.size, rows, cols)
        )
    return v.reshape(rows, cols, order="F")


def expm(M, scale=1.0):
    """Matrix exponential ``e^(M * scale)``.

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
        If the result contains non-finite entries.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expm expects a square matrix, got shape %s" % (M.shape,))
    if scale == 0:
        return np.eye(M.shape[0], dtype=np.result_type(M.dtype, float))
    out = scipy.linalg.expm(M * scale)
    if not np.all(np.isfinite(out)):
        raise OverflowError("matrix exponential overflowed to non-finite entries")
    return out


def _taylor_degree():
    """Smallest ``K`` with ``(1/2)^(K+1) e^(1/2) / (K+1)! <= 2^-53``: the
    truncation bound of a degree-``K`` Taylor polynomial of ``expm(Z)`` for
    ``||Z||_1 <= 1/2``, relative to unit roundoff."""
    K, bound = 0, 0.5 * math.exp(0.5)
    while bound > 2.0 ** -53:
        K += 1
        bound *= 0.5 / (K + 1)
    return K


class ExpmTable:
    """Samples ``t -> expm(M t) X`` on ``[0, T]`` from one exponential.

    The interval is cut at ``J + 1`` nodes ``j delta``, ``delta = T / J``
    with ``J = max(1, ceil(||M||_1 T))``. Node values come from stepping
    ``W_{j+1} = expm(M delta) W_j`` from ``W_0 = X``, and the table keeps
    the Taylor terms ``M^k W_j / k!`` for ``k <= K`` at every node. A call
    expands about the nearest node, so the step ``s`` satisfies ``||M s||_1
    <= 1/2`` and degree ``K`` (:func:`_taylor_degree`, 14) truncates below
    unit roundoff: the value is the dot product of ``s^k`` with the terms.
    This is the truncated-Taylor stepping of Al-Mohy & Higham (SISC 2011)
    with a fixed interval and starting block.

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

    Raises
    ------
    OverflowError
        If the table contains non-finite entries.
    """

    DEGREE = _taylor_degree()

    def __init__(self, M, T, X):
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
        delta = T / J
        step = expm(M, delta)
        m = M.shape[0]
        W = np.empty((m, J + 1, X.size // m))
        W[:, 0] = X.reshape(m, -1)
        for j in range(J):
            W[:, j + 1] = step @ W[:, j]
        # term k for every node at once, then laid out node by node
        terms = [W.reshape(m, -1)]
        for k in range(1, self.DEGREE + 1):
            terms.append((M @ terms[-1]) / k)
        self.terms = np.stack(terms).reshape(self.DEGREE + 1, m, J + 1, -1) \
            .transpose(2, 0, 1, 3).reshape(J + 1, self.DEGREE + 1, X.size)
        if not np.all(np.isfinite(self.terms)):
            raise OverflowError("propagated block overflowed to non-finite entries")
        self.shape = X.shape
        self.T = T
        self.delta = delta
        self._exponents = np.arange(self.DEGREE + 1)

    @property
    def nodes(self):
        return self.terms.shape[0]

    def __call__(self, t):
        """``expm(M t) X`` for ``t`` in ``[0, T]``. An array of ``t`` gives
        the values stacked on its leading axes."""
        t = np.asarray(t, dtype=float)
        slack = 1e-9 * max(1.0, self.T)
        if not np.all((-slack <= t) & (t <= self.T + slack)):
            raise ValueError("t=%r outside [0, %g]" % (t, self.T))
        j = np.clip(np.rint(t / self.delta), 0, self.nodes - 1).astype(int).ravel()
        s = t.ravel() - j * self.delta
        out = np.einsum("ik,ikm->im", s[:, None] ** self._exponents, self.terms[j])
        return out.reshape(t.shape + self.shape)


def smallest_singular_value(A):
    """Smallest singular value of a (possibly rectangular) matrix."""
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError("expects a 2-d array, got shape %s" % (A.shape,))
    if min(A.shape) == 0:
        return 0.0
    return float(scipy.linalg.svdvals(A)[-1])


def maxabs(A):
    """Largest entry magnitude, zero for empty arrays."""
    A = np.asarray(A)
    return float(np.max(np.abs(A))) if A.size else 0.0
